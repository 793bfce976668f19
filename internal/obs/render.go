package obs

import (
	"fmt"
	"sort"
	"strings"
)

// RenderTree renders a trace's span tree as indented text — the shared
// renderer behind `evidencediag -fetch-trace` and sqlsh's `.trace on`.
//
//	trace 4bf9... req=ab12 /v1/query status=200 12.4ms
//	└─ request 12.4ms
//	   ├─ admission 0.1ms
//	   ├─ evserve.lookup 8.3ms cache_hit=false
//	   │  └─ stage:generate 8.1ms
//	   └─ sqlengine.execute 1.2ms rows=3 cost=41
func RenderTree(rec *TraceRecord) string {
	if rec == nil {
		return "(no trace)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s", rec.ID)
	if rec.RequestID != "" {
		fmt.Fprintf(&b, " req=%s", rec.RequestID)
	}
	if rec.Name != "" {
		fmt.Fprintf(&b, " %s", rec.Name)
	}
	if rec.Status != 0 {
		fmt.Fprintf(&b, " status=%d", rec.Status)
	}
	fmt.Fprintf(&b, " %s", fmtMicros(rec.DurationMicros))
	if rec.Err != "" {
		fmt.Fprintf(&b, " error=%q", rec.Err)
	}
	b.WriteByte('\n')

	children := make(map[string][]*Span)
	byID := make(map[string]*Span, len(rec.Spans))
	for i := range rec.Spans {
		byID[rec.Spans[i].SpanID] = &rec.Spans[i]
	}
	var roots []*Span
	for i := range rec.Spans {
		sp := &rec.Spans[i]
		if sp.ParentID != "" && byID[sp.ParentID] != nil {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		} else {
			// Parent missing locally (e.g. the router-side parent span of a
			// replica trace): render as a root.
			roots = append(roots, sp)
		}
	}
	orderSpans(roots)
	for k := range children {
		orderSpans(children[k])
	}
	for i, sp := range roots {
		renderSpan(&b, sp, children, "", i == len(roots)-1)
	}
	return b.String()
}

func orderSpans(spans []*Span) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartMicros < spans[j].StartMicros })
}

func renderSpan(b *strings.Builder, sp *Span, children map[string][]*Span, prefix string, last bool) {
	connector, childPrefix := "├─ ", prefix+"│  "
	if last {
		connector, childPrefix = "└─ ", prefix+"   "
	}
	fmt.Fprintf(b, "%s%s%s %s", prefix, connector, sp.Name, fmtMicros(sp.DurationMicros))
	for _, a := range sp.Attrs.sorted() {
		fmt.Fprintf(b, " %s=%v", a.Key, a.Value())
	}
	if sp.Err != "" {
		fmt.Fprintf(b, " error=%q", sp.Err)
	}
	b.WriteByte('\n')
	kids := children[sp.SpanID]
	for i, kid := range kids {
		renderSpan(b, kid, children, childPrefix, i == len(kids)-1)
	}
}

func fmtMicros(us int64) string {
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%.1fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}
