package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// summaryQuantiles are the quantile labels emitted for each histogram.
var summaryQuantiles = []float64{0.5, 0.9, 0.99}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4). Histograms are rendered as summaries
// (exact quantiles over the sample window) plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	metrics := make([]*metric, len(r.metrics))
	copy(metrics, r.metrics)
	r.mu.RUnlock()

	// Group by family name so HELP/TYPE headers appear once per family,
	// preserving first-registration order of families.
	var order []string
	families := make(map[string][]*metric)
	for _, m := range metrics {
		if _, ok := families[m.name]; !ok {
			order = append(order, m.name)
		}
		families[m.name] = append(families[m.name], m)
	}

	var b strings.Builder
	for _, name := range order {
		fam := families[name]
		if fam[0].help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, escapeHelp(fam[0].help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, promType(fam[0].kind))
		for _, m := range fam {
			switch m.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", name, labelString(m.labels, nil), m.counter.Value())
			case kindCounterFunc:
				fmt.Fprintf(&b, "%s%s %d\n", name, labelString(m.labels, nil), m.count())
			case kindGaugeFunc:
				fmt.Fprintf(&b, "%s%s %s\n", name, labelString(m.labels, nil), formatFloat(m.fn()))
			case kindHistogram:
				qv := m.hist.Quantiles(summaryQuantiles...)
				for i, q := range summaryQuantiles {
					extra := []Label{{Key: "quantile", Value: formatFloat(q)}}
					fmt.Fprintf(&b, "%s%s %d\n", name, labelString(m.labels, extra), qv[i])
				}
				fmt.Fprintf(&b, "%s_sum%s %d\n", name, labelString(m.labels, nil), m.hist.Sum())
				fmt.Fprintf(&b, "%s_count%s %d\n", name, labelString(m.labels, nil), m.hist.Count())
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func promType(k metricKind) string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "summary"
	default:
		return "gauge"
	}
}

// labelString renders {k="v",...} with keys sorted, or "" for no labels.
func labelString(labels, extra []Label) string {
	if len(labels)+len(extra) == 0 {
		return ""
	}
	all := make([]Label, 0, len(labels)+len(extra))
	all = append(all, labels...)
	all = append(all, extra...)
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
