package obs

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	h := http.Header{}
	traceID, spanID := NewTraceID(), NewSpanID()
	Inject(h, traceID, spanID)
	got := h.Get(TraceparentHeader)
	want := "00-" + traceID + "-" + spanID + "-01"
	if got != want {
		t.Fatalf("traceparent = %q, want %q", got, want)
	}
	tid, pid, ok := Extract(h)
	if !ok || tid != traceID || pid != spanID {
		t.Fatalf("Extract = (%q, %q, %v), want (%q, %q, true)", tid, pid, ok, traceID, spanID)
	}
}

func TestExtractRejectsMalformed(t *testing.T) {
	cases := []string{
		"",
		"00-abc-def-01",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("a", 16) + "-01",    // all-zero trace id
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01",    // all-zero span id
		"00-" + strings.Repeat("g", 32) + "-" + strings.Repeat("a", 16) + "-01",    // non-hex
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("a", 16),            // 3 parts
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("a", 16) + "-01-02", // 5 parts
	}
	for _, v := range cases {
		h := http.Header{}
		if v != "" {
			h.Set(TraceparentHeader, v)
		}
		if _, _, ok := Extract(h); ok {
			t.Errorf("Extract accepted malformed traceparent %q", v)
		}
	}
}

func TestRequestIDFreshWhenAbsent(t *testing.T) {
	h := http.Header{}
	id := RequestID(h)
	if id == "" {
		t.Fatal("RequestID returned empty for absent header")
	}
	h.Set(RequestIDHeader, "client-supplied")
	if got := RequestID(h); got != "client-supplied" {
		t.Fatalf("RequestID = %q, want client-supplied", got)
	}
}

func TestSpanTreeAndFinish(t *testing.T) {
	tr := NewTrace("", "req1")
	root := tr.StartRoot("request", "remoteparent0000")
	ctx := ContextWithSpan(context.Background(), root)

	child := StartSpan(ctx, "stage.a")
	child.SetBool("cache_hit", true)
	grand := StartSpan(ContextWithSpan(ctx, child), "stage.a.inner")
	grand.End()
	child.End()
	failed := StartSpan(ctx, "stage.b")
	failed.Fail("boom")
	root.Child("measured", time.Now().Add(-time.Millisecond), time.Millisecond).SetInt("rows", 3)
	root.End()

	rec := tr.Finish("/v1/query", 200, "")
	if rec == nil || len(rec.Spans) != 5 {
		t.Fatalf("Finish: got %+v, want 5 spans", rec)
	}
	if rec.ID != tr.ID() || rec.RequestID != "req1" || rec.Status != 200 {
		t.Fatalf("record header wrong: %+v", rec)
	}
	byName := map[string]Span{}
	for _, sp := range rec.Spans {
		byName[sp.Name] = sp
		if sp.DurationMicros <= 0 {
			t.Errorf("span %s has non-positive duration %d", sp.Name, sp.DurationMicros)
		}
	}
	if byName["request"].ParentID != "remoteparent0000" {
		t.Errorf("root parent = %q, want remote parent", byName["request"].ParentID)
	}
	if byName["stage.a"].ParentID != byName["request"].SpanID {
		t.Errorf("stage.a parent = %q, want root span id", byName["stage.a"].ParentID)
	}
	if byName["stage.a.inner"].ParentID != byName["stage.a"].SpanID {
		t.Errorf("stage.a.inner parent wrong")
	}
	if byName["stage.b"].Err != "boom" {
		t.Errorf("stage.b error = %q, want boom", byName["stage.b"].Err)
	}
	if attrOf(byName["stage.a"].Attrs, "cache_hit") != true {
		t.Errorf("stage.a attrs = %v", byName["stage.a"].Attrs)
	}
	if !rec.Errored() {
		t.Error("record with errored span should report Errored")
	}

	tree := RenderTree(rec)
	for _, want := range []string{"request", "stage.a", "stage.a.inner", "stage.b", "measured", "rows=3", `error="boom"`} {
		if !strings.Contains(tree, want) {
			t.Errorf("RenderTree missing %q:\n%s", want, tree)
		}
	}
}

func TestDisabledTracingIsNoop(t *testing.T) {
	ctx := context.Background()
	sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatal("StartSpan without collector should return nil span")
	}
	if ContextWithSpan(ctx, sp) != ctx {
		t.Fatal("ContextWithSpan of a nil span should not derive a new context")
	}
	// All nil-receiver operations must be safe.
	sp.End()
	sp.Fail("x")
	sp.SetInt("k", 1)
	sp.Child("c", time.Now(), time.Millisecond).SetInt("k", 1)
	var tr *Trace
	if tr.Finish("x", 0, "") != nil {
		t.Fatal("nil trace Finish should return nil")
	}
	if tr.StartRoot("x", "") != nil {
		t.Fatal("nil trace StartRoot should return nil")
	}
}

// TestSpanHandlesOutliveSlabGrowth opens spans of one trace from several
// goroutines, each setting attributes and ending its spans through
// handles whose slab the others grow under them, and one span after
// Finish. Every span lands once in the record, under its parent, with
// its own attributes; the late span changes nothing.
func TestSpanHandlesOutliveSlabGrowth(t *testing.T) {
	tr := NewTrace("", "req")
	root := tr.StartRoot("request", "")
	ctx := ContextWithSpan(context.Background(), root)
	const goroutines, perG = 4, 20
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perG {
				sp := StartSpan(ctx, fmt.Sprintf("g%d.%d", g, i))
				sp.SetInt("g", g)
				sp.SetInt("i", i)
				sp.SetInt64("g", int64(g)) // replaces the first g
				if i%5 == 0 {
					sp.Fail("boom")
				} else {
					sp.End()
				}
			}
		}()
	}
	wg.Wait()
	root.End()
	rec := tr.Finish("/x", 200, "")
	if late := StartSpan(ctx, "late"); late != nil {
		t.Error("a span opened after Finish is not nil")
	}
	root.SetBool("late", true)
	if got, want := len(rec.Spans), 1+goroutines*perG; got != want {
		t.Fatalf("%d spans, want %d", got, want)
	}
	seen := map[string]bool{}
	for _, sp := range rec.Spans[1:] {
		var g, i int
		if _, err := fmt.Sscanf(sp.Name, "g%d.%d", &g, &i); err != nil || seen[sp.Name] {
			t.Fatalf("span %q unexpected or repeated", sp.Name)
		}
		seen[sp.Name] = true
		if sp.ParentID != rec.Spans[0].SpanID || sp.DurationMicros <= 0 {
			t.Errorf("%s: parent %q duration %d", sp.Name, sp.ParentID, sp.DurationMicros)
		}
		if len(sp.Attrs) != 2 || attrOf(sp.Attrs, "g") != int64(g) || attrOf(sp.Attrs, "i") != i {
			t.Errorf("%s: attrs %+v", sp.Name, sp.Attrs)
		}
		if (sp.Err == "boom") != (i%5 == 0) {
			t.Errorf("%s: error %q", sp.Name, sp.Err)
		}
	}
	if len(rec.Spans[0].Attrs) != 0 {
		t.Errorf("root attrs %+v after Finish, want none", rec.Spans[0].Attrs)
	}
}

// attrOf is the value of key in as, or nil when the span has none.
func attrOf(as Attrs, key string) any {
	for _, a := range as {
		if a.Key == key {
			return a.Value()
		}
	}
	return nil
}
