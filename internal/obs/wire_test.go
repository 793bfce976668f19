package obs

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

var recordTraceWire = flag.Bool("record-trace-wire", false, "re-record testdata/trace_wire.golden")

const traceWireGolden = "testdata/trace_wire.golden"

var (
	lowerHex   = regexp.MustCompile(`^[0-9a-f]+$`)
	jsonTimes  = regexp.MustCompile(`"(start_us|duration_us)":[0-9]+`)
	treeTimes  = regexp.MustCompile(` [0-9]+(\.[0-9]+)?(µs|ms|s)(\n| )`)
	remoteSpan = "remoteparent0000"
)

// TestTraceWireFormat pins what a trace records, byte for byte, in the
// three forms it leaves the process: the TraceRecord's JSON, the body
// GET /v1/traces/{id} answers (api.WriteJSON of the record) and
// RenderTree's text. The trace has a remote parent, a nested span, a
// failed span, a measured child with attributes, attributes of every
// kind the serving path sets (one key set twice) and a span with none.
// IDs are checked for form and parent links, then replaced by their
// position; times are zeroed.
func TestTraceWireFormat(t *testing.T) {
	tr := NewTrace("", "req-wire")
	root := tr.StartRoot("request", remoteSpan)
	ctx := ContextWithSpan(context.Background(), root)
	root.SetStr("db", "financial")
	root.SetInt("example_id", 1234)

	a := StartSpan(ctx, "stage.a")
	a.SetStr("match", "none")
	a.SetInt("attempts", 3)
	a.SetInt64("cost", int64(70000))
	a.SetFloat("confidence", 0.9)
	a.SetFloat("tiny", 1e-7)
	a.SetBool("cache_hit", true)
	a.SetStr("sql", `SELECT "a" FROM t WHERE x < 3 & y > 2`)
	a.SetStr("path", "positions/agg\u2028\t")
	a.SetInt("delta", -42)
	a.SetStr("match", "exact")
	inner := StartSpan(ContextWithSpan(ctx, a), "stage.a.inner")
	inner.End()
	a.End()

	b := StartSpan(ctx, "stage.b")
	b.SetBool("plan_cache_hit", false)
	b.Fail(errors.New(`no such column: "nosuch"`))

	m := root.Child("measured", time.Now().Add(-time.Hour), 1500*time.Microsecond)
	m.SetInt("tokens", 321)
	m.SetInt("rows", 3)
	root.End()

	rec := tr.Finish("/v1/query", 502, "upstream <failed>")

	// Form and links before the IDs are replaced.
	if len(rec.ID) != 32 || !lowerHex.MatchString(rec.ID) {
		t.Fatalf("trace id %q is not 32 lowercase hex chars", rec.ID)
	}
	ids := map[string]string{rec.ID: "T"}
	byName := map[string]Span{}
	for i, sp := range rec.Spans {
		if len(sp.SpanID) != 16 || !lowerHex.MatchString(sp.SpanID) {
			t.Fatalf("span %s id %q is not 16 lowercase hex chars", sp.Name, sp.SpanID)
		}
		if sp.TraceID != rec.ID {
			t.Fatalf("span %s trace id %q, want %q", sp.Name, sp.TraceID, rec.ID)
		}
		if _, dup := ids[sp.SpanID]; dup {
			t.Fatalf("span id %q repeats", sp.SpanID)
		}
		ids[sp.SpanID] = "S" + string(rune('0'+i))
		byName[sp.Name] = sp
	}
	for child, parent := range map[string]string{
		"stage.a": "request", "stage.a.inner": "stage.a", "stage.b": "request", "measured": "request",
	} {
		if got, want := byName[child].ParentID, byName[parent].SpanID; got != want {
			t.Errorf("%s parent = %q, want %s's %q", child, got, parent, want)
		}
	}
	if got := byName["request"].ParentID; got != remoteSpan {
		t.Errorf("request parent = %q, want the remote %q", got, remoteSpan)
	}

	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	rr := httptest.NewRecorder()
	api.WriteJSON(rr, 200, rec)
	tree := RenderTree(rec)

	normal := func(s string) string {
		for id, pos := range ids {
			s = strings.ReplaceAll(s, id, pos)
		}
		s = jsonTimes.ReplaceAllString(s, `"$1":0`)
		return treeTimes.ReplaceAllString(s, " D$3")
	}
	got := "== record\n" + normal(string(raw)) + "\n" +
		"== /v1/traces/{id}\n" + normal(rr.Body.String()) +
		"== tree\n" + normal(tree)

	if *recordTraceWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceWireGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceWireGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("trace wire format moved:\n got:\n%s\nwant:\n%s", got, want)
	}
}
