package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// goldenTrace builds a fixed-timestamp trace shaped like a real run:
// an optimize phase followed by a dist execution with two vertices.
func goldenTrace() *Trace {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(us int64) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	return &Trace{Spans: []SpanData{
		{ID: 1, Parent: 0, Name: "optimize", Start: at(0), End: at(1500),
			Attrs: []Attr{Attr{Key: "algorithm", kind: attrStr, s: "frontier"}}},
		{ID: 2, Parent: 1, Name: "plancache.lookup", Start: at(10), End: at(20),
			Attrs: []Attr{Attr{Key: "hit", kind: attrBool}}},
		{ID: 3, Parent: 1, Name: "frontier", Start: at(20), End: at(1400)},
		{ID: 4, Parent: 3, Name: "frontier.round", Start: at(30), End: at(700),
			Attrs: []Attr{Attr{Key: "vertex", kind: attrInt, i: 2}}},
		{ID: 5, Parent: 0, Name: "execute", Start: at(1500), End: at(3500)},
		{ID: 6, Parent: 5, Name: "dist.run", Start: at(1510), End: at(3490)},
		{ID: 7, Parent: 6, Name: "vertex", Start: at(1520), End: at(2500),
			Attrs: []Attr{Attr{Key: "id", kind: attrInt, i: 3}, Attr{Key: "impl", kind: attrStr, s: "RowMatrix"}}},
	}}
}

func sp(n int) string { return strings.Repeat(" ", n) }

func TestTreeGolden(t *testing.T) {
	want := "optimize" + sp(28) + "1.5ms  algorithm=frontier\n" +
		"  plancache.lookup" + sp(19) + "10µs  hit=false\n" +
		"  frontier" + sp(25) + "1.38ms\n" +
		"    frontier.round" + sp(18) + "670µs  vertex=2\n" +
		"execute" + sp(31) + "2ms\n" +
		"  dist.run" + sp(25) + "1.98ms\n" +
		"    vertex" + sp(26) + "980µs  id=3  impl=RowMatrix\n"
	got := goldenTrace().Tree()
	if got != want {
		t.Errorf("Tree golden mismatch.\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestTreeOpenSpanClampsToTraceEnd(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tr := &Trace{Spans: []SpanData{
		{ID: 1, Name: "run", Start: base}, // never ended
		{ID: 2, Parent: 1, Name: "step", Start: base.Add(time.Millisecond), End: base.Add(3 * time.Millisecond)},
	}}
	want := "run" + sp(35) + "3ms  (open)\n" +
		"  step" + sp(32) + "2ms\n"
	if got := tr.Tree(); got != want {
		t.Errorf("open-span Tree mismatch.\nwant:\n%s\ngot:\n%s", want, got)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(us int64) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	tr := &Trace{Spans: []SpanData{
		{ID: 1, Name: "dist.run", Start: at(0), End: at(2000)},
		{ID: 2, Parent: 1, Name: "vertex", Start: at(100), End: at(900),
			Attrs: []Attr{Attr{Key: "id", kind: attrInt, i: 3}}},
		{ID: 3, Parent: 1, Name: "vertex", Start: at(100), End: at(1900)},
		{ID: 4, Parent: 3, Name: "exchange", Start: at(200), End: at(800),
			Attrs: []Attr{Attr{Key: "kind", kind: attrStr, s: "shuffle"}}},
	}}
	want := `{
  "traceEvents": [
    {
      "name": "dist.run",
      "ph": "X",
      "ts": 0,
      "dur": 2000,
      "pid": 1,
      "tid": 1
    },
    {
      "name": "vertex",
      "ph": "X",
      "ts": 100,
      "dur": 800,
      "pid": 1,
      "tid": 2,
      "args": {
        "id": 3
      }
    },
    {
      "name": "vertex",
      "ph": "X",
      "ts": 100,
      "dur": 1800,
      "pid": 1,
      "tid": 3
    },
    {
      "name": "exchange",
      "ph": "X",
      "ts": 200,
      "dur": 600,
      "pid": 1,
      "tid": 3,
      "args": {
        "kind": "shuffle"
      }
    }
  ],
  "displayTimeUnit": "ms"
}
`
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != want {
		t.Errorf("Chrome trace golden mismatch.\nwant:\n%s\ngot:\n%s", want, got)
	}
	// The file must also be valid trace_event JSON when decoded back.
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("emitted file is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) != 4 {
		t.Errorf("decoded %d events, want 4", len(decoded.TraceEvents))
	}
}

func TestDurationsByName(t *testing.T) {
	d := goldenTrace().DurationsByName()
	if d["optimize"] != 1500*time.Microsecond {
		t.Errorf("optimize = %v", d["optimize"])
	}
	// Two vertex-free names but one repeated name would sum; here each
	// name appears once except none repeat — check a nested one.
	if d["frontier.round"] != 670*time.Microsecond {
		t.Errorf("frontier.round = %v", d["frontier.round"])
	}
}

func TestWallCoverage(t *testing.T) {
	if got := goldenTrace().WallCoverage(); got != 1 {
		t.Errorf("contiguous roots should cover 1.0, got %g", got)
	}
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	at := func(us int64) time.Time { return base.Add(time.Duration(us) * time.Microsecond) }
	gap := &Trace{Spans: []SpanData{
		{ID: 1, Name: "a", Start: at(0), End: at(100)},
		{ID: 2, Name: "b", Start: at(300), End: at(400)},
	}}
	if got := gap.WallCoverage(); got != 0.5 {
		t.Errorf("gapped roots should cover 0.5, got %g", got)
	}
}
