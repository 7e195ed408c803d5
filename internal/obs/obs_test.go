package obs

import (
	"testing"
	"time"
)

func TestTracerParentingAndSnapshot(t *testing.T) {
	tr := NewTracer()
	root := tr.Start(nil, "optimize")
	child := tr.Start(root, "frontier").SetInt("vertices", 4)
	grand := tr.Start(child, "frontier.round").SetStr("vertex", "v2").SetBool("pruned", true)
	grand.End()
	child.End()
	root.SetInt("cost", 15)
	root.End()

	snap := tr.Snapshot()
	if snap == nil || len(snap.Spans) != 3 {
		t.Fatalf("want 3 spans, got %+v", snap)
	}
	s := snap.Spans
	if s[0].ID != 1 || s[0].Parent != 0 || s[0].Name != "optimize" {
		t.Errorf("root span wrong: %+v", s[0])
	}
	if s[1].Parent != s[0].ID || s[2].Parent != s[1].ID {
		t.Errorf("parent links wrong: %+v", s)
	}
	if len(s[2].Attrs) != 2 || s[2].Attrs[0].Value() != "v2" || s[2].Attrs[1].Value() != true {
		t.Errorf("grandchild attrs wrong: %+v", s[2].Attrs)
	}
	if len(s[0].Attrs) != 1 || s[0].Attrs[0].Value() != int64(15) {
		t.Errorf("root attrs wrong: %+v", s[0].Attrs)
	}
	for i, sp := range s {
		if sp.End.IsZero() || sp.End.Before(sp.Start) {
			t.Errorf("span %d not properly ended: %+v", i, sp)
		}
	}
}

func TestSpanEndKeepsFirstEndTime(t *testing.T) {
	tr := NewTracer()
	s := tr.Start(nil, "x")
	s.End()
	first := tr.Snapshot().Spans[0].End
	time.Sleep(time.Millisecond)
	s.End()
	if got := tr.Snapshot().Spans[0].End; !got.Equal(first) {
		t.Errorf("double End moved end time: %v -> %v", first, got)
	}
}

func TestTracerReset(t *testing.T) {
	tr := NewTracer()
	tr.Start(nil, "a").End()
	tr.Reset()
	if n := len(tr.Snapshot().Spans); n != 0 {
		t.Fatalf("after Reset want 0 spans, got %d", n)
	}
	s := tr.Start(nil, "b")
	s.End()
	snap := tr.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].ID != 2 {
		t.Errorf("IDs should continue after Reset: %+v", snap.Spans)
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	s := tr.Start(nil, "anything")
	if s != nil {
		t.Fatal("nil tracer must return nil span")
	}
	// Every span method must accept a nil receiver.
	s.SetInt("a", 1).SetStr("c", "d").SetBool("e", true).End()
	if tr.Snapshot() != nil {
		t.Error("nil tracer Snapshot must be nil")
	}
	tr.Reset()
	// Exporters must accept a nil trace.
	var trace *Trace
	if got := trace.Tree(); got != "(empty trace)\n" {
		t.Errorf("nil trace Tree = %q", got)
	}
	if trace.DurationsByName() != nil {
		t.Error("nil trace DurationsByName must be nil")
	}
	if trace.WallCoverage() != 0 {
		t.Error("nil trace WallCoverage must be 0")
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	tr := NewTracer()
	s := tr.Start(nil, "x").SetInt("n", 1)
	snap := tr.Snapshot()
	s.SetInt("m", 2)
	s.End()
	if len(snap.Spans[0].Attrs) != 1 {
		t.Error("snapshot must not see attrs set after it was taken")
	}
	if !snap.Spans[0].End.IsZero() {
		t.Error("snapshot must not see End called after it was taken")
	}
}

// TestDisabledHooksAllocationFree is the ISSUE's "allocation-free when
// disabled" gate in unit-test form (BenchmarkDisabledTracing measures
// the time side).
func TestDisabledHooksAllocationFree(t *testing.T) {
	var tr *Tracer
	var reg *Registry
	allocs := testing.AllocsPerRun(100, func() {
		s := tr.Start(nil, "vertex")
		s.SetInt("id", 3)
		s.End()
		reg.Counter("dist.retries").Inc()
		reg.Gauge("dist.peak_bytes").SetMax(10)
		reg.Histogram("dist.vertex.seconds", DefaultDurationBuckets()).Observe(0.5)
	})
	if allocs != 0 {
		t.Errorf("disabled hooks allocated %.1f times per op, want 0", allocs)
	}
}

func BenchmarkDisabledTracing(b *testing.B) {
	var tr *Tracer
	var reg *Registry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Start(nil, "vertex")
		s.SetInt("id", int64(i))
		reg.Counter("dist.retries").Inc()
		s.End()
	}
}

func BenchmarkEnabledSpan(b *testing.B) {
	tr := NewTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := tr.Start(nil, "vertex")
		s.SetInt("id", int64(i))
		s.End()
		if i%1024 == 0 {
			tr.Reset() // keep memory bounded
		}
	}
}
