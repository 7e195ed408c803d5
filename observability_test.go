package matopt

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"matopt/internal/costmodel"
)

// spanNames collects the names present in a trace.
func spanNames(tr *Trace) map[string]int {
	out := make(map[string]int)
	for _, s := range tr.Spans {
		out[s.Name]++
	}
	return out
}

// TestTracedOptimizeAndExecute shares one tracer across the optimizer
// and a dist executor and checks the span taxonomy of a full run.
func TestTracedOptimizeAndExecute(t *testing.T) {
	b := NewBuilder()
	x := b.Input("X", 120, 400, RowStrips(100))
	w := b.Input("W", 400, 80, Single())
	h := b.ReLU(b.MatMul(x, w))
	b.MatMul(b.Transpose(h), h)
	cl := costmodel.LocalTest(3)
	_, inputs, want := faultGolden(t)

	tracer := NewTracer()
	plan, err := NewOptimizer(cl, WithTracer(tracer)).Optimize(b)
	if err != nil {
		t.Fatal(err)
	}
	exec := NewExecutor(cl, WithEngineKind(DistEngine), WithShards(4), WithTracing(tracer))
	got, err := exec.Run(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "traced dist", got, want)

	tr := exec.Trace()
	if tr == nil {
		t.Fatal("Trace() returned nil on a traced executor")
	}
	names := spanNames(tr)
	nv := len(plan.Annotation().Graph.Vertices)
	for name, min := range map[string]int{
		"optimize": 1, "plancache.lookup": 1, "execute": 1,
		"dist.run": 1, "vertex": nv, "attempt": nv, "exchange": 1,
	} {
		if names[name] < min {
			t.Errorf("trace has %d %q spans, want ≥ %d (all: %v)", names[name], name, min, names)
		}
	}
	// The graph is a DAG (shared h), so the Frontier ran, one round per
	// non-source vertex.
	if names["frontier"] != 1 || names["frontier.round"] != nv-2 {
		t.Errorf("want 1 frontier span and %d rounds, got %v", nv-2, names)
	}
	// Every span must be closed and parented to a span in the snapshot.
	ids := make(map[int64]bool)
	for _, s := range tr.Spans {
		ids[s.ID] = true
	}
	for _, s := range tr.Spans {
		if s.End.IsZero() {
			t.Errorf("span %q left open", s.Name)
		}
		if s.Parent != 0 && !ids[s.Parent] {
			t.Errorf("span %q has dangling parent %d", s.Name, s.Parent)
		}
	}
	// The exporters must render it: tree text and a loadable Chrome file.
	if tree := tr.Tree(); !strings.Contains(tree, "dist.run") {
		t.Errorf("tree rendering missing dist.run:\n%s", tree)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != len(tr.Spans) {
		t.Errorf("chrome trace has %d events for %d spans", len(f.TraceEvents), len(tr.Spans))
	}
	// Root spans (optimize + execute) must account for essentially the
	// whole traced window — the acceptance bar for the CLI's -trace-out.
	if cov := tr.WallCoverage(); cov < 0.95 {
		t.Errorf("root spans cover %.2f of the trace window, want ≥ 0.95", cov)
	}
}

// TestUntracedRunsProduceNoTrace: executors and optimizers without a
// tracer behave exactly as before and report a nil trace.
func TestUntracedRunsProduceNoTrace(t *testing.T) {
	plan, inputs, want := faultGolden(t)
	cl := costmodel.LocalTest(3)
	exec := NewExecutor(cl, WithEngineKind(DistEngine), WithShards(2))
	got, err := exec.Run(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "untraced dist", got, want)
	if exec.Trace() != nil {
		t.Error("untraced executor must return a nil Trace")
	}
}

// TestPlanCacheMetrics: cache lookups are counted into the process
// registry and the lookup span records the hit.
func TestPlanCacheMetrics(t *testing.T) {
	cl := costmodel.LocalTest(3)
	build := func() *Builder {
		b := NewBuilder()
		x := b.Input("X", 50, 60, Single())
		w := b.Input("W", 60, 40, Single())
		b.MatMul(x, w)
		return b
	}
	hits0 := Metrics().Counter("matopt.plancache.hits").Value()
	misses0 := Metrics().Counter("matopt.plancache.misses").Value()

	tracer := NewTracer()
	o := NewOptimizer(cl, WithTracer(tracer))
	if _, err := o.Optimize(build()); err != nil {
		t.Fatal(err)
	}
	p2, err := o.Optimize(build())
	if err != nil {
		t.Fatal(err)
	}
	if !p2.Cached() {
		t.Fatal("second optimize of an identical graph should hit the plan cache")
	}
	if d := Metrics().Counter("matopt.plancache.hits").Value() - hits0; d != 1 {
		t.Errorf("hits grew by %d, want 1", d)
	}
	if d := Metrics().Counter("matopt.plancache.misses").Value() - misses0; d != 1 {
		t.Errorf("misses grew by %d, want 1", d)
	}
	var hitAttrs []bool
	for _, s := range tracer.Snapshot().Spans {
		if s.Name != "plancache.lookup" {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == "hit" {
				hitAttrs = append(hitAttrs, a.Value() == true)
			}
		}
	}
	if len(hitAttrs) != 2 || hitAttrs[0] || !hitAttrs[1] {
		t.Errorf("plancache.lookup hit attrs = %v, want [false true]", hitAttrs)
	}
}

// TestDegradedReportKeepsMeters is the regression test for the
// degraded-run report: after Fallback kicks in, DistReport must
// carry the attempted dist run's meters — the traffic it shipped, the
// retries it took, the faults that fired — not a zeroed report.
func TestDegradedReportKeepsMeters(t *testing.T) {
	plan, inputs, want := faultGolden(t)
	cl := costmodel.LocalTest(3)
	// Crash one non-source vertex on every allowed attempt so the dist
	// run does real work (sources load, peers execute, exchanges ship)
	// before retries exhaust and the executor degrades.
	var victim int
	for _, v := range plan.Annotation().Graph.Vertices {
		if !v.IsSource {
			victim = v.ID
		}
	}
	one := 1
	exec := NewExecutor(cl, WithEngineKind(DistEngine),
		WithExecConfig(ExecConfig{Shards: 4, MaxRetries: &one, Fallback: true, FaultPlan: NewFaultPlan(
			Fault{Kind: FaultCrash, Vertex: victim, Attempt: 0},
			Fault{Kind: FaultCrash, Vertex: victim, Attempt: 1},
		)}))
	got, err := exec.Run(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "degraded run", got, want)
	rep := exec.DistReport()
	if rep == nil || !rep.Degraded || rep.DegradedCause == "" {
		t.Fatalf("degradation not reported: %+v", rep)
	}
	if rep.Shards != 4 {
		t.Errorf("degraded report lost the shard count: %d", rep.Shards)
	}
	if rep.FaultsInjected != 2 {
		t.Errorf("degraded report counts %d faults, want 2", rep.FaultsInjected)
	}
	if rep.Retries != 1 || rep.RetriesByVertex[victim] != 1 {
		t.Errorf("degraded report retries = %d (%v), want 1 on vertex %d",
			rep.Retries, rep.RetriesByVertex, victim)
	}
	if rep.NetBytes == 0 || rep.Messages == 0 || len(rep.Exchanges) == 0 {
		t.Errorf("degraded report zeroed its exchange meters: bytes=%d msgs=%d exchanges=%d",
			rep.NetBytes, rep.Messages, len(rep.Exchanges))
	}
	if rep.PeakBytes == 0 {
		t.Error("degraded report zeroed its peak-memory meter")
	}
}

// TestDistRunPopulatesDefaultRegistry: a dist run's meters merge into
// the process-wide registry when its report is built.
func TestDistRunPopulatesDefaultRegistry(t *testing.T) {
	plan, inputs, want := faultGolden(t)
	cl := costmodel.LocalTest(3)
	before := Metrics().Counter("dist.exchange.bytes",
		L("vertex", "?"), L("kind", "?"), L("label", "?")) // distinct identity; just forces registry init
	_ = before
	exec := NewExecutor(cl, WithEngineKind(DistEngine), WithShards(2))
	got, err := exec.Run(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "registry dist", got, want)
	rep := exec.DistReport()
	var total int64
	for _, m := range Metrics().Snapshot() {
		if m.Name == "dist.exchange.bytes" {
			total += m.Value
		}
	}
	if total < rep.NetBytes || rep.NetBytes == 0 {
		t.Errorf("default registry has %d exchange bytes, report says %d", total, rep.NetBytes)
	}
}
