package benchkit

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Median(xs); got != 3 {
		t.Errorf("Median = %v, want 3", got)
	}
	if got := Quantile(xs, 0.9); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("Quantile(0.9) = %v, want 4.6", got)
	}
	if got := Median([]float64{1, 2}); got != 1.5 {
		t.Errorf("Median of two = %v, want 1.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v, want 0", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 3, 2, 4}) {
		t.Errorf("Quantile reordered its input: %v", xs)
	}
}

// The expected cut points are what Python prints for
// statistics.quantiles(range(1, 11), n=4) and for the four-value case.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q2, q3 := Quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("Quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = Quartiles([]float64{10, 40, 20, 30})
	if q1 != 12.5 || q2 != 25 || q3 != 37.5 {
		t.Errorf("Quartiles(10..40) = %v %v %v, want 12.5 25 37.5", q1, q2, q3)
	}
	if got := IQRFrac([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("IQRFrac(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// The rule: the highest percentile with at least ten samples beyond it.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{30, 0, false}, {99, 0, false}, {100, 0.90, true}, {199, 0.90, true},
		{200, 0.95, true}, {999, 0.95, true}, {1000, 0.99, true},
		{9999, 0.99, true}, {10000, 0.999, true},
	} {
		p, ok := TailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

// spanAt builds an ended span with offsets in milliseconds.
func spanAt(id, parent SpanID, name string, startMS, endMS int) Span {
	return Span{ID: id, Parent: parent, Op: 1, Name: name,
		Start: time.Duration(startMS) * time.Millisecond, End: time.Duration(endMS) * time.Millisecond}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	spans := []Span{
		spanAt(1, 0, "op", 0, 100),
		spanAt(2, 1, "optimize", 0, 10),
		spanAt(3, 1, "run", 10, 90),
		spanAt(4, 3, "vertex", 20, 60), // two overlapping children of run:
		spanAt(5, 3, "vertex", 40, 80), // their union covers 20..80
		spanAt(6, 1, "hash", 95, 120),  // runs past its parent: clipped
		{ID: 7, Parent: 1, Op: 1, Name: "open", Start: 5 * time.Millisecond, End: -1},
	}
	self := SelfTimes(spans)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for name, want := range map[string]float64{
		"op": 5, "optimize": 10, "run": 20, "vertex": 80, "hash": 25,
	} {
		if got := ms(self[name]); got != want {
			t.Errorf("self time of %s = %v ms, want %v", name, got, want)
		}
	}
	if _, ok := self["open"]; ok {
		t.Errorf("an unfinished span was given a self time")
	}
	if got := Coverage(spans, "op"); got != 0.95 {
		t.Errorf("Coverage(op) = %v, want 0.95", got)
	}
	if got := Coverage(spans, "run"); got != 0.75 {
		t.Errorf("Coverage(run) = %v, want 0.75", got)
	}
	if got := Coverage(spans, "absent"); got != 0 {
		t.Errorf("Coverage(absent) = %v, want 0", got)
	}
}

func TestRecorderAndNilRecorder(t *testing.T) {
	var off *Recorder
	id := off.Start(0, 1, "op")
	off.SetAttr(id, "k", 1)
	off.End(id)
	off.Add(0, 1, "x", time.Now(), time.Now())
	if id != 0 || off.Spans() != nil {
		t.Fatalf("a nil Recorder recorded something")
	}

	r := NewRecorder()
	root := r.Start(0, 7, "op")
	kid := r.Start(root, 7, "run")
	r.SetAttr(kid, "elapsed_ms", 1.5)
	r.End(kid)
	first := r.Spans()[kid-1].End
	r.End(kid) // a second End keeps the first end time
	t0 := time.Now()
	r.Add(kid, 7, "execute", t0, t0.Add(time.Millisecond))
	r.End(root)
	spans := r.Spans()
	if len(spans) != 3 || spans[1].Parent != root || spans[2].Parent != kid || spans[1].Op != 7 {
		t.Fatalf("unexpected spans: %+v", spans)
	}
	if spans[1].End != first || spans[1].Attrs["elapsed_ms"] != 1.5 {
		t.Errorf("span 2 = %+v", spans[1])
	}
	if d := spans[2].Duration(); d != time.Millisecond {
		t.Errorf("imported span lasts %v, want 1ms", d)
	}

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, append(spans, Span{ID: 9, Name: "open", End: -1})); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			TID  int
			Args map[string]float64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 || doc.TraceEvents[1].Ph != "X" || doc.TraceEvents[1].TID != 7 ||
		doc.TraceEvents[1].Args["elapsed_ms"] != 1.5 {
		t.Errorf("unexpected trace events: %+v", doc.TraceEvents)
	}
}

func TestRecordRoundTripAndContractLine(t *testing.T) {
	env := Env{Commit: "abc", GoVersion: "go1.22", CPUModel: "cpu", NumCPU: 2, GOMAXPROCS: 2, LoadAvg1: 0.25, Start: "2026-01-01T00:00:00Z"}
	rec := NewRecord("chain_seq", 2, 20, false, env)
	rec.Attempted, rec.Failed, rec.Correct = 30, 0, true
	rec.Put("op_p50_s", 0.35120394, "s")
	rec.Put("setup_s", 0.41, "s")
	rec.Put("engine.flops", 2503751250, "count")

	path := filepath.Join(t.TempDir(), "set.json")
	if err := WriteSet(path, []Record{*rec}); err != nil {
		t.Fatal(err)
	}
	set, err := ReadSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Records) != 1 || !reflect.DeepEqual(set.Records[0], *rec) {
		t.Errorf("round trip changed the record:\n got %+v\nwant %+v", set.Records[0], *rec)
	}
	line, err := rec.ContractLine([]string{"op_p50_s", "setup_s"})
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("contract line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var metrics map[string]Metric
	if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 2 || metrics["op_p50_s"] != (Metric{0.35120394, "s"}) {
		t.Errorf("contract metrics = %v", metrics)
	}
	if bytes.ContainsRune(line, '\n') {
		t.Errorf("contract line spans lines: %q", line)
	}
	if _, err := rec.ContractLine([]string{"ops_per_s"}); err == nil {
		t.Errorf("a missing metric was not reported")
	}

	bad := filepath.Join(t.TempDir(), "bad.json")
	data, _ := json.Marshal(Set{Schema: SchemaVersion + 1})
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSet(bad); err == nil {
		t.Errorf("a set of another schema version was accepted")
	}
}

func TestMachineProbesReturnRates(t *testing.T) {
	if g := PeakGFLOPS(2, 5*time.Millisecond); g <= 0 || math.IsInf(g, 0) || math.IsNaN(g) {
		t.Errorf("PeakGFLOPS = %v", g)
	}
	if g := TriadGBs(1<<16, 2, time.Millisecond); g <= 0 || math.IsInf(g, 0) || math.IsNaN(g) {
		t.Errorf("TriadGBs = %v", g)
	}
}

// The reference kernel does the work it is timed for: every thread's
// product is a·b, checked on one entry against the sum written out.
func TestRefKernelMultiplies(t *testing.T) {
	r := NewRef(2)
	if s := r.Seconds(); s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		t.Fatalf("Seconds = %v", s)
	}
	for th, m := range r.mats {
		a, b, c := m[0], m[1], m[2]
		const i, j = 3, 5
		var want float64
		for k := 0; k < refN; k++ {
			want += a[i*refN+k] * b[k*refN+j]
		}
		if got := c[i*refN+j]; got != want {
			t.Errorf("thread %d: product[%d][%d] = %v, want %v", th, i, j, got, want)
		}
	}
}
