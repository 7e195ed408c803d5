package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"matopt/internal/benchkit"
)

var update = flag.Bool("update", false, "rewrite ../../BENCHMARK.json from the metric and workload tables")

// TestSmoke is the whole harness at toy size: every workload, both
// runs, every probe, the oracle and the span arithmetic — without
// measuring anything worth reading.
func TestSmoke(t *testing.T) {
	if err := runSmoke(); err != nil {
		t.Fatal(err)
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestRow    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestRow struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// wantManifest is BENCHMARK.json as the tables in this package define it.
func wantManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "cmd/bench/run.sh"},
		Paths:      []string{"cmd/bench", "internal/benchkit"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestRow{w.name, w.why})
	}
	metric := func(d metricDef, bounded bool) manifestMetric {
		mm := manifestMetric{Name: d.name, Unit: d.unit, Better: "lower"}
		if d.higher {
			mm.Better = "higher"
		}
		if bounded {
			b := d.bound
			mm.Bound = &b
		}
		return mm
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, metric(d, true))
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, metric(d, false))
	}
	return m
}

// TestBenchmarkJSONMatchesTables keeps the contract file and the code
// that answers to it from drifting apart, and holds both to the
// contract's limits. `go test -run BenchmarkJSON -update` rewrites the
// file from the tables.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	path := filepath.Join("..", "..", "BENCHMARK.json")
	want, err := json.MarshalIndent(wantManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go and workload.go; run `go test -run BenchmarkJSON -update`")
	}

	m := wantManifest()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 || len(want) > 64<<10 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics in %d bytes exceed the contract's limits",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer), len(want))
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, mm := range append(append([]manifestMetric{}, m.EndToEnd...), m.PerLayer...) {
		name(mm.Name)
		if !unitRE.MatchString(mm.Unit) {
			t.Errorf("unit %q of %s is malformed", mm.Unit, mm.Name)
		}
		if mm.Bound != nil && (*mm.Bound <= 0 || *mm.Bound > 0.25) {
			t.Errorf("bound %v of %s is outside (0, 0.25]", *mm.Bound, mm.Name)
		}
		setup = setup || (mm.Name == "setup_s" && mm.Unit == "s" && mm.Better == "lower" && mm.Bound != nil)
	}
	if !setup {
		t.Errorf("end_to_end lacks setup_s in s, lower is better")
	}
}

// set builds a record file of end-to-end runs: per workload, one record
// per value of op_p50_s, with the other metrics held constant.
func set(t *testing.T, name string, opP50 map[string][]float64, recs ...benchkit.Record) string {
	t.Helper()
	for _, w := range workloads {
		for i, v := range opP50[w.name] {
			r := benchkit.NewRecord(w.name, int64(i+1), 1, false, benchkit.Env{})
			r.Put("setup_s", 1, "s")
			r.Put("op_p50_s", v, "s")
			r.Put("ops_per_s", 10, "1/s")
			recs = append(recs, *r)
		}
	}
	path := filepath.Join(t.TempDir(), name)
	if err := benchkit.WriteSet(path, recs); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	steady := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	parent := set(t, "parent.json", map[string][]float64{
		"chain_seq": steady, "chain_dist_tcp": steady, "inverse_cold": {1, 1.35, 0.65, 1.1, 0.9}, "served_mix": {1},
	})
	change := set(t, "change.json", map[string][]float64{
		"chain_seq":      {1.10, 1.11, 1.09, 1.10, 1.12}, // 10 % slower: inside the 25 % bound
		"chain_dist_tcp": {1.40, 1.41, 1.39, 1.40, 1.42}, // 40 % slower: worse
		"inverse_cold":   {1.5, 1.2, 1.6, 1.4, 1.3},      // slower, but the parent's spread is 45 %: unresolved
		"served_mix":     {1.20},                         // one run a side: spread unknown, medians decide
	})
	var out bytes.Buffer
	err := compareFiles(&out, parent, change)
	if err == nil {
		t.Errorf("a 40 %% regression did not fail the comparison")
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 2 {
			rows[f[0]+" "+f[1]] = f[len(f)-1]
		}
	}
	for row, want := range map[string]string{
		"chain_seq op_p50_s": "ok", "chain_dist_tcp op_p50_s": "worse", "inverse_cold op_p50_s": "unresolved",
		"served_mix op_p50_s": "ok", "chain_dist_tcp setup_s": "ok", "inverse_cold ops_per_s": "ok",
	} {
		if rows[row] != want {
			t.Errorf("verdict of %s = %q, want %q\n%s", row, rows[row], want, out.String())
		}
	}
	if !strings.Contains(out.String(), "(change/parent)") {
		t.Errorf("ratios are printed without their base:\n%s", out.String())
	}

	// A wide spread does not hide a change whose every run beats every
	// run of the parent.
	d := endToEnd[1]
	if v := judge(d, []float64{10, 14, 7, 11, 9}, []float64{5, 6, 4, 5, 6.5}); v.verdict != "ok" {
		t.Errorf("every run better, verdict %q, want ok", v.verdict)
	}
	// ops_per_s is better when higher: a 40 % drop is worse.
	if v := judge(endToEnd[2], steady, []float64{0.6, 0.61, 0.59, 0.6, 0.6}); v.verdict != "worse" {
		t.Errorf("a 40 %% throughput drop has verdict %q, want worse", v.verdict)
	}

	if err := compareFiles(&out, parent, set(t, "partial.json", map[string][]float64{"chain_seq": steady})); err == nil {
		t.Errorf("a file lacking three workloads was compared")
	}
}

// An exact count that differs between the traced runs of one workload
// and seed is reported; a timing that differs is not.
func TestCompareReportsChangedCounts(t *testing.T) {
	one := map[string][]float64{"chain_seq": {1}, "chain_dist_tcp": {1}, "inverse_cold": {1}, "served_mix": {1}}
	traced := func(seed int64, candidates, optimizeS float64) benchkit.Record {
		r := benchkit.NewRecord("inverse_cold", seed, 1, true, benchkit.Env{})
		r.Put("core.candidates_evaluated", candidates, "count")
		r.Put("core.optimize_s", optimizeS, "s")
		return *r
	}
	var out bytes.Buffer
	err := compareFiles(&out, set(t, "a.json", one, traced(1, 18539, 0.5), traced(2, 18539, 0.5)),
		set(t, "b.json", one, traced(1, 17000, 0.3), traced(2, 18539, 0.3)))
	if err != nil {
		t.Fatal(err)
	}
	want := "count changed: inverse_cold seed 1 core.candidates_evaluated: 18539 -> 17000 count"
	if got := out.String(); !strings.Contains(got, want) || strings.Count(got, "count changed") != 1 {
		t.Errorf("want exactly the line %q in:\n%s", want, got)
	}
}
