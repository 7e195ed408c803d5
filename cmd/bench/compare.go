package main

import (
	"fmt"
	"io"

	"matopt/internal/benchkit"
)

// minSpreadRuns is the fewest runs per side from which a run-to-run
// spread (an interquartile range) is taken; with fewer the spread is
// unknown and the verdict rests on the medians alone.
const minSpreadRuns = 4

// compareFiles prints one row per workload × end-to-end metric for two
// record files of the same benchmark — parent first, change second —
// and returns an error when any row's verdict is "worse".
//
// A row gives both medians over the file's end-to-end runs, their ratio
// with its base, the metric's bound and the larger of the two sides'
// run-to-run spreads (interquartile range over median, by the contract's
// quartile rule). The verdict is "unresolved" when that spread exceeds
// the bound — the runs cannot tell a change of that size from noise —
// unless every run of the change reads better than every run of the
// parent; otherwise "worse" when the change's median is worse than the
// parent's by more than the bound of the parent's median; otherwise
// "ok".
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := benchkit.ReadSet(parentPath)
	if err != nil {
		return err
	}
	change, err := benchkit.ReadSet(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-10s %12s %12s %22s %6s %8s  %s\n",
		"workload", "metric", "parent", "change", "ratio", "bound", "spread", "verdict")
	worse := 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			a, b := values(parent, wl.name, d.name), values(change, wl.name, d.name)
			if len(a) == 0 || len(b) == 0 {
				return fmt.Errorf("%s %s: %d runs in %s, %d in %s; both need at least one",
					wl.name, d.name, len(a), parentPath, len(b), changePath)
			}
			v := judge(d, a, b)
			spread := "n/a"
			if v.spread >= 0 {
				spread = fmt.Sprintf("%.1f%%", 100*v.spread)
			}
			fmt.Fprintf(w, "%-15s %-10s %12.6g %12.6g %22s %5.0f%% %8s  %s\n", wl.name, d.name,
				v.parent, v.change, fmt.Sprintf("%.3f (change/parent)", v.change/v.parent), 100*d.bound, spread, v.verdict)
			if v.verdict == "worse" {
				worse++
			}
		}
	}
	reportCounts(w, parent, change)
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the parent by more than their bound", worse)
	}
	return nil
}

// reportCounts lists every exact count that reads differently in the
// two files' traced runs of one workload and seed. Between two runs of
// one commit that is a defect of the count; between two commits it is
// the evidence a count-based claim rests on — the plan, the search or
// the traffic changed.
func reportCounts(w io.Writer, parent, change *benchkit.Set) {
	for _, a := range parent.Records {
		for _, b := range change.Records {
			if !a.Traced || !b.Traced || a.Workload != b.Workload || a.Seed != b.Seed {
				continue
			}
			for _, d := range perLayer {
				if av, bv := a.Metrics[d.name].Value, b.Metrics[d.name].Value; d.exact && av != bv {
					fmt.Fprintf(w, "count changed: %s seed %d %s: %v -> %v %s\n", a.Workload, a.Seed, d.name, av, bv, d.unit)
				}
			}
		}
	}
}

// values collects one end-to-end metric of one workload over a file's
// untraced runs.
func values(set *benchkit.Set, workload, metric string) []float64 {
	var xs []float64
	for _, r := range set.Records {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// verdict is one row of a comparison.
type verdict struct {
	parent, change float64 // medians
	spread         float64 // larger side's IQR/median; −1 when unknown
	verdict        string  // ok | worse | unresolved
}

func judge(d metricDef, parent, change []float64) verdict {
	v := verdict{parent: benchkit.Median(parent), change: benchkit.Median(change), spread: -1, verdict: "ok"}
	if len(parent) >= minSpreadRuns && len(change) >= minSpreadRuns {
		v.spread = max(benchkit.IQRFrac(parent), benchkit.IQRFrac(change))
	}
	better := func(x, than float64) bool {
		if d.higher {
			return x > than
		}
		return x < than
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	worseBy := (v.change - v.parent) / v.parent
	if d.higher {
		worseBy = -worseBy
	}
	switch {
	case v.spread > d.bound && !allBetter:
		v.verdict = "unresolved"
	case worseBy > d.bound:
		v.verdict = "worse"
	}
	return v
}
