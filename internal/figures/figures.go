// Package figures regenerates every table and figure of the paper's
// evaluation (§8). Each FigN function runs the optimizer and the
// baselines on the corresponding workload at the paper's scale and
// returns the same rows the paper reports — simulated seconds on the
// calibrated cluster profiles in place of EC2 wall-clock (see DESIGN.md
// for the substitution argument). cmd/experiments prints them;
// bench_test.go wraps each in a benchmark.
package figures

import (
	"context"
	"fmt"
	"strings"
	"time"

	"matopt/internal/baseline"
	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/engine"
	"matopt/internal/format"
	"matopt/internal/workload"
)

// Table is one reproduced figure/table.
type Table struct {
	Name   string
	Title  string
	Header []string
	Rows   [][]string
}

func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", t.Name, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// FmtDur renders seconds the way the paper's tables do: H:MM:SS for long
// runs, M:SS otherwise.
func FmtDur(sec float64) string {
	if sec < 0 {
		return "Fail"
	}
	s := int(sec + 0.5)
	h, m := s/3600, (s%3600)/60
	if h > 0 {
		return fmt.Sprintf("%d:%02d:%02d", h, m, s%60)
	}
	return fmt.Sprintf("%d:%02d", m, s%60)
}

// simulate returns the simulated seconds of an annotation, or −1 (Fail)
// when the plan is infeasible.
func simulate(ann *core.Annotation, err error, env *core.Env) float64 {
	if err != nil || ann == nil {
		return -1
	}
	rep, err := engine.Simulate(ann, env)
	if err != nil {
		return -1
	}
	return rep.Seconds
}

func simEnv(workers int) *core.Env {
	return core.NewEnv(costmodel.EC2R5D(workers), format.All())
}

// threeWay returns one row's Auto-gen / Hand-written / All-tile cells:
// the simulated time of the optimizer's plan, with the search time
// rendered by optTime in parentheses, then the two baselines'.
func threeWay(g *core.Graph, env *core.Env, optTime func(sec float64) string) []string {
	auto, errA := core.Optimize(g, env)
	hand, errH := baseline.HandWritten(g, env)
	tile, errT := baseline.AllTile(g, env)
	autoCell := FmtDur(simulate(auto, errA, env))
	if errA == nil {
		autoCell += fmt.Sprintf(" (%s)", optTime(auto.OptSeconds))
	}
	return []string{autoCell, FmtDur(simulate(hand, errH, env)), FmtDur(simulate(tile, errT, env))}
}

// seconds renders a sub-minute search time as the paper's tables do.
func seconds(sec float64) string { return fmt.Sprintf(":%02.0f", sec) }

// Fig1 reproduces the §2.1 motivating comparison: the tile-based
// implementation 1 against the collapse-and-broadcast implementation 2
// that the optimizer discovers automatically.
func Fig1() Table {
	env := simEnv(5)
	g, err := workload.MotivatingChain()
	if err != nil {
		panic(err)
	}
	impl1, err1 := baseline.AllTile(g, env)
	auto, err2 := core.Optimize(g, env)
	return Table{
		Name:   "Figure 1",
		Title:  "matA×matB×matC on 5 workers: tile plan vs broadcast plan",
		Header: []string{"Plan", "Total time"},
		Rows: [][]string{
			{"Implementation 1 (all-tile shuffle)", FmtDur(simulate(impl1, err1, env))},
			{"Implementation 2 (auto: single + broadcast)", FmtDur(simulate(auto, err2, env))},
		},
	}
}

// Fig4 prints the chain input sizes (an input table in the paper).
func Fig4() Table {
	t := Table{
		Name:   "Figure 4",
		Title:  "Size combinations for the matrix multiplication chain",
		Header: []string{"Input", "Size Set 1", "Size Set 2", "Size Set 3"},
	}
	sets := workload.ChainSizeSets()
	get := func(s workload.ChainSizes, i int) string {
		sh := []fmt.Stringer{s.A, s.B, s.C, s.D, s.E, s.F}[i]
		return sh.String()
	}
	for i, name := range []string{"A", "B", "C", "D", "E", "F"} {
		t.Rows = append(t.Rows, []string{name, get(sets[0], i), get(sets[1], i), get(sets[2], i)})
	}
	return t
}

// Fig5 reproduces the FFNN forward+backprop+forward comparison (hidden
// 80K, 10 workers, 57-vertex graph).
func Fig5() Table {
	env := simEnv(10)
	g, err := workload.FFNNThreePass(workload.PaperFFNN(80000))
	if err != nil {
		panic(err)
	}
	return Table{
		Name:   "Figure 5",
		Title:  "FFNN fwd+backprop+fwd, hidden 80K, 10 workers (opt time in parens)",
		Header: []string{"Auto-gen", "Hand-written", "All-tile"},
		Rows:   [][]string{threeWay(g, env, FmtDur)},
	}
}

// Fig6 reproduces the hidden-layer-size sweep of the W2-update task on
// 10 workers.
func Fig6() Table {
	t := Table{
		Name:   "Figure 6",
		Title:  "FFNN fwd + backprop to W2, 10 workers (opt time in parens)",
		Header: []string{"Dims", "Auto-gen", "Hand-written", "All-tile"},
	}
	env := simEnv(10)
	for _, hidden := range []int64{10000, 40000, 80000, 160000} {
		g, err := workload.FFNNW2Update(workload.PaperFFNN(hidden))
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, append([]string{fmt.Sprintf("%dK", hidden/1000)}, threeWay(g, env, seconds)...))
	}
	return t
}

// Fig7 reproduces the cluster-size sweep at hidden 160K.
func Fig7() Table {
	t := Table{
		Name:   "Figure 7",
		Title:  "FFNN fwd + backprop to W2, hidden 160K (opt time in parens)",
		Header: []string{"Num workers", "Auto-gen", "Hand-written", "All-tile"},
	}
	g, err := workload.FFNNW2Update(workload.PaperFFNN(160000))
	if err != nil {
		panic(err)
	}
	for _, workers := range []int{5, 10, 20, 25} {
		env := simEnv(workers)
		t.Rows = append(t.Rows, append([]string{fmt.Sprintf("%d", workers)}, threeWay(g, env, seconds)...))
	}
	return t
}

// Fig8 reproduces the expert-user study on the hidden-80K W2 update.
func Fig8() Table {
	env := simEnv(10)
	g, err := workload.FFNNW2Update(workload.PaperFFNN(80000))
	if err != nil {
		panic(err)
	}
	auto, errA := core.Optimize(g, env)
	row := []string{FmtDur(simulate(auto, errA, env))}
	header := []string{"Auto-gen"}
	for i, ex := range []baseline.Expertise{baseline.ExpertiseLow, baseline.ExpertiseMedium, baseline.ExpertiseHigh} {
		res, err := baseline.UserPlan(g, env, ex)
		cell := FmtDur(simulate(res.Annotation, err, env))
		if res.FirstCrashed {
			cell += "*"
		}
		header = append(header, fmt.Sprintf("User %d (dist-ML %s)", i+1, ex))
		row = append(row, cell)
	}
	return Table{
		Name:   "Figure 8",
		Title:  "FFNN fwd + backprop to W2, hidden 80K (*first attempt crashed, re-designed)",
		Header: header,
		Rows:   [][]string{row},
	}
}

// Fig9 reproduces the two-level block-wise inverse comparison.
func Fig9() Table {
	env := simEnv(10)
	g, err := workload.BlockInverse2(workload.PaperBlockInverse())
	if err != nil {
		panic(err)
	}
	return Table{
		Name:   "Figure 9",
		Title:  "Two-level block-wise matrix inverse, 10 workers (opt time in parens)",
		Header: []string{"Auto-gen", "Hand-written", "All-tile"},
		Rows:   [][]string{threeWay(g, env, seconds)},
	}
}

// Fig10 reproduces the matrix-multiplication chain over the three size
// sets of Figure 4.
func Fig10() Table {
	t := Table{
		Name:   "Figure 10",
		Title:  "Matrix multiplication chain, 10 workers (opt time in parens)",
		Header: []string{"Input size", "Auto-gen", "Hand-written", "All-tile"},
	}
	env := simEnv(10)
	for _, sz := range workload.ChainSizeSets() {
		g, err := workload.MatMulChain(sz)
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, append([]string{sz.Name}, threeWay(g, env, seconds)...))
	}
	return t
}

// Fig11 reproduces the 1K-batch AmazonCat comparison: the optimizer on
// the PlinyCompute-class profile (dense formats only) against the
// data-parallel TorchLike model and the SystemDS-style local optimizer.
func Fig11() Table {
	t := Table{
		Name:   "Figure 11",
		Title:  "FFNN fwd+backprop, AmazonCat dims, 1K batch, dense ops",
		Header: []string{"Workers", "Layer", "PC No Sparsity", "PyTorch", "SystemDS"},
	}
	for _, workers := range []int{2, 5, 10} {
		for _, hidden := range []int64{4000, 5000, 7000} {
			cfg := workload.AmazonCatConfig(1000, hidden, false)
			g, err := workload.FFNNBackprop(cfg)
			if err != nil {
				panic(err)
			}
			env := core.NewEnv(costmodel.EC2R5DN(workers), format.DenseOnly())
			auto, errA := core.Optimize(g, env)
			torch := baseline.TorchLike(cfg, env.Cluster)
			torchCell := "Fail"
			if !torch.Failed {
				torchCell = FmtDur(torch.Seconds)
			}
			ds, errD := baseline.SystemDSLike(g, env)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", workers),
				fmt.Sprintf("%d", hidden),
				FmtDur(simulate(auto, errA, env)),
				torchCell,
				FmtDur(simulate(ds, errD, env)),
			})
		}
	}
	return t
}

// Fig12 reproduces the 10K-batch AmazonCat comparison with the three
// PlinyCompute configurations: sparsity disabled, sparse input, and
// dense input with sparse formats allowed.
func Fig12() Table {
	t := Table{
		Name:  "Figure 12",
		Title: "FFNN fwd+backprop, AmazonCat dims, 10K batch",
		Header: []string{"Workers", "Layer", "PC No Sparsity", "PC Sparse In",
			"PC Dense In", "PyTorch", "SystemDS"},
	}
	for _, workers := range []int{2, 5, 10} {
		for _, hidden := range []int64{4000, 5000, 7000} {
			dense := workload.AmazonCatConfig(10000, hidden, false)
			sparse := workload.AmazonCatConfig(10000, hidden, true)
			gDense, err := workload.FFNNBackprop(dense)
			if err != nil {
				panic(err)
			}
			gSparse, err := workload.FFNNBackprop(sparse)
			if err != nil {
				panic(err)
			}
			noSp := core.NewEnv(costmodel.EC2R5DN(workers), format.DenseOnly())
			full := core.NewEnv(costmodel.EC2R5DN(workers), format.All())

			aNo, eNo := core.Optimize(gDense, noSp)
			aSp, eSp := core.Optimize(gSparse, full)
			aDn, eDn := core.Optimize(gDense, full)
			torch := baseline.TorchLike(dense, full.Cluster)
			torchCell := "Fail"
			if !torch.Failed {
				torchCell = FmtDur(torch.Seconds)
			}
			ds, errD := baseline.SystemDSLike(gSparse, full)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", workers),
				fmt.Sprintf("%d", hidden),
				FmtDur(simulate(aNo, eNo, noSp)),
				FmtDur(simulate(aSp, eSp, full)),
				FmtDur(simulate(aDn, eDn, full)),
				torchCell,
				FmtDur(simulate(ds, errD, full)),
			})
		}
	}
	return t
}

// Fig13 reproduces the optimizer-runtime study: the DP algorithms
// against the brute force on the Tree/DAG1/DAG2 families at scales 1–4
// under the three format universes. budget bounds each brute-force run
// (the paper used 30 minutes; benchmarks use less).
func Fig13(budget time.Duration) Table {
	t := Table{
		Name:  "Figure 13",
		Title: fmt.Sprintf("Optimization times (brute budget %s)", budget),
		Header: []string{"Formats", "Scale", "DP DAG2", "Brute DAG2",
			"DP DAG1", "Brute DAG1", "DP Tree", "Brute Tree"},
	}
	universes := []struct {
		name string
		fs   []format.Format
	}{
		{"All (19)", format.All()},
		{"Single/Strip/Block (16)", format.SingleStripBlock()},
		{"Single/Block (10)", format.SingleBlock()},
	}
	for _, u := range universes {
		for scale := 1; scale <= 4; scale++ {
			row := []string{u.name, fmt.Sprintf("%d", scale)}
			for _, kind := range []workload.ScaleKind{workload.ScaleDAG2, workload.ScaleDAG1, workload.ScaleTree} {
				g, err := workload.ScaleGraph(kind, scale)
				if err != nil {
					panic(err)
				}
				env := core.NewEnv(costmodel.EC2R5D(10), u.fs)
				dp := core.Frontier // Algorithm 4
				if kind == workload.ScaleTree {
					dp = core.TreeDP // the "DP Tree" column times Algorithm 3, by name
				}
				dpStart := time.Now()
				if _, err := dp(g, env); err != nil {
					row = append(row, "err")
				} else {
					row = append(row, FmtDur(time.Since(dpStart).Seconds()))
				}
				bruteStart := time.Now()
				if _, err := core.Brute(g, env, budget); err != nil {
					row = append(row, "Fail")
				} else {
					row = append(row, FmtDur(time.Since(bruteStart).Seconds()))
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// AllCtx regenerates every figure, checking ctx between figures; on
// cancellation it returns the tables completed so far together with the
// context's error.
func AllCtx(ctx context.Context, bruteBudget time.Duration) ([]Table, error) {
	gens := []func() Table{
		Fig1, Fig4, Fig5, Fig6, Fig7, Fig8, Fig9, Fig10,
		Fig11, Fig12, func() Table { return Fig13(bruteBudget) },
	}
	var tables []Table
	for _, gen := range gens {
		if err := ctx.Err(); err != nil {
			return tables, err
		}
		tables = append(tables, gen())
	}
	return tables, nil
}
