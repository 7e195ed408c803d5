package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/workload"
)

func init() {
	core.InverseColdGraph = benchInverse
	core.GoldenGraphs = func(t *testing.T) []core.GoldenGraph {
		var gs []core.GoldenGraph
		for _, tc := range goldenCases(t) {
			env := core.NewEnv(tc.cluster, format.All())
			env.MaxClassEntries = tc.beam
			gs = append(gs, core.GoldenGraph{Name: tc.name, G: tc.g, Env: env})
		}
		return gs
	}
}

// benchInverse is the graph of the benchmark's inverse_cold workload
// (cmd/bench/lib.go, inverseGraph(80)): Figure 9's two-level block
// inverse with the paper's 10K/2K/8K split divided by 80. The benchmark
// optimizes it under costmodel.LocalTest(2) over every format.
func benchInverse(t testing.TB) *core.Graph {
	t.Helper()
	g, err := workload.Spec{Workload: "inverse", Scale: 80}.Normalized().Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// planHashes pins what Frontier returns — the plan listing, the bits of
// its cost and the number of beam-cut entries — for every seed workload
// (under its beam), the benchmark's block inverse and a beam-cut FFNN
// backprop. They were recorded from the map[string]*fentry tables this
// package had before the flat class tables, so a table layout that
// changes a beam survivor, a tie-break or a rounding changes a hash.
var planHashes = map[string]string{
	"ffnn-w2":        "28449682317ba58540317f4f44c3e5970cc6198950fd15a1a98dae5d7aaa3f29",
	"ffnn-threepass": "376d2a19ff7432fa1ecd292bba4163cf1c1bdc089e95879ec6b754922baa180c",
	"motivating":     "13c2d8b463a453cfac7250f7a78db5ce200a9aa866ba9b60c9b5191187c8eef7",
	"chain-1":        "80bf8e4fd17da9e2e598c92a7c73491f734147a491635469e5d4f2f566ff8d02",
	"chain-2":        "695fb78016adb42531c3d8346fe83c42ec83bc003af571b4a26289c9555de948",
	"chain-3":        "f856bc85f0a99b42e7cf466c8a71a95b9629ad4ec4b1824c868fa87fdcbd692b",
	"block-inverse":  "5cf92455d73c27791e6aee845a2a456358d73c5d2cbf6683ed157890c69014d6",
	"scale-Tree":     "d27380562d6c0e93f28c9780a80d25a9b866c1f9ccc570990156914de8b6c4c9",
	"scale-DAG1":     "f6bdb2a273f5d0f12af9286207b4bd1ddfbd80417af0253cb9fa295a1c0d8c4e",
	"scale-DAG2":     "2f4c05551c2c08c2e37709d43bbdad595a151b567329f7c2db4cc9a6292af6d9",
	"bench-inverse":  "d499b092b603d8049b7b9abc2aa75404e3a45e5d7d62d44171d323fdfde4646b",
	"ffnn-backprop":  "a82e0922ca09c3057e031b68b2499eb353437879b1fd13d0ece754ed473af890",
}

// goldenCase is a graph planHashes records, with its cluster.
type goldenCase struct {
	seedCase
	cluster costmodel.Cluster
}

// goldenCases returns every case of planHashes, named as there.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	var cases []goldenCase
	for _, sc := range seedGraphs(t) {
		cases = append(cases, goldenCase{sc, costmodel.EC2R5D(10)})
	}
	cases = append(cases, goldenCase{seedCase{"bench-inverse", benchInverse(t), 0}, costmodel.LocalTest(2)})
	g, err := workload.FFNNBackprop(workload.PaperFFNN(40000))
	if err != nil {
		t.Fatal(err)
	}
	return append(cases, goldenCase{seedCase{"ffnn-backprop", g, 0}, costmodel.EC2R5D(10)})
}

// search runs Frontier on the case under ctx and returns the hash
// planHashes records of its plan.
func (tc goldenCase) search(ctx context.Context) (string, error) {
	env := core.NewEnv(tc.cluster, format.All())
	env.MaxClassEntries = tc.beam
	sess := core.NewSession(ctx, env)
	ann, err := sess.Frontier(tc.g)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s|%016x|%d", ann.Describe(), math.Float64bits(ann.Total()), sess.Stats().EntriesPruned)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestFrontierPlanIdentity is the plan-for-plan half of the determinism
// contract: Frontier reproduces the recorded hash of every case.
func TestFrontierPlanIdentity(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			want, ok := planHashes[tc.name]
			if !ok {
				t.Fatalf("no recorded hash for %q", tc.name)
			}
			got, err := tc.search(nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("plan changed: hash %s, recorded %s", got, want)
			}
		})
	}
}

// cancelAfter is a context whose Err turns to context.Canceled on its
// n-th call. Frontier polls Err once per round, once per pin tuple and
// every 16 cells its walk visits, so a search under it stops mid-round.
type cancelAfter struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

// TestSearchesShareScratch interleaves searches of different graphs so
// that each one borrows a scratch another left dirty — first one after
// another on one goroutine, then on four at once — and checks each still
// reproduces its recorded hash. A search cancelled in the middle of a
// round goes first in both halves, so its half-used scratch is the next
// search's. Under `make poison` every array taken from a scratch starts
// as junk, so a clear the search skips changes a hash.
func TestSearchesShareScratch(t *testing.T) {
	byName := map[string]goldenCase{}
	for _, tc := range goldenCases(t) {
		byName[tc.name] = tc
	}
	var mix []goldenCase
	for _, name := range []string{"bench-inverse", "chain-1", "ffnn-backprop", "chain-2", "bench-inverse", "chain-3"} {
		mix = append(mix, byName[name])
	}
	// Cancel the block inverse halfway through its polls.
	cancelled := func() error {
		count := &cancelAfter{Context: context.Background(), n: math.MaxInt64}
		if _, err := byName["bench-inverse"].search(count); err != nil {
			return err
		}
		ctx := &cancelAfter{Context: context.Background(), n: count.calls.Load() / 2}
		if _, err := byName["bench-inverse"].search(ctx); !errors.Is(err, context.Canceled) {
			return fmt.Errorf("search cancelled mid-round returned %v", err)
		}
		return nil
	}
	run := func(tc goldenCase) error {
		got, err := tc.search(nil)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		if want := planHashes[tc.name]; got != want {
			return fmt.Errorf("%s: hash %s, recorded %s", tc.name, got, want)
		}
		return nil
	}

	if err := cancelled(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range mix {
		if err := run(tc); err != nil {
			t.Error(err)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w == 0 {
				if err := cancelled(); err != nil {
					t.Error(err)
				}
			}
			for i := range mix {
				if err := run(mix[(w+i)%len(mix)]); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestFrontierAllocBudget guards the search's speed without reading a
// clock. A cold serial Frontier of the benchmark's block inverse, run
// after one that left its scratch on the free list, stays under 6,200
// heap allocations (it makes about 2,780 with the part tables — 2,965
// with a key per cell, 3,100 with the hashed round table; 15,100 before
// the scratch, 5.56 M before the flat class tables) and 2 MB (about
// 0.51 MB; 0.55 MB with a key per cell, 16.2 MB before the scratch).
func TestFrontierAllocBudget(t *testing.T) {
	g := benchInverse(t)
	env := core.NewEnv(costmodel.LocalTest(2), format.All())
	search := func() {
		if _, err := core.NewSession(nil, env).Frontier(g); err != nil {
			t.Fatal(err)
		}
	}
	search()

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	search()
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b > 2<<20 {
		t.Errorf("a second cold Frontier of the block inverse allocated %d bytes, budget 2 MiB", b)
	}

	if allocs := testing.AllocsPerRun(1, search); allocs > 6200 {
		t.Errorf("a second cold Frontier of the block inverse made %.0f allocations, budget 6200", allocs)
	}
}

// gate is a context that holds a search at its first poll until open is
// closed, so that several searches hold a scratch at once.
type gate struct {
	context.Context
	once    sync.Once
	arrived *sync.WaitGroup
	open    chan struct{}
}

func (g *gate) Err() error {
	g.once.Do(func() {
		g.arrived.Done()
		<-g.open
	})
	return nil
}

// TestScratchRetentionBound checks the free list's bounds: a search whose
// scratch outgrows MaxScratchBytes (the paper's block inverse under a
// 48,000-cell beam) does not leave it idle, and of more
// than MaxIdleScratches searches holding a scratch at once, only
// MaxIdleScratches leave theirs idle.
func TestScratchRetentionBound(t *testing.T) {
	g, err := workload.BlockInverse2(workload.PaperBlockInverse())
	if err != nil {
		t.Fatal(err)
	}
	big := goldenCase{seedCase{"block-inverse-48000", g, 48000}, costmodel.EC2R5D(10)}
	core.DropIdleScratches()
	if _, err := big.search(nil); err != nil {
		t.Fatal(err)
	}
	if idle := core.IdleScratchBytes(); len(idle) != 0 {
		t.Fatalf("after a search outgrowing the %d-byte bound the free list holds %v bytes; "+
			"if the search no longer outgrows the bound, raise its beam", core.MaxScratchBytes, idle)
	}

	small := goldenCase{seedCase{"bench-inverse", benchInverse(t), 0}, costmodel.LocalTest(2)}
	var arrived, done sync.WaitGroup
	open := make(chan struct{})
	for w := 0; w < core.MaxIdleScratches+2; w++ {
		arrived.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			ctx := &gate{Context: context.Background(), arrived: &arrived, open: open}
			if _, err := small.search(ctx); err != nil {
				t.Error(err)
			}
		}()
	}
	arrived.Wait()
	close(open)
	done.Wait()
	idle := core.IdleScratchBytes()
	if len(idle) != core.MaxIdleScratches {
		t.Errorf("after %d searches at once %d scratches are idle, want %d",
			core.MaxIdleScratches+2, len(idle), core.MaxIdleScratches)
	}
	for _, b := range idle {
		if b > core.MaxScratchBytes {
			t.Errorf("an idle scratch holds %d bytes, bound %d", b, core.MaxScratchBytes)
		}
	}
}
