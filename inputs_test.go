package matopt

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"matopt/internal/costmodel"
	"matopt/internal/tensor"
	"matopt/internal/workload"
)

// digestInputs hashes every input's shape and float bits, in name order.
func digestInputs(inputs map[string]*tensor.Dense) [sha256.Size]byte {
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	var word [8]byte
	for _, name := range names {
		m := inputs[name]
		h.Write([]byte(name))
		for _, v := range append([]float64{float64(m.Rows), float64(m.Cols)}, m.Data...) {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestEnginesLeaveInputsUntouched pins the contract Executor.Run states
// and the serving layer's input cache rests on: a run on any engine —
// sequential, dist over in-process channels, dist over a loopback TCP
// worker — leaves every input matrix bit for bit as it found it, and
// returns outputs that share no memory with them.
func TestEnginesLeaveInputsUntouched(t *testing.T) {
	cl := costmodel.LocalTest(2)
	worker := startPeerWorker(t)
	// Scales at which every workload has intermediates of at least 32
	// KiB, the shortest the sequential engine's free list recycles.
	for _, spec := range []workload.Spec{
		{Workload: "chain", Scale: 100},
		{Workload: "ffnn3", Scale: 500},
		{Workload: "inverse", Scale: 100},
	} {
		g, inputs, err := spec.Normalized().Build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewOptimizer(cl).Optimize(NewBuilderFromGraph(g))
		if err != nil {
			t.Fatal(err)
		}
		before := digestInputs(inputs)
		executors := map[string][]ExecutorOption{
			"seq":       nil,
			"dist chan": {WithEngineKind(DistEngine), WithShards(2)},
			"dist tcp":  {WithEngineKind(DistEngine), WithShards(2), WithPeers(LocalPeer, worker)},
		}
		for name, opts := range executors {
			outs, err := NewExecutor(cl, opts...).Run(p, inputs)
			if err != nil {
				t.Fatalf("%s on %s: %v", spec.Workload, name, err)
			}
			if digestInputs(inputs) != before {
				t.Fatalf("%s on %s: the run wrote to its inputs", spec.Workload, name)
			}
			// Scribbling over the outputs must not reach an input either.
			for _, out := range outs {
				for i := range out.Data {
					out.Data[i] = math.NaN()
				}
			}
			if digestInputs(inputs) != before {
				t.Fatalf("%s on %s: an output aliases an input", spec.Workload, name)
			}
		}
		for name, opts := range executors {
			checkRecycledStorageStaysInside(t, spec.Workload+" on "+name, cl, p, inputs, opts...)
		}
	}
}

// checkRecycledStorageStaysInside runs an executor — each runtime
// recycles what its plan or scheduler frees — warm and concurrently:
// outputs one run returned keep their bits while the same Executor runs
// twice more, and every run — three in a row, then five on each of four
// goroutines over the one shared input set — returns a fresh sequential
// run's bits. A sink released into the free list, or an output that
// shares storage with one, fails here.
func checkRecycledStorageStaysInside(t *testing.T, name string, cl Cluster, p *Plan, inputs map[string]*tensor.Dense, opts ...ExecutorOption) {
	t.Helper()
	seq, err := NewExecutor(cl).Run(p, inputs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := outputDigest(seq)
	x := NewExecutor(cl, opts...)
	first, err := x.Run(p, inputs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if outputDigest(first) != want {
		t.Fatalf("%s: run 1 returned other bits than the sequential engine", name)
	}
	for run := 2; run <= 3; run++ {
		outs, err := x.Run(p, inputs)
		if err != nil {
			t.Fatalf("%s run %d: %v", name, run, err)
		}
		if outputDigest(outs) != want {
			t.Fatalf("%s: warm run %d returned other bits than the sequential engine", name, run)
		}
		if outputDigest(first) != want {
			t.Fatalf("%s: warm run %d changed the outputs run 1 returned", name, run)
		}
	}
	const goroutines, runs = 4, 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := NewExecutor(cl, opts...)
			for run := 0; run < runs; run++ {
				outs, err := x.Run(p, inputs)
				if err == nil && outputDigest(outs) != want {
					err = fmt.Errorf("concurrent run %d returned other bits than the sequential engine", run)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("%s: %v", name, err)
	}
}
