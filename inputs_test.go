package matopt

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
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
	for _, spec := range []workload.Spec{
		{Workload: "chain", Scale: 400},
		{Workload: "ffnn3", Scale: 2000},
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
		for name, opts := range map[string][]ExecutorOption{
			"seq":       nil,
			"dist chan": {WithEngineKind(DistEngine), WithShards(2)},
			"dist tcp":  {WithEngineKind(DistEngine), WithShards(2), WithPeers(LocalPeer, worker)},
		} {
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
	}
}
