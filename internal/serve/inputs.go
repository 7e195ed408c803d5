package serve

import (
	"sync"

	"matopt"
	"matopt/internal/lru"
	"matopt/internal/obs"
	"matopt/internal/tensor"
)

// inputBudget is how many bytes of materialized inputs a Server keeps.
const inputBudget = 64 << 20

// inputCache is a byte-budgeted LRU of materialized input matrices keyed
// by normalized Spec. It is sound because of two contracts: a normalized
// spec always draws bit-identical inputs (workload.Spec), and no engine
// ever writes a matrix it was handed (matopt.Executor.Run) — so the
// matrices of one entry are shared, unsynchronized, by every request
// that names the spec. An entry larger than a quarter of the budget is
// not kept: it would evict most of the working set to save one draw.
type inputCache struct {
	*lru.Cache[Spec, map[string]*tensor.Dense]
	budget int64
	mu     sync.Mutex // orders puts, so held ends at the last total
	held   *obs.Gauge // bytes, as serve.inputs.bytes
}

func newInputCache(budget int64, held *obs.Gauge) *inputCache {
	return &inputCache{Cache: lru.New[Spec](budget, inputBytes), budget: budget, held: held}
}

func inputBytes(inputs map[string]*tensor.Dense) int64 {
	var size int64
	for _, m := range inputs {
		size += m.Bytes()
	}
	return size
}

// put keeps inputs under spec, evicting least-recently-used entries down
// to the budget. It reports false, keeping nothing, for an entry over a
// quarter of the budget.
func (c *inputCache) put(spec Spec, inputs map[string]*tensor.Dense) (kept bool) {
	if inputBytes(inputs) > c.budget/4 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.held.Set(c.Put(spec, inputs))
	return true
}

// materialize returns the normalized spec's graph and input matrices,
// the latter from the input cache when the spec was drawn before. The
// matrices are shared: callers must not write them.
func (s *Server) materialize(spec Spec) (*matopt.Builder, map[string]*tensor.Dense, error) {
	if inputs, ok := s.inputs.Get(spec); ok {
		s.reg.Counter("serve.inputs", obs.L("result", "hit")).Inc()
		b, err := graphOf(spec)
		return b, inputs, err
	}
	g, inputs, err := spec.Build()
	if err != nil {
		return nil, nil, err
	}
	result := "miss"
	if !s.inputs.put(spec, inputs) {
		result = "bypass"
	}
	s.reg.Counter("serve.inputs", obs.L("result", result)).Inc()
	return matopt.NewBuilderFromGraph(g), inputs, nil
}
