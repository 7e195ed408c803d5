package serve

import (
	"container/list"
	"sync"

	"matopt"
	"matopt/internal/obs"
	"matopt/internal/tensor"
)

// inputBudget is how many bytes of materialized inputs a Server keeps.
const inputBudget = 64 << 20

// inputCache is a thread-safe, byte-budgeted LRU of materialized input
// matrices keyed by normalized Spec. It is sound because of two
// contracts: a normalized spec always draws bit-identical inputs
// (workload.Spec), and no engine ever writes a matrix it was handed
// (matopt.Executor.Run) — so the matrices of one entry are shared,
// unsynchronized, by every request that names the spec. An entry larger
// than a quarter of the budget is not kept: it would evict most of the
// working set to save one draw.
type inputCache struct {
	mu     sync.Mutex
	budget int64
	bytes  int64
	held   *obs.Gauge // bytes, as serve.inputs.bytes
	order  *list.List // front = most recently used
	items  map[Spec]*list.Element
}

type inputEntry struct {
	spec   Spec
	inputs map[string]*tensor.Dense
	bytes  int64
}

func newInputCache(budget int64, held *obs.Gauge) *inputCache {
	return &inputCache{budget: budget, held: held, order: list.New(), items: make(map[Spec]*list.Element)}
}

func (c *inputCache) get(spec Spec) (map[string]*tensor.Dense, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[spec]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*inputEntry).inputs, true
}

// put keeps inputs under spec, evicting least-recently-used entries down
// to the budget. It reports false, keeping nothing, for an entry over a
// quarter of the budget.
func (c *inputCache) put(spec Spec, inputs map[string]*tensor.Dense) (kept bool) {
	var size int64
	for _, m := range inputs {
		size += m.Bytes()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget/4 {
		return false
	}
	if _, ok := c.items[spec]; ok {
		// A concurrent request drew the same spec first; its matrices
		// hold the same bits.
		return true
	}
	c.items[spec] = c.order.PushFront(&inputEntry{spec: spec, inputs: inputs, bytes: size})
	c.bytes += size
	for c.bytes > c.budget {
		oldest := c.order.Remove(c.order.Back()).(*inputEntry)
		delete(c.items, oldest.spec)
		c.bytes -= oldest.bytes
	}
	c.held.Set(c.bytes)
	return true
}

// materialize returns the normalized spec's graph and input matrices,
// the latter from the input cache when the spec was drawn before. The
// matrices are shared: callers must not write them.
func (s *Server) materialize(spec Spec) (*matopt.Builder, map[string]*tensor.Dense, error) {
	if inputs, ok := s.inputs.get(spec); ok {
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
