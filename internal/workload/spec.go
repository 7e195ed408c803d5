package workload

import (
	"fmt"
	"math/rand"

	"matopt/internal/core"
	"matopt/internal/shape"
	"matopt/internal/tensor"
)

// Spec names a computation to optimize or execute: one of the built-in
// workload generators plus its parameters. It is the one catalogue every
// driver reads — the /optimize, /execute and /plan bodies embed it (the
// JSON tags are the wire format), the matopt CLI fills it from its
// flags, and the dist/faults figures list their rows with it. Every
// field with a zero value takes the documented default, so the minimal
// useful request body is {"workload":"chain"}. The same (normalized)
// spec always produces the same graph and — because input generation is
// seeded and ordered — bit-identical input matrices, which is what lets
// the load tests compare service responses against direct Executor runs,
// lets the coalescing layer treat equal specs as one computation, and
// lets the serving layer draw a spec's inputs once and hand the same
// matrices to every request that names it.
type Spec struct {
	// Workload selects the generator: chain | ffnn | ffnn3 | inverse.
	Workload string `json:"workload"`
	// SizeSet picks the matmul chain's size combination (1-3; chain
	// only; default 1).
	SizeSet int `json:"sizeset,omitempty"`
	// Hidden is the FFNN hidden-layer width (ffnn/ffnn3 only; default
	// 80000, the paper's largest).
	Hidden int64 `json:"hidden,omitempty"`
	// Scale divides every workload dimension before real execution so
	// requests fit in one process (default 100).
	Scale int64 `json:"scale,omitempty"`
	// Seed drives the deterministic random input generator (default 1).
	Seed int64 `json:"seed,omitempty"`
}

// Normalized returns the spec with defaults filled in; responses echo
// it so a caller sees the computation actually served.
func (s Spec) Normalized() Spec {
	if s.Workload == "" {
		s.Workload = "chain"
	}
	if s.SizeSet == 0 {
		s.SizeSet = 1
	}
	if s.Hidden == 0 {
		s.Hidden = 80000
	}
	if s.Scale == 0 {
		s.Scale = 100
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// Validate rejects specs the generators cannot build.
func (s Spec) Validate() error {
	switch s.Workload {
	case "chain", "ffnn", "ffnn3", "inverse":
	default:
		return fmt.Errorf("unknown workload %q (want chain, ffnn, ffnn3 or inverse)", s.Workload)
	}
	if sets := ChainSizeSets(); s.Workload == "chain" && (s.SizeSet < 1 || s.SizeSet > len(sets)) {
		return fmt.Errorf("sizeset must be in 1..%d, got %d", len(sets), s.SizeSet)
	}
	if s.Hidden < 1 {
		return fmt.Errorf("hidden must be positive, got %d", s.Hidden)
	}
	if s.Scale < 1 {
		return fmt.Errorf("scale must be positive, got %d", s.Scale)
	}
	if s.Seed < 0 {
		return fmt.Errorf("seed must be non-negative, got %d", s.Seed)
	}
	return nil
}

// Graph builds only the scaled compute graph — what optimizing or
// encoding a plan needs; no input matrices are generated.
func (s Spec) Graph() (*core.Graph, error) {
	g, _, err := s.materialize(false, false)
	return g, err
}

// Build materializes the spec: the scaled compute graph plus its seeded
// input matrices.
func (s Spec) Build() (*core.Graph, map[string]*tensor.Dense, error) {
	return s.materialize(false, true)
}

// PaperGraph builds the workload at the paper's published sizes, for
// optimization and simulation only: Scale and Seed play no part, and on
// top of the four executable workloads it knows the §2.1 "motivating"
// chain, whose 800 MB third input exists at paper scale alone.
func (s Spec) PaperGraph() (*core.Graph, error) {
	if s.Workload == "motivating" {
		return MotivatingChain()
	}
	g, _, err := s.materialize(true, false)
	return g, err
}

// materialize builds the graph — at the paper's sizes, or with every
// dimension divided by Scale — and, when asked, its seeded inputs.
// Inputs are drawn in a fixed order (never map iteration order), so one
// spec maps to exactly one byte sequence.
func (s Spec) materialize(paper, withInputs bool) (*core.Graph, map[string]*tensor.Dense, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	// Seeding is the costly part of a graph-only build, so the generator
	// is made where inputs are drawn.
	rng := func() *rand.Rand { return rand.New(rand.NewSource(s.Seed)) }
	switch s.Workload {
	case "ffnn", "ffnn3":
		cfg := PaperFFNN(s.Hidden)
		if !paper {
			cfg = ScaledFFNN(cfg, s.Scale)
		}
		gen := FFNNW2Update
		if s.Workload == "ffnn3" {
			gen = FFNNThreePass
		}
		g, err := gen(cfg)
		if err != nil || !withInputs {
			return g, nil, err
		}
		return g, FFNNInputs(rng(), cfg), nil
	case "chain":
		sz := ChainSizeSets()[s.SizeSet-1]
		if !paper {
			for _, sh := range []*shape.Shape{&sz.A, &sz.B, &sz.C, &sz.D, &sz.E, &sz.F} {
				*sh = shape.New(max(sh.Rows/s.Scale, 1), max(sh.Cols/s.Scale, 1))
			}
		}
		g, err := MatMulChain(sz)
		if err != nil || !withInputs {
			return g, nil, err
		}
		return g, ChainInputs(rng(), sz), nil
	default: // inverse
		cfg := PaperBlockInverse()
		if !paper {
			outer := max(cfg.Outer/s.Scale, 2)
			inner1 := max(outer*cfg.Inner1/cfg.Outer, 1)
			cfg.Outer, cfg.Inner1, cfg.Inner2 = outer, inner1, outer-inner1
		}
		g, err := BlockInverse2(cfg)
		if err != nil || !withInputs {
			return g, nil, err
		}
		inputs, _ := BlockInverseInputs(rng(), cfg)
		return g, inputs, nil
	}
}
