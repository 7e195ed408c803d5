package main

import (
	"fmt"
	"strings"
	"time"

	"matopt"
	"matopt/internal/dist"
)

// execConfig is what the execution flags bind to: the shared run-time
// knobs of dist.Config (each flag is the field's JSON name with '_'
// spelled '-'; the field comment is its reference) plus the CLI's own.
type execConfig struct {
	dist.Config
	Engine   string // sim | seq | dist
	Scale    int64
	Trace    bool   // print the span tree after the run
	TraceOut string // write a Chrome trace_event file here ("" = off)
	Metrics  bool   // print the metrics registry after the run
	Explain  bool   // print the lowered physical plan with per-operator costs
	PlanOut  string // write the serialized physical plan here ("" = off)
	PlanIn   string // load a serialized physical plan instead of optimizing ("" = off)

	// What to compute: with Scale, the fields of a workload.Spec (the
	// seed is fixed).
	Workload string
	Hidden   int64
	SizeSet  int

	// How to optimize it: one matopt.Option each.
	Workers int           // cluster size
	Formats string        // all | ssb | sb
	Sparse  bool          // keep the sparse formats of "all"
	Alg     string        // auto | brute
	Budget  time.Duration // brute-force time budget

	Stats bool // print optimizer search statistics
	DOT   bool // emit the annotated graph in Graphviz format and stop
}

// tracing reports whether a tracer must be attached to the run: either
// output form (-trace tree, -trace-out file) needs the spans recorded.
func (c execConfig) tracing() bool { return c.Trace || c.TraceOut != "" }

// validate checks the CLI's own flags, then the shared knobs with the
// one validator every surface uses (it names a knob by its JSON name).
func (c execConfig) validate() error {
	if c.Scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %d", c.Scale)
	}
	switch c.Engine {
	case "sim", "seq", "dist":
	default:
		return fmt.Errorf("unknown engine %q (want sim, seq or dist)", c.Engine)
	}
	if c.PlanIn != "" && c.PlanOut != "" {
		return fmt.Errorf("-plan-in and -plan-out are mutually exclusive")
	}
	return c.Config.Validate(c.Engine == "dist")
}

// optimizerOptions translates -formats/-sparse and -alg/-brute-budget
// into the public API's options.
func (c execConfig) optimizerOptions() ([]matopt.Option, error) {
	formats, ok := map[string]matopt.FormatSet{
		"all": matopt.AllFormats, "ssb": matopt.SingleStripBlockFormats, "sb": matopt.SingleBlockFormats,
	}[c.Formats]
	if !ok {
		return nil, fmt.Errorf("unknown format set %q", c.Formats)
	}
	if formats == matopt.AllFormats && !c.Sparse {
		formats = matopt.DenseFormats // "all" minus the sparse layouts
	}
	alg, ok := map[string]matopt.Algorithm{"auto": matopt.Auto, "brute": matopt.BruteForce}[c.Alg]
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", c.Alg)
	}
	return []matopt.Option{matopt.WithFormats(formats), matopt.WithAlgorithm(alg),
		matopt.WithBudget(c.Budget)}, nil
}

// setPeers is the -peers flag's setter: a comma-separated list of
// worker addresses (empty = the in-process chan transport).
func (c *execConfig) setPeers(list string) error {
	c.Peers = nil
	if list == "" {
		return nil
	}
	for _, p := range strings.Split(list, ",") {
		c.Peers = append(c.Peers, strings.TrimSpace(p))
	}
	return nil
}
