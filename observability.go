package matopt

import (
	"matopt/internal/obs"
)

// Tracer collects spans for traced optimization and execution runs;
// create one with NewTracer and attach it with WithTracer (Optimizer)
// and WithTracing (Executor). A nil tracer is valid and disables
// tracing at zero cost. See DESIGN.md §11 for the span taxonomy.
type Tracer = obs.Tracer

// Trace is an immutable snapshot of a tracer's spans with exporters:
// Tree (human-readable span tree) and WriteChromeTrace (a trace_event
// file loadable in chrome://tracing or Perfetto).
type Trace = obs.Trace

// Span is one timed region of a traced run; spans carry a parent link
// and typed attributes, and every method no-ops on a nil receiver.
type Span = obs.Span

// SpanData is the immutable snapshot of one span inside a Trace.
type SpanData = obs.SpanData

// MetricsRegistry is a set of named, labelled metrics — atomic
// counters, gauges and fixed-bucket histograms.
type MetricsRegistry = obs.Registry

// Metric is one snapshot entry of a MetricsRegistry.
type Metric = obs.Metric

// Label is one key=value dimension of a metric's identity; build one
// with L. Two metrics with the same name and the same label set are the
// same instrument regardless of label order.
type Label = obs.Label

// L builds a metric Label.
func L(key, value string) Label { return obs.L(key, value) }

// NewTracer returns an empty, enabled tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// Metrics returns the process-wide metrics registry. The optimizer
// records plan-cache lookups here (matopt.plancache.hits / .misses /
// .coalesced); every dist run observes its queue-wait and vertex wall
// time histograms here live and publishes its Report — exchange
// traffic, shard busy time, kernel time, retries, faults, wire traffic
// — into it once the run ends, so totals accumulate across runs.
// Render it with Metrics().Render() or walk Metrics().Snapshot();
// metric names and units are listed in DESIGN.md §11.
func Metrics() *MetricsRegistry { return obs.Default() }
