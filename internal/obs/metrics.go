package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric. A metric's identity is
// its name plus its sorted label set.
type Label struct {
	// Key and Value name and qualify the dimension, e.g. {"kind",
	// "shuffle"}.
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter. A nil *Counter
// (from a nil *Registry) accepts Add/Inc as no-ops and reads as 0.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. A nil *Gauge accepts writes
// as no-ops and reads as 0. With SetMax, gauges suit high-water marks
// (peak bytes, longest wall time).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// SetMax raises the gauge to v if v is larger.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed, registration-time bucket
// boundaries (cumulative style: bucket i counts observations ≤
// bounds[i], with one overflow bucket above the last bound). A nil
// *Histogram accepts Observe as a no-op.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last = overflow
	count   atomic.Int64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for { // add v to the running sum, lock-free
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DefaultDurationBuckets returns the bucket boundaries, in seconds,
// used for the runtime's duration histograms: 1µs to 60s, roughly
// logarithmic.
func DefaultDurationBuckets() []float64 {
	return []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 30, 60}
}

// MetricKind discriminates a Metric snapshot.
type MetricKind uint8

// The metric kinds a Registry holds.
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// String names the kind as the JSON metrics export prints it:
// "counter", "gauge" or "histogram".
func (k MetricKind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "counter"
	}
}

// Bucket is one cumulative histogram bucket in a snapshot.
type Bucket struct {
	// UpperBound is the bucket's inclusive upper bound; the overflow
	// bucket reports +Inf.
	UpperBound float64
	// Count is the number of observations in this bucket (not
	// cumulative).
	Count int64
}

// Metric is one snapshot entry of a Registry.
type Metric struct {
	// Name is the metric family name; Labels its sorted dimensions.
	Name   string
	Labels []Label
	// Kind tells which of the remaining fields are meaningful.
	Kind MetricKind
	// Value carries counter and gauge readings.
	Value int64
	// Count, Sum and Buckets carry histogram readings.
	Count   int64
	Sum     float64
	Buckets []Bucket
}

// metricID is a metric's parsed identity, kept alongside the canonical
// key so snapshots need no string parsing.
type metricID struct {
	name   string
	labels []Label
}

// Registry is a set of named, labelled metrics. Instruments are created
// on first use and shared by identity, so two calls with the same name
// and labels return the same counter — which is what lets every run
// that publishes a series add to the same total. A nil *Registry is a
// valid, disabled registry: every getter returns nil, and nil
// instruments no-op. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	ids      map[string]metricID
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		ids:      make(map[string]metricID),
	}
}

// defaultRegistry is the process-wide registry; see Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Subsystems meter into it
// live, or (the dist runtime) publish each run's totals into it once
// when the run completes, so the process totals accumulate across runs.
func Default() *Registry { return defaultRegistry }

// key canonicalizes a metric identity: name plus labels sorted by key.
func key(name string, labels []Label) (string, metricID) {
	if len(labels) == 0 {
		return name, metricID{name: name}
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String(), metricID{name: name, labels: ls}
}

// Counter returns the counter with the given identity, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	k, id := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		c = &Counter{}
		r.counters[k] = c
		r.ids[k] = id
	}
	return c
}

// Gauge returns the gauge with the given identity, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	k, id := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		g = &Gauge{}
		r.gauges[k] = g
		r.ids[k] = id
	}
	return g
}

// Histogram returns the histogram with the given identity, creating it
// with the given bucket bounds (ascending) on first use; later calls
// reuse the first registration's bounds. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	k, id := key(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		h = &Histogram{
			bounds:  append([]float64(nil), bounds...),
			buckets: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[k] = h
		r.ids[k] = id
	}
	return h
}

// Snapshot returns every metric's current reading, sorted by name then
// canonical label set, so output is deterministic. Returns nil on a nil
// registry.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for k, c := range r.counters {
		id := r.ids[k]
		out = append(out, Metric{Name: id.name, Labels: id.labels, Kind: KindCounter, Value: c.Value()})
	}
	for k, g := range r.gauges {
		id := r.ids[k]
		out = append(out, Metric{Name: id.name, Labels: id.labels, Kind: KindGauge, Value: g.Value()})
	}
	for k, h := range r.hists {
		id := r.ids[k]
		m := Metric{Name: id.name, Labels: id.labels, Kind: KindHistogram, Count: h.Count(), Sum: h.Sum()}
		m.Buckets = make([]Bucket, len(h.buckets))
		for i := range h.buckets {
			ub := math.Inf(1)
			if i < len(h.bounds) {
				ub = h.bounds[i]
			}
			m.Buckets[i] = Bucket{UpperBound: ub, Count: h.buckets[i].Load()}
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return labelKey(out[i].Labels) < labelKey(out[j].Labels)
	})
	return out
}

func labelKey(ls []Label) string {
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// Render returns the registry as readable text, one metric per line,
// deterministically ordered. Histograms render count, sum and non-empty
// buckets.
func (r *Registry) Render() string {
	var b strings.Builder
	for _, m := range r.Snapshot() {
		b.WriteString(m.Name)
		if len(m.Labels) > 0 {
			b.WriteByte('{')
			for i, l := range m.Labels {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%s=%s", l.Key, l.Value)
			}
			b.WriteByte('}')
		}
		switch m.Kind {
		case KindHistogram:
			fmt.Fprintf(&b, " count=%d sum=%.6g", m.Count, m.Sum)
			for _, bk := range m.Buckets {
				if bk.Count == 0 {
					continue
				}
				if math.IsInf(bk.UpperBound, 1) {
					fmt.Fprintf(&b, " le_inf=%d", bk.Count)
				} else {
					fmt.Fprintf(&b, " le_%.3g=%d", bk.UpperBound, bk.Count)
				}
			}
		default:
			fmt.Fprintf(&b, " %d", m.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
