package benchkit

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// SpanID names one span of a Recorder; 0 is "no span" (a root's parent,
// or any span of a nil Recorder).
type SpanID int

// Span is one timed region of a traced pass: what ran (Name), when
// (Start/End as offsets from the recorder's epoch), under which span
// (Parent) and for which operation (Op — every span of one benchmark
// operation carries the same Op). Attrs holds numbers attached at the
// boundary where they were measured, e.g. a reply's elapsed_ms.
type Span struct {
	ID     SpanID             `json:"id"`
	Parent SpanID             `json:"parent"`
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Start  time.Duration      `json:"start_ns"`
	End    time.Duration      `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// Duration returns End−Start, or 0 for a span that was never ended.
func (s Span) Duration() time.Duration {
	if s.End < s.Start {
		return 0
	}
	return s.End - s.Start
}

// Recorder keeps the spans of a traced pass in memory. A nil *Recorder
// is the tracing-off state: every method no-ops and Start returns 0, so
// the timed pass and the traced pass run the same code. All methods are
// safe for concurrent use.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

// NewRecorder returns an empty recorder whose epoch is now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Start opens a span named name for operation op under parent.
func (r *Recorder) Start(parent SpanID, op int, name string) SpanID {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := SpanID(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// End closes span id; ending span 0 or an already-ended span is a no-op.
func (r *Recorder) End(id SpanID) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := &r.spans[id-1]; s.End < 0 {
		s.End = now
	}
}

// SetAttr attaches a number to span id.
func (r *Recorder) SetAttr(id SpanID, key string, v float64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[key] = v
}

// Add records an already-finished span — how spans the program under
// test emitted itself are hung beneath the benchmark's own.
func (r *Recorder) Add(parent SpanID, op int, name string, start, end time.Time) SpanID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := SpanID(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch)})
	return id
}

// Spans returns a copy of every recorded span in creation order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// covered returns how much of [lo, hi) the given child intervals cover:
// the measure of their union, clipped to the parent. Concurrent
// children (dist vertices, two HTTP clients) therefore count once.
func covered(lo, hi time.Duration, kids []Span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var sum time.Duration
	at := lo
	for _, k := range kids {
		s, e := k.Start, k.End
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			sum += e - s
			at = e
		}
	}
	return sum
}

// childrenOf groups the ended spans by parent.
func childrenOf(spans []Span) map[SpanID][]Span {
	kids := map[SpanID][]Span{}
	for _, s := range spans {
		if s.End >= s.Start {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// SelfTimes sums, per span name, each span's self time: its duration
// minus the part of that interval its child spans cover.
func SelfTimes(spans []Span) map[string]time.Duration {
	kids := childrenOf(spans)
	self := map[string]time.Duration{}
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		self[s.Name] += s.Duration() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// Coverage returns the share of the total duration of the spans named
// name that their children cover — 1 means the children account for all
// of it, and a traced pass is only trusted to explain an operation when
// this is at least 0.95. It returns 0 when no such span has time.
func Coverage(spans []Span, name string) float64 {
	kids := childrenOf(spans)
	var total, cov time.Duration
	for _, s := range spans {
		if s.Name != name || s.End < s.Start {
			continue
		}
		total += s.Duration()
		cov += covered(s.Start, s.End, kids[s.ID])
	}
	if total == 0 {
		return 0
	}
	return float64(cov) / float64(total)
}

// WriteChromeTrace writes spans in the Chrome trace_event format
// ("complete" events), loadable in chrome://tracing and Perfetto. Each
// operation gets its own track (tid = Op), so concurrent operations
// stay readable; unfinished spans are skipped.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	type event struct {
		Name string             `json:"name"`
		Ph   string             `json:"ph"`
		TS   float64            `json:"ts"`
		Dur  float64            `json:"dur"`
		PID  int                `json:"pid"`
		TID  int                `json:"tid"`
		Args map[string]float64 `json:"args,omitempty"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		if s.End < s.Start {
			continue
		}
		events = append(events, event{Name: s.Name, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.Duration()) / 1e3,
			PID: 1, TID: s.Op, Args: s.Attrs})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
