// Package obs is the repository's zero-dependency observability layer:
// a span tracer and a metrics registry threaded through the optimizer
// (internal/core), the execution runtimes (internal/dist) and the public
// API, plus exporters that render a run as a human-readable trace tree,
// as JSON, or as a Chrome trace_event file loadable in chrome://tracing
// and Perfetto.
//
// The paper's optimizer picks plans from *predicted* operator and
// transformation costs (§7); this package supplies the measured
// counterpart — where the time of a real run actually went, span by
// span, and what the runtime's meters counted — so predicted and
// observed cost can be held against each other.
//
// Everything is nil-safe and allocation-free when disabled: a nil
// *Tracer returns nil *Spans whose methods no-op, and a nil *Registry
// hands out nil instruments whose methods no-op, so instrumented code
// carries no branches beyond a nil check and no allocations when
// observability is off. DESIGN.md §11 documents the span taxonomy and
// the metric names recorded by each subsystem.
package obs

import (
	"sync"
	"time"
)

// Tracer collects spans for one traced activity (an optimization, an
// execution, a whole CLI run). A nil *Tracer is a valid, disabled
// tracer: Start returns nil and Snapshot returns nil. All methods are
// safe for concurrent use.
type Tracer struct {
	mu    sync.Mutex
	spans []*Span
	seq   int64
}

// NewTracer returns an empty, enabled tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Span is one timed region of a traced run, with a parent link and
// typed attributes. Spans are created with Tracer.Start and closed with
// End; attribute setters may be called between the two and return the
// span so calls chain. All methods no-op on a nil *Span.
type Span struct {
	tr     *Tracer
	id     int64
	parent int64
	name   string
	start  time.Time
	end    time.Time
	attrs  []Attr
}

// Start opens a span named name under parent (nil parent = a root
// span). On a nil tracer it returns nil, which every Span method
// accepts, so call sites need no enabled-check of their own.
func (t *Tracer) Start(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, name: name, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
	}
	t.mu.Lock()
	t.seq++
	s.id = t.seq
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// End closes the span. Ending an already-ended span keeps the first end
// time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.tr.mu.Unlock()
}

// SetInt attaches an integer attribute and returns the span.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.setAttr(Attr{Key: key, kind: attrInt, i: v})
	return s
}

// SetStr attaches a string attribute and returns the span.
func (s *Span) SetStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.setAttr(Attr{Key: key, kind: attrStr, s: v})
	return s
}

// SetBool attaches a boolean attribute and returns the span.
func (s *Span) SetBool(key string, v bool) *Span {
	if s == nil {
		return nil
	}
	var i int64
	if v {
		i = 1
	}
	s.setAttr(Attr{Key: key, kind: attrBool, i: i})
	return s
}

func (s *Span) setAttr(a Attr) {
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, a)
	s.tr.mu.Unlock()
}

// attrKind discriminates an Attr's payload.
type attrKind uint8

const (
	attrInt attrKind = iota
	attrStr
	attrBool
)

// Attr is one typed span attribute, set with the Span setters.
type Attr struct {
	// Key names the attribute.
	Key  string
	kind attrKind
	i    int64
	s    string
}

// Value returns the attribute's payload as an any (int64, string or
// bool), for JSON-style exporters.
func (a Attr) Value() any {
	switch a.kind {
	case attrStr:
		return a.s
	case attrBool:
		return a.i != 0
	default:
		return a.i
	}
}

// SpanData is the immutable snapshot of one span. A zero End means the
// span was still open when the snapshot was taken; exporters clamp open
// spans to the trace's end.
type SpanData struct {
	// ID is the span's tracer-unique identifier (1-based, in creation
	// order). Parent is the parent span's ID, or 0 for a root span.
	ID, Parent int64
	// Name is the span's taxonomy name (DESIGN.md §11).
	Name string
	// Start and End bound the span; End is zero while the span is open.
	Start, End time.Time
	// Attrs are the attributes in the order they were set.
	Attrs []Attr
}

// Snapshot returns the tracer's spans as an immutable Trace, in
// creation order. On a nil tracer it returns nil.
func (t *Tracer) Snapshot() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := &Trace{Spans: make([]SpanData, len(t.spans))}
	for i, s := range t.spans {
		tr.Spans[i] = SpanData{
			ID: s.id, Parent: s.parent, Name: s.name,
			Start: s.start, End: s.end,
			Attrs: append([]Attr(nil), s.attrs...),
		}
	}
	return tr
}

// Reset discards every collected span, keeping the tracer enabled; IDs
// continue from where they were (a Trace never mixes spans from before
// and after a Reset).
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}
