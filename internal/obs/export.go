package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Trace is an immutable snapshot of a tracer's spans, the unit every
// exporter consumes: Tree renders a human-readable span tree and
// WriteChromeTrace a Chrome trace_event file loadable in
// chrome://tracing or Perfetto.
type Trace struct {
	// Spans is the snapshot in span-creation order.
	Spans []SpanData
}

// endOf clamps an open span to the trace's last known instant, so
// exporters render aborted runs sensibly.
func (t *Trace) endOf(d SpanData) time.Time {
	if !d.End.IsZero() {
		return d.End
	}
	last := d.Start
	for _, s := range t.Spans {
		if s.Start.After(last) {
			last = s.Start
		}
		if !s.End.IsZero() && s.End.After(last) {
			last = s.End
		}
	}
	return last
}

// children maps each parent ID to its child indices, ordered by start
// time (creation order breaking ties), with roots under key 0.
// Orphans — spans whose parent is missing from the snapshot — are
// treated as roots so a partial snapshot still renders.
func (t *Trace) children() map[int64][]int {
	if t == nil {
		return nil
	}
	known := make(map[int64]bool, len(t.Spans))
	for _, s := range t.Spans {
		known[s.ID] = true
	}
	kids := make(map[int64][]int)
	for i, s := range t.Spans {
		p := s.Parent
		if !known[p] {
			p = 0
		}
		kids[p] = append(kids[p], i)
	}
	for _, c := range kids {
		c := c
		sort.SliceStable(c, func(a, b int) bool {
			sa, sb := t.Spans[c[a]], t.Spans[c[b]]
			if !sa.Start.Equal(sb.Start) {
				return sa.Start.Before(sb.Start)
			}
			return sa.ID < sb.ID
		})
	}
	return kids
}

// Tree renders the trace as an indented, human-readable span tree:
// one line per span with its duration and attributes, children indented
// under parents. An empty or nil trace renders as "(empty trace)".
func (t *Trace) Tree() string {
	if t == nil || len(t.Spans) == 0 {
		return "(empty trace)\n"
	}
	kids := t.children()
	var b strings.Builder
	var walk func(idx, depth int)
	walk = func(idx, depth int) {
		s := t.Spans[idx]
		d := t.endOf(s).Sub(s.Start)
		if d < 0 {
			d = 0
		}
		fmt.Fprintf(&b, "%s%-*s %12s", strings.Repeat("  ", depth), 28-2*depth, s.Name, d.Round(time.Microsecond))
		for _, a := range s.Attrs {
			fmt.Fprintf(&b, "  %s=%v", a.Key, a.Value())
		}
		if s.End.IsZero() {
			b.WriteString("  (open)")
		}
		b.WriteByte('\n')
		for _, c := range kids[s.ID] {
			walk(c, depth+1)
		}
	}
	for _, root := range kids[0] {
		walk(root, 0)
	}
	return b.String()
}

// chromeEvent is one trace_event entry: a "complete" (ph "X") event
// with microsecond timestamps relative to the trace start.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the JSON-object form of the trace_event format.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the trace in the Chrome trace_event format
// ("complete" events, JSON object form), loadable in chrome://tracing
// and Perfetto. Every span becomes one event; concurrent subtrees stay
// readable because each span is assigned to the track (tid) of its
// depth-1 ancestor — in this repo's taxonomy, one lane per dist vertex
// and one for the optimizer — and timestamps are microseconds relative
// to the earliest span start.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	var t0 time.Time
	for _, s := range t.Spans {
		if t0.IsZero() || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	kids := t.children()
	// lane assignment: roots and their direct children open lanes keyed
	// by their own ID; deeper spans inherit the parent's lane.
	lanes := make(map[int64]int64, len(t.Spans))
	var assign func(idx int, depth int, lane int64)
	assign = func(idx, depth int, lane int64) {
		s := t.Spans[idx]
		if depth <= 1 {
			lane = s.ID
		}
		lanes[s.ID] = lane
		for _, c := range kids[s.ID] {
			assign(c, depth+1, lane)
		}
	}
	for _, root := range kids[0] {
		assign(root, 0, t.Spans[root].ID)
	}
	f := chromeFile{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(t.Spans))}
	for _, s := range t.Spans {
		dur := t.endOf(s).Sub(s.Start)
		if dur < 0 {
			dur = 0
		}
		ev := chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(dur.Nanoseconds()) / 1e3,
			Pid: 1, Tid: lanes[s.ID],
		}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value()
			}
		}
		f.TraceEvents = append(f.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// DurationsByName sums span durations per span name — the phase
// breakdown `make bench` records next to its timings. Open spans are
// clamped to the trace end.
func (t *Trace) DurationsByName() map[string]time.Duration {
	if t == nil {
		return nil
	}
	out := make(map[string]time.Duration)
	for _, s := range t.Spans {
		d := t.endOf(s).Sub(s.Start)
		if d < 0 {
			d = 0
		}
		out[s.Name] += d
	}
	return out
}

// WallCoverage reports the fraction of the window [earliest span start,
// latest span end] covered by the union of root spans — the acceptance
// metric for "the trace accounts for the run's wall time". An empty
// trace reports 0.
func (t *Trace) WallCoverage() float64 {
	if t == nil || len(t.Spans) == 0 {
		return 0
	}
	var t0, t1 time.Time
	for _, s := range t.Spans {
		end := t.endOf(s)
		if t0.IsZero() || s.Start.Before(t0) {
			t0 = s.Start
		}
		if t1.IsZero() || end.After(t1) {
			t1 = end
		}
	}
	total := t1.Sub(t0)
	if total <= 0 {
		return 1
	}
	// Union of root-span intervals.
	type iv struct{ a, b time.Time }
	var ivs []iv
	known := make(map[int64]bool, len(t.Spans))
	for _, s := range t.Spans {
		known[s.ID] = true
	}
	for _, s := range t.Spans {
		if s.Parent == 0 || !known[s.Parent] {
			ivs = append(ivs, iv{s.Start, t.endOf(s)})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				covered += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	covered += curB.Sub(curA)
	return float64(covered) / float64(total)
}
