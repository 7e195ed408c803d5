package dist

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"matopt/internal/obs"
)

// ExchangeStat is the measured traffic of one exchange: all messages of
// one movement pattern at one vertex (or edge transform).
type ExchangeStat struct {
	Vertex   int    // consuming vertex ID
	Kind     string // broadcast | shuffle | aggregate | copart | move | gather | transform
	Label    string // human-readable detail, e.g. "shuffle(a)"
	Bytes    int64  // payload bytes that crossed shard boundaries
	Messages int64  // tuples that crossed shard boundaries
}

// Report is what one dist run actually did, the measured counterpart of
// the cost model's predicted features. Recovery is part of the
// measurement: traffic of failed attempts stays in the exchange meters
// (re-shipping data is a real cost of recovery), and every injected
// fault and vertex recomputation is counted. Its JSON form is the
// /execute reply's "dist" member; breakdowns stay off the wire.
type Report struct {
	Shards    int           `json:"shards"`
	NetBytes  int64         `json:"net_bytes"`  // total payload bytes that crossed shard boundaries
	Messages  int64         `json:"messages"`   // total tuples that crossed shard boundaries
	PeakBytes int64         `json:"peak_bytes"` // peak resident relation bytes during the run
	Wall      time.Duration `json:"wall_ns"`    // end-to-end wall time of the run

	FaultsInjected int64 `json:"faults_injected"` // scheduled faults this run fired or applied
	Retries        int64 `json:"retries"`         // total vertex recomputations taken

	Transport      string `json:"transport,omitempty"`       // exchange transport that moved the run's data ("chan", "tcp")
	WireBytes      int64  `json:"wire_bytes,omitempty"`      // framed bytes put on (and read off) real sockets, both directions
	WireMessages   int64  `json:"wire_messages,omitempty"`   // framed messages that crossed a socket, both directions
	WireDials      int64  `json:"wire_dials,omitempty"`      // connections dialed to worker peers
	WireReconnects int64  `json:"wire_reconnects,omitempty"` // dials that replaced a connection discarded after a failure

	Degraded      bool   `json:"degraded"`                 // run fell back to the sequential engine
	DegradedCause string `json:"degraded_cause,omitempty"` // the dist failure that forced the fallback

	Exchanges       []ExchangeStat  `json:"-"` // per-edge breakdown, ordered by (vertex, label)
	ShardBusy       []time.Duration `json:"-"` // per-shard time spent inside tasks
	RetriesByVertex map[int]int     `json:"-"` // vertex ID → recomputations (nil when none)
	KernelThreads   int             `json:"-"` // kernel threads each shard's local compute could use
	KernelTime      time.Duration   `json:"-"` // summed wall time inside local compute kernels
}

// BusiestShard returns the largest per-shard busy time.
func (r *Report) BusiestShard() time.Duration {
	var m time.Duration
	for _, d := range r.ShardBusy {
		if d > m {
			m = d
		}
	}
	return m
}

// TotalBusy returns the summed busy time across shards.
func (r *Report) TotalBusy() time.Duration {
	var t time.Duration
	for _, d := range r.ShardBusy {
		t += d
	}
	return t
}

// String renders the report as the indented block the CLI prints after
// a dist run; lines for wire traffic, kernels, recovery and
// degradation appear only when the run has something to say there.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dist run: %d shards, wall %v, peak %d B resident\n", r.Shards, r.Wall.Round(time.Microsecond), r.PeakBytes)
	fmt.Fprintf(&b, "  fabric: %d B in %d messages across %d exchanges\n", r.NetBytes, r.Messages, len(r.Exchanges))
	if r.Transport != "" && r.Transport != "chan" {
		fmt.Fprintf(&b, "  wire (%s): %d B in %d frames, %d dials (%d reconnects)\n",
			r.Transport, r.WireBytes, r.WireMessages, r.WireDials, r.WireReconnects)
	}
	fmt.Fprintf(&b, "  busiest shard busy %v of %v total\n", r.BusiestShard().Round(time.Microsecond), r.TotalBusy().Round(time.Microsecond))
	if r.KernelTime > 0 {
		fmt.Fprintf(&b, "  kernels: %v inside compute kernels (%d threads/shard)\n",
			r.KernelTime.Round(time.Microsecond), r.KernelThreads)
	}
	if r.FaultsInjected > 0 || r.Retries > 0 {
		fmt.Fprintf(&b, "  recovery: %d faults injected, %d vertex retries", r.FaultsInjected, r.Retries)
		if len(r.RetriesByVertex) > 0 {
			ids := make([]int, 0, len(r.RetriesByVertex))
			for id := range r.RetriesByVertex {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			b.WriteString(" (")
			for i, id := range ids {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "v%d×%d", id, r.RetriesByVertex[id])
			}
			b.WriteString(")")
		}
		b.WriteString("\n")
	}
	if r.Degraded {
		fmt.Fprintf(&b, "  DEGRADED to sequential engine: %s\n", r.DegradedCause)
	}
	for _, x := range r.Exchanges {
		if x.Bytes == 0 && x.Messages == 0 {
			continue
		}
		fmt.Fprintf(&b, "  v%-3d %-9s %-24s %12d B %8d msgs\n", x.Vertex, x.Kind, x.Label, x.Bytes, x.Messages)
	}
	return b.String()
}

// publish adds the report into reg under the dist.* families DESIGN.md
// §11 lists — the one place their names are written. Counters add and
// gauges keep their high-water mark, so reg's totals accumulate across
// runs. Like dist.retries, a dist.wire.* family appears once it has
// counted something, so a chan run, which puts nothing on a socket,
// publishes none.
func (r *Report) publish(reg *obs.Registry) {
	for _, x := range r.Exchanges {
		ls := []obs.Label{obs.L("vertex", strconv.Itoa(x.Vertex)), obs.L("kind", x.Kind), obs.L("label", x.Label)}
		reg.Counter("dist.exchange.bytes", ls...).Add(x.Bytes)
		reg.Counter("dist.exchange.messages", ls...).Add(x.Messages)
	}
	for s, d := range r.ShardBusy {
		reg.Counter("dist.shard.busy_ns", obs.L("shard", strconv.Itoa(s))).Add(int64(d))
	}
	for v, n := range r.RetriesByVertex {
		reg.Counter("dist.retries", obs.L("vertex", strconv.Itoa(v))).Add(int64(n))
	}
	reg.Counter("dist.faults_injected").Add(r.FaultsInjected)
	reg.Counter("dist.kernel.ns").Add(int64(r.KernelTime))
	wire := func(name string, v int64) {
		if v > 0 {
			reg.Counter(name).Add(v)
		}
	}
	wire("dist.wire.bytes", r.WireBytes)
	wire("dist.wire.messages", r.WireMessages)
	wire("dist.wire.dials", r.WireDials)
	wire("dist.wire.reconnects", r.WireReconnects)
	reg.Gauge("dist.shards").SetMax(int64(r.Shards))
	reg.Gauge("dist.kernel.threads").SetMax(int64(r.KernelThreads))
	reg.Gauge("dist.peak_bytes").SetMax(r.PeakBytes)
	reg.Gauge("dist.wall_ns").SetMax(int64(r.Wall))
}

// sortExchanges orders stats deterministically for the report.
func sortExchanges(xs []ExchangeStat) {
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].Vertex != xs[j].Vertex {
			return xs[i].Vertex < xs[j].Vertex
		}
		if xs[i].Kind != xs[j].Kind {
			return xs[i].Kind < xs[j].Kind
		}
		return xs[i].Label < xs[j].Label
	})
}
