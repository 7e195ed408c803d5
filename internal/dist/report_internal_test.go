package dist

import (
	"context"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/enginetest"
	"matopt/internal/format"
	"matopt/internal/netfabric"
	"matopt/internal/obs"
	"matopt/internal/workload"
)

// designDistMetrics returns the dist.* names DESIGN.md §11's metric
// table lists, expanding its "`a.b.c` / `.d`" shorthand to a.b.d.
func designDistMetrics(t *testing.T) []string {
	t.Helper()
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sec := string(doc)
	sec = sec[strings.Index(sec, "| metric | kind |"):]
	sec = sec[:strings.Index(sec, "\n\n")]
	tick := regexp.MustCompile("`([a-z_.]+)`")
	var names []string
	for _, row := range strings.Split(sec, "\n") {
		if !strings.HasPrefix(row, "| `dist.") {
			continue
		}
		var full string
		for _, m := range tick.FindAllStringSubmatch(strings.Split(row, "|")[1], -1) {
			name := m[1]
			if strings.HasPrefix(name, ".") {
				name = full[:strings.LastIndex(full, ".")] + name
			}
			full = name
			names = append(names, name)
		}
	}
	slices.Sort(names)
	return names
}

// published sums reg's readings per family name, and keeps each series
// by its rendered label set.
func published(reg *obs.Registry) (total map[string]int64, series map[string]int64) {
	total, series = make(map[string]int64), make(map[string]int64)
	for _, m := range reg.Snapshot() {
		total[m.Name] += m.Value
		k := m.Name
		for _, l := range m.Labels {
			k += "," + l.Key + "=" + l.Value
		}
		series[k] = m.Value
	}
	return total, series
}

// TestPublishMatchesReport: what a run publishes into a registry is its
// Report, family by family, so /metrics and the Report cannot tell two
// stories. One TCP run with an injected crash, drop and severed
// connection is published into a fresh registry; every dist.* total must equal the
// Report field it came from, the published names plus the two live
// histograms must be exactly DESIGN.md §11's dist.* list, and a chan
// run must publish no dist.wire.* family.
func TestPublishMatchesReport(t *testing.T) {
	cl := costmodel.LocalTest(3)
	env := core.NewEnv(cl, format.All())
	g, inputs, err := workload.Spec{Workload: "chain", Scale: 400}.Normalized().Build()
	if err != nil {
		t.Fatal(err)
	}
	ann, err := core.Optimize(g, env)
	if err != nil {
		t.Fatal(err)
	}
	p := enginetest.Lower(t, env, ann)
	run := func(cfg Config) *Report {
		t.Helper()
		rt, err := New(cl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := rt.RunPlan(context.Background(), p, inputs)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	chanRep := run(Config{Shards: 2})
	chanReg := obs.NewRegistry()
	chanRep.publish(chanReg)
	for _, m := range chanReg.Snapshot() {
		if strings.HasPrefix(m.Name, "dist.wire.") {
			t.Errorf("chan run published %s", m.Name)
		}
	}

	// Crash the last computed vertex, drop an exchange of another one,
	// and sever the first session so the retry re-dials.
	var crash int
	for _, v := range p.Graph.Vertices {
		if !v.IsSource {
			crash = v.ID
		}
	}
	drop := slices.IndexFunc(chanRep.Exchanges, func(x ExchangeStat) bool { return x.Vertex != crash && x.Bytes > 0 })
	if drop < 0 {
		t.Fatalf("no exchange to drop outside v%d: %+v", crash, chanRep.Exchanges)
	}
	dx := chanRep.Exchanges[drop]
	peers := []string{netfabric.LocalPeer, serveWorker(t, netfabric.SeverSessions(1))}
	rep := run(Config{Shards: 2, Peers: peers, FaultPlan: NewFaultPlan(
		Fault{Kind: FaultCrash, Vertex: crash},
		Fault{Kind: FaultDropExchange, Vertex: dx.Vertex, Label: dx.Label, Shard: -1},
	)})
	if rep.Transport != "tcp" || rep.WireBytes == 0 || rep.WireReconnects == 0 ||
		rep.FaultsInjected != 2 || rep.Retries < 2 || rep.KernelTime == 0 {
		t.Fatalf("the run did not exercise the wire, a re-dial, both faults and the kernels: %+v", rep)
	}
	reg := obs.NewRegistry()
	rep.publish(reg)
	total, series := published(reg)

	for name, want := range map[string]int64{
		"dist.exchange.bytes":    rep.NetBytes,
		"dist.exchange.messages": rep.Messages,
		"dist.retries":           rep.Retries,
		"dist.faults_injected":   rep.FaultsInjected,
		"dist.wire.bytes":        rep.WireBytes,
		"dist.wire.messages":     rep.WireMessages,
		"dist.wire.dials":        rep.WireDials,
		"dist.wire.reconnects":   rep.WireReconnects,
		"dist.shard.busy_ns":     int64(rep.TotalBusy()),
		"dist.kernel.ns":         int64(rep.KernelTime),
		"dist.shards":            int64(rep.Shards),
		"dist.kernel.threads":    int64(rep.KernelThreads),
		"dist.peak_bytes":        rep.PeakBytes,
		"dist.wall_ns":           int64(rep.Wall),
	} {
		if total[name] != want {
			t.Errorf("%s totals %d, the Report says %d", name, total[name], want)
		}
	}
	for _, x := range rep.Exchanges {
		id := ",kind=" + x.Kind + ",label=" + x.Label + ",vertex=" + strconv.Itoa(x.Vertex)
		if b, m := series["dist.exchange.bytes"+id], series["dist.exchange.messages"+id]; b != x.Bytes || m != x.Messages {
			t.Errorf("exchange %s published %d B / %d msgs, the Report's row says %d / %d", id, b, m, x.Bytes, x.Messages)
		}
	}
	for v, n := range rep.RetriesByVertex {
		if got := series["dist.retries,vertex="+strconv.Itoa(v)]; got != int64(n) {
			t.Errorf("v%d published %d retries, the Report says %d", v, got, n)
		}
	}
	for s, d := range rep.ShardBusy {
		if got := series["dist.shard.busy_ns,shard="+strconv.Itoa(s)]; got != int64(d) {
			t.Errorf("shard %d published %d ns busy, the Report says %d", s, got, d)
		}
	}

	var names []string
	for name := range total {
		names = append(names, name)
	}
	for _, m := range obs.Default().Snapshot() {
		if m.Kind == obs.KindHistogram && strings.HasPrefix(m.Name, "dist.") {
			names = append(names, m.Name)
		}
	}
	slices.Sort(names)
	if want := designDistMetrics(t); !slices.Equal(names, want) {
		t.Errorf("a dist run emits %v, DESIGN.md §11 lists %v", names, want)
	}
}
