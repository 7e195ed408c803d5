package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"matopt"
	"matopt/internal/costmodel"
	"matopt/internal/obs"
	"matopt/internal/testutil"
)

// loadMix is the sustained-load request mix: every workload generator,
// every engine, with and without fault injection.
func loadMix() []ExecuteRequest {
	return []ExecuteRequest{
		{Spec: Spec{Workload: "chain", SizeSet: 1, Scale: 400}},
		{Spec: Spec{Workload: "chain", SizeSet: 2, Scale: 400}, Engine: "dist", ExecConfig: matopt.ExecConfig{Shards: 2}},
		{Spec: Spec{Workload: "chain", SizeSet: 3, Scale: 600, Seed: 7}},
		{Spec: Spec{Workload: "ffnn", Scale: 4000}},
		{Spec: Spec{Workload: "ffnn3", Scale: 4000}, Engine: "dist", ExecConfig: matopt.ExecConfig{Shards: 2, Faults: 1, Fallback: true}},
		{Spec: Spec{Workload: "inverse", Scale: 100}},
		{Spec: Spec{Workload: "ffnn", Scale: 4000}, Engine: "sim"},
	}
}

// directExecute reproduces a request outside the service — its own
// optimizer, its own executor, the same cluster — and returns the wire
// form the service must match bit for bit.
func directExecute(t *testing.T, cl matopt.Cluster, req ExecuteRequest) *ExecuteResponse {
	t.Helper()
	spec := req.Spec.Normalized()
	g, inputs, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := matopt.NewOptimizer(cl)
	p, err := opt.Optimize(matopt.NewBuilderFromGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	resp := &ExecuteResponse{Spec: spec}
	if req.Engine == "sim" {
		rep, err := matopt.Simulate(p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Sim = &SimSummary{Seconds: rep.Seconds, FLOPs: rep.Features.FLOPs}
		return resp
	}
	var xopts []matopt.ExecutorOption
	if req.Engine == "dist" {
		// The schedule the service must derive from {"faults": n}: seed
		// 1 over the graph's vertex ids.
		cfg := matopt.ExecConfig{Shards: req.Shards, Fallback: req.Fallback}
		if req.Faults > 0 {
			var ids []int
			for _, v := range g.Vertices {
				ids = append(ids, v.ID)
			}
			cfg.FaultPlan = matopt.RandomFaults(1, req.Faults, ids)
		}
		xopts = append(xopts, matopt.WithExecConfig(cfg), matopt.WithEngineKind(matopt.DistEngine))
	}
	outs, err := matopt.NewExecutor(cl, xopts...).RunCtx(context.Background(), p, inputs)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 0, len(outs))
	for id := range outs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		resp.Outputs = append(resp.Outputs, encodeDense(id, outs[id]))
	}
	return resp
}

// TestSustainedLoadBitIdentical is the acceptance load test: 64
// concurrent clients sustain a mixed workload over a real HTTP listener
// and every response must be bit-identical to a direct Executor run of
// the same spec — then the server drains to zero goroutines.
func TestSustainedLoadBitIdentical(t *testing.T) {
	const clients, perClient = 64, 3
	mix := loadMix()
	cfg := testConfig(4, clients*perClient)
	cfg.Cluster = costmodel.LocalTest(4)
	cfg.QueueTimeout = time.Minute
	s := New(cfg)

	// Direct reference runs, computed once per mix entry before any
	// service traffic.
	want := make([]*ExecuteResponse, len(mix))
	for i, req := range mix {
		want[i] = directExecute(t, cfg.Cluster, req)
	}

	baseline := testutil.Baseline()
	ts := httptest.NewServer(s.Handler())
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}

	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				i := (c + r) % len(mix)
				body, _ := json.Marshal(mix[i])
				res, err := client.Post(ts.URL+"/execute", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					continue
				}
				raw, _ := io.ReadAll(res.Body)
				res.Body.Close()
				if res.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d: status %d: %s", c, res.StatusCode, raw)
					continue
				}
				var got ExecuteResponse
				if err := json.Unmarshal(raw, &got); err != nil {
					errs <- err
					continue
				}
				if err := compareToDirect(&got, want[i]); err != nil {
					errs <- fmt.Errorf("client %d mix %d: %w", c, i, err)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		failed++
		if failed <= 5 {
			t.Error(err)
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d requests failed or diverged", failed, clients*perClient)
	}

	// Close the listener: httptest.Server.Close returns only after every
	// handler has, so the counter below is final — a client can read its
	// reply before the handler that wrote it has counted it.
	client.CloseIdleConnections()
	ts.Close()

	// Every request was served — none shed — and the coalescing layer
	// saw all of them.
	reg := cfg.Registry
	served := reg.Counter("serve.requests", obs.L("endpoint", "execute"), obs.L("code", "200")).Value()
	if served != clients*perClient {
		t.Fatalf("served %d requests, want %d", served, clients*perClient)
	}

	// Drain under no load and verify nothing leaked.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	testutil.WaitForGoroutines(t, baseline, 15*time.Second)
}

// compareToDirect asserts the service response carries exactly the
// reference run's bytes.
func compareToDirect(got, want *ExecuteResponse) error {
	if want.Sim != nil {
		if got.Sim == nil || got.Sim.Seconds != want.Sim.Seconds || got.Sim.FLOPs != want.Sim.FLOPs {
			return fmt.Errorf("sim report differs: got %+v want %+v", got.Sim, want.Sim)
		}
		return nil
	}
	if len(got.Outputs) != len(want.Outputs) {
		return fmt.Errorf("output count %d, want %d", len(got.Outputs), len(want.Outputs))
	}
	for i := range want.Outputs {
		g, w := got.Outputs[i], want.Outputs[i]
		if g.Vertex != w.Vertex || g.SHA256 != w.SHA256 || g.DataB64 != w.DataB64 {
			return fmt.Errorf("vertex %d: output not bit-identical to direct run", w.Vertex)
		}
	}
	return nil
}

// TestDrainUnderLoad fires a burst, drains mid-flight, and checks
// conservation: every request ends as a served 200 or a typed 503
// rejection — none hang, none vanish — and the pool exits clean.
func TestDrainUnderLoad(t *testing.T) {
	testutil.CheckGoroutines(t, func() {
		cfg := testConfig(2, 64)
		cfg.QueueTimeout = time.Minute
		s := New(cfg)

		const burst = 16
		codes := make(chan int, burst)
		var wg sync.WaitGroup
		wg.Add(burst)
		for i := 0; i < burst; i++ {
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("POST", "/execute",
					bytes.NewReader([]byte(`{"workload":"chain","scale":400}`))))
				codes <- rec.Code
			}()
		}
		// Wait until the whole burst is in flight, then drain under it.
		waitFor(t, func() bool {
			return s.reg.Gauge("serve.inflight").Value() == burst || len(codes) == burst
		})
		if err := s.Drain(context.Background()); err != nil {
			t.Fatalf("Drain: %v", err)
		}
		wg.Wait()
		close(codes)
		served, shed := 0, 0
		for code := range codes {
			switch code {
			case http.StatusOK:
				served++
			case http.StatusServiceUnavailable:
				shed++
			default:
				t.Fatalf("request ended with status %d, want 200 or 503", code)
			}
		}
		if served+shed != burst {
			t.Fatalf("conservation broken: %d served + %d shed != %d", served, shed, burst)
		}
		if served == 0 {
			t.Fatal("drain served nothing: every in-flight request was dropped")
		}
	})
}
