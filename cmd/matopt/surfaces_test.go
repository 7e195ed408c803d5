package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"matopt"
	"matopt/internal/costmodel"
	"matopt/internal/dist"
	"matopt/internal/serve"
)

// TestOneValidatorOnEverySurface drives the same bad configurations
// through the three ways a caller reaches the runtime — the CLI's
// execConfig.validate(), POST /execute, and matopt.Executor.RunCtx —
// and requires the same refusal from each: there is one validator, not
// three that happen to agree. The two over-the-bound rows are the
// unbounded-input cases: they must be refused before any per-shard or
// per-fault state is allocated, so each surface has to answer promptly.
func TestOneValidatorOnEverySurface(t *testing.T) {
	rows := []struct {
		name, engine string
		cfg          dist.Config
		wantErr      string
	}{
		{"negative kernel threads", "seq", dist.Config{KernelThreads: -3}, "kernel_threads must be non-negative"},
		{"budget without checkpoint", "dist", dist.Config{CheckpointBudget: 1024}, "checkpoint_budget requires checkpoint"},
		{"peers on seq", "seq", dist.Config{Peers: []string{"127.0.0.1:9431"}}, "peers requires engine dist"},
		{"shards over the bound", "dist", dist.Config{Shards: 50_000_000}, "shards must be at most"},
		{"faults over the bound", "dist", dist.Config{Faults: 2_000_000_000}, "faults must be at most"},
	}

	cl := costmodel.LocalTest(2)
	srv := serve.New(serve.Config{Cluster: cl})
	defer srv.Drain(context.Background())

	b := matopt.NewBuilder()
	b.MatMul(b.Input("X", 40, 60, matopt.Single()), b.Input("W", 60, 20, matopt.Single()))
	p, err := matopt.NewOptimizer(cl).Optimize(b)
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t0 := time.Now()
			refused := func(surface string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), r.wantErr) {
					t.Errorf("%s: want error containing %q, got %v", surface, r.wantErr, err)
				}
			}

			c := valid()
			c.Engine, c.Config = r.engine, r.cfg
			refused("execConfig.validate", c.validate())

			req := serve.ExecuteRequest{ExecConfig: r.cfg, Engine: r.engine}
			req.Spec = serve.Spec{Workload: "chain", Scale: 400}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/execute", strings.NewReader(string(body))))
			if rec.Code != 400 || !strings.Contains(rec.Body.String(), r.wantErr) {
				t.Errorf("POST /execute %s = %d %s, want 400 naming %q", body, rec.Code, rec.Body.String(), r.wantErr)
			}

			kind := matopt.SequentialEngine
			if r.engine == "dist" {
				kind = matopt.DistEngine
			}
			x := matopt.NewExecutor(cl, matopt.WithExecConfig(r.cfg), matopt.WithEngineKind(kind))
			_, err = x.RunCtx(context.Background(), p, nil)
			refused("Executor.RunCtx", err)

			// 50M shard queues or 2G fault records take far longer than
			// this to allocate; a refusal up front takes microseconds.
			if d := time.Since(t0); d > 2*time.Second {
				t.Errorf("refusals took %v: the config was acted on before it was validated", d)
			}
		})
	}
}
