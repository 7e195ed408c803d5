package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"matopt"
	"matopt/internal/costmodel"
	"matopt/internal/dist"
	"matopt/internal/serve"
	"matopt/internal/tensor"
	"matopt/internal/workload"
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

// cliConfig is the flag set of `matopt -workload W -sizeset N -scale D
// -sparse -engine E -shards 2` with every other flag at its default.
func cliConfig(spec workload.Spec, engine string) execConfig {
	retries := dist.DefaultMaxRetries
	c := execConfig{
		Engine: engine, Workload: spec.Workload, SizeSet: spec.SizeSet, Hidden: spec.Hidden, Scale: spec.Scale,
		Workers: 10, Formats: "all", Sparse: true, Alg: "auto", Budget: 30 * time.Second,
	}
	c.FaultSeed, c.MaxRetries, c.Fallback = 1, &retries, true
	if engine == "dist" {
		c.Shards = 2
	}
	return c
}

// digests maps each output's vertex ID to the SHA-256 /execute reports
// for it: over the little-endian float64 bits, row-major.
func digests(outs map[int]*matopt.Dense) map[int]string {
	sums := map[int]string{}
	for id, d := range outs {
		buf := make([]byte, 8*len(d.Data))
		for i, v := range d.Data {
			binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
		}
		sum := sha256.Sum256(buf)
		sums[id] = hex.EncodeToString(sum[:])
	}
	return sums
}

// TestSameSpecSameBytes: one (workload, sizeset, scale, seed) is one
// computation on one set of input bytes whichever way it is driven. The
// CLI's run path, POST /execute and a direct matopt.Executor must
// report the same output SHA-256, on the sequential engine and on two
// dist shards — which they can only do by sharing the workload
// catalogue, the optimizer and the executor.
func TestSameSpecSameBytes(t *testing.T) {
	spec := workload.Spec{Workload: "chain", SizeSet: 2, Scale: 400}.Normalized()
	cl := matopt.ClusterR5D(10)
	srv := serve.New(serve.Config{Cluster: cl})
	defer srv.Drain(context.Background())

	var want map[int]string
	for _, engine := range []string{"seq", "dist"} {
		kind, cfg := matopt.SequentialEngine, matopt.ExecConfig{}
		if engine == "dist" {
			kind, cfg = matopt.DistEngine, matopt.ExecConfig{Shards: 2}
		}

		g, inputs, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		p, err := matopt.NewOptimizer(cl).Optimize(matopt.NewBuilderFromGraph(g))
		if err != nil {
			t.Fatal(err)
		}
		outs, err := matopt.NewExecutor(cl, matopt.WithEngineKind(kind), matopt.WithExecConfig(cfg)).Run(p, inputs)
		if err != nil {
			t.Fatalf("%s: direct Executor: %v", engine, err)
		}
		direct := digests(outs)
		if want == nil {
			want = direct
		}

		outs, err = drive(context.Background(), cliConfig(spec, engine), io.Discard)
		if err != nil {
			t.Fatalf("%s: CLI: %v", engine, err)
		}
		cli := digests(outs)

		body, err := json.Marshal(serve.ExecuteRequest{Spec: spec, ExecConfig: cfg, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/execute", strings.NewReader(string(body))))
		var resp serve.ExecuteResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != 200 {
			t.Fatalf("%s: POST /execute = %d %s (%v)", engine, rec.Code, rec.Body.String(), err)
		}
		served := map[int]string{}
		for _, o := range resp.Outputs {
			served[o.Vertex] = o.SHA256
		}

		for surface, got := range map[string]map[int]string{"direct Executor": direct, "CLI": cli, "POST /execute": served} {
			if len(got) != len(want) {
				t.Fatalf("%s on %s: %d outputs, want %d", surface, engine, len(got), len(want))
			}
			for id, sum := range want {
				if got[id] != sum {
					t.Errorf("%s on %s: output %d has SHA-256 %s, the sequential direct run %s", surface, engine, id, got[id], sum)
				}
			}
		}
	}
}

// TestPlanOutPlanInRoundTrip drives the CLI twice per engine: once
// writing -plan-out, once replaying the file with -plan-in (through
// Optimizer.DecodePlan, no search). The replayed run must print that it
// loaded the plan and produce the optimized run's exact bytes; a file
// written for another computation must be refused.
func TestPlanOutPlanInRoundTrip(t *testing.T) {
	spec := workload.Spec{Workload: "inverse", Scale: 200}.Normalized()
	file := filepath.Join(t.TempDir(), "plan.json")
	for _, engine := range []string{"seq", "dist"} {
		out := cliConfig(spec, engine)
		out.PlanOut = file
		want, err := drive(context.Background(), out, io.Discard)
		if err != nil {
			t.Fatalf("%s: -plan-out run: %v", engine, err)
		}

		in := cliConfig(spec, engine)
		in.PlanIn = file
		var transcript strings.Builder
		got, err := drive(context.Background(), in, &transcript)
		if err != nil {
			t.Fatalf("%s: -plan-in run: %v", engine, err)
		}
		if !strings.Contains(transcript.String(), "loaded physical plan") {
			t.Errorf("%s: -plan-in run did not report the loaded plan:\n%s", engine, transcript.String())
		}
		if len(got) != len(want) || len(got) == 0 {
			t.Fatalf("%s: replay produced %d outputs, the optimized run %d", engine, len(got), len(want))
		}
		for id, w := range want {
			if !tensor.BitEqual(got[id], w) {
				t.Errorf("%s: replayed output %d differs from the optimized run's", engine, id)
			}
		}
	}

	other := cliConfig(workload.Spec{Workload: "chain", Scale: 400}.Normalized(), "seq")
	other.PlanIn = file
	if _, err := drive(context.Background(), other, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "different computation or environment") {
		t.Errorf("a plan written for another workload was not refused: %v", err)
	}
}

// TestExplainNamesTheKernels: the header line of -explain says which
// bodies the run's multiply-accumulate kernels are bound to.
func TestExplainNamesTheKernels(t *testing.T) {
	cfg := cliConfig(workload.Spec{Workload: "chain", Scale: 400}.Normalized(), "seq")
	cfg.Explain = true
	var transcript strings.Builder
	if _, err := drive(context.Background(), cfg, &transcript); err != nil {
		t.Fatal(err)
	}
	if want := "s, " + tensor.ISA() + " kernels\n  n0 "; !strings.Contains(transcript.String(), want) {
		t.Fatalf("-explain header does not end in %q before the first node:\n%s", want, transcript.String())
	}
}
