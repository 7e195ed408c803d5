// Command matoptd is the optimize-and-execute daemon: it serves the
// optimizer and the execution engines over JSON HTTP so many clients
// share one plan cache and one coalescing boundary.
//
// Endpoints (all POST JSON unless noted):
//
//	/optimize  optimize a workload spec; returns the annotated plan,
//	           its fingerprint, predicted seconds, and cache/coalesce
//	           provenance
//	/execute   optimize and run a spec on the chosen engine (seq, dist
//	           with shards/faults/fallback, or sim); outputs are
//	           base64-encoded float64 bits with SHA-256 digests
//	/plan      serialize the optimized physical plan, or validate a
//	           previously serialized one against a spec (round-trips
//	           plan.Encode/Decode)
//	/metrics   GET; the metrics registry as text or JSON (?format=json)
//	/healthz   GET; 200 while serving, 503 once draining
//
// Admission control bounds concurrent executions (-workers) and the
// wait queue (-max-queue); a request hitting a full queue gets 429
// immediately, one waiting past -queue-timeout gets 503, and every
// request runs under -request-timeout (shortenable per request with
// "deadline_ms"). SIGINT/SIGTERM starts a graceful drain: health flips
// to 503, new requests are shed, in-flight requests finish (bounded by
// -drain-timeout), then the listener closes.
//
// Usage:
//
//	matoptd -addr :8080 -workers 8 -cluster-workers 5
//	curl -s localhost:8080/optimize -d '{"workload":"chain"}'
//
// With -worker the process is an exchange worker instead: it hosts the
// dist engine's shuffle inboxes for remote shards over the netfabric
// TCP transport, serving coordinators started with `matopt -peers` (or
// a daemon handling "peers" execute requests). A coordinator opens a
// session on it only for an exchange that sends it a message; the worker
// checks each frame and echoes it back, and holds no plan state — it can
// join or leave between runs freely.
//
//	matoptd -worker -listen 127.0.0.1:9431
//	matopt -workload chain -engine dist -shards 4 -peers 127.0.0.1:9431
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"matopt/internal/netfabric"
	"matopt/internal/serve"
	"matopt/internal/tensor"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("matoptd: ")

	var cfg daemonConfig
	flag.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.Workers, "workers", 0, "concurrent request executions (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.MaxQueue, "max-queue", 64, "admission queue depth (0 = default)")
	flag.DurationVar(&cfg.QueueTimeout, "queue-timeout", 5*time.Second, "max wait in the admission queue")
	flag.DurationVar(&cfg.RequestTimeout, "request-timeout", 60*time.Second, "default per-request deadline")
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", 30*time.Second, "graceful-drain bound on shutdown")
	flag.StringVar(&cfg.Formats, "formats", "all", "format universe: all | dense")
	flag.IntVar(&cfg.ClusterWorkers, "cluster-workers", 5, "cost-model cluster size (paper's r5d cluster)")
	flag.IntVar(&cfg.PlanCache, "plan-cache", 0, "plan-cache capacity (0 = default)")
	flag.BoolVar(&cfg.Trace, "trace", false, "attach a tracer to every request")
	flag.BoolVar(&cfg.Worker, "worker", false, "run as a netfabric exchange worker (serves matopt -peers coordinators)")
	flag.StringVar(&cfg.Listen, "listen", "", "worker-mode listen address (e.g. 127.0.0.1:9431)")
	flag.Parse()
	if err := cfg.validate(); err != nil {
		log.Fatal(err)
	}
	if cfg.Worker {
		runWorker(cfg.Listen)
		return
	}

	log.Printf("tensor kernels: %s", tensor.ISA())
	srv := serve.New(cfg.serveConfig())
	httpSrv := &http.Server{Addr: cfg.Addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (workers=%d queue=%d)", cfg.Addr, cfg.Workers, cfg.MaxQueue)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("listener failed: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: shed new work, finish in-flight requests, then
	// close the listener (whose handlers have all returned by now).
	log.Printf("signal received; draining (bound %v)", cfg.DrainTimeout)
	start := time.Now()
	if err := srv.Drain(context.Background()); err != nil {
		log.Printf("drain hit its deadline; stragglers were cancelled: %v", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("listener shutdown: %v", err)
	}
	<-errc // ListenAndServe has returned
	log.Printf("drained and stopped in %v", time.Since(start).Round(time.Millisecond))
}

// runWorker hosts exchange inboxes on addr until SIGINT/SIGTERM.
func runWorker(addr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("worker listen %s: %v", addr, err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serveWorker(ctx, ln, log.Printf); err != nil {
		log.Fatalf("worker failed: %v", err)
	}
}

// serveWorker serves exchanges on ln until ctx is done, then shuts down
// gracefully: stop accepting, sever live connections, wait for every
// handler to exit. A worker is not a black box: every session it
// rejects is one logf line (peer address, typed error), and the totals
// of what it served, relayed and rejected are logged as it stops.
func serveWorker(ctx context.Context, ln net.Listener, logf func(format string, args ...any)) error {
	srv := netfabric.NewServer()
	srv.Logf = logf
	errc := make(chan error, 1)
	go func() {
		logf("worker serving exchanges on %s", ln.Addr())
		errc <- srv.Serve(ln)
	}()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logf("signal received; closing worker")
	start := time.Now()
	if err := srv.Close(); err != nil {
		logf("worker close: %v", err)
	}
	<-errc // Serve has returned
	st := srv.Stats()
	logf("worker served %d sessions (%d frames, %d B relayed), rejected %d", st.Sessions, st.Frames, st.Bytes, st.Rejected)
	logf("worker stopped in %v", time.Since(start).Round(time.Millisecond))
	return nil
}
