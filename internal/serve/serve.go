// Package serve is the long-running service layer over the optimizer
// and the execution engines: a JSON-over-HTTP front end (/optimize,
// /execute, /plan, /metrics, /healthz) with admission control,
// singleflight coalescing of identical concurrent computations (through
// the optimizer's plan cache), and graceful drain. It is the substrate
// a deployment of this system serves heavy traffic through: the
// optimize-once/execute-many split the paper assumes of its host system
// (SimSQL/PlinyCompute) becomes optimize-once-per-fingerprint across
// every connected client.
//
// An /execute body is a workload Spec, an engine name and — embedded,
// so its JSON tags are the wire format — matopt.ExecConfig, the one
// declaration of the run-time knobs; the handler validates it with
// ExecConfig.Validate (→ 400) and hands it to the Executor unchanged.
//
// Admission control is two bounds and two clocks, applied on the
// goroutine the request arrived on: at most Workers requests execute,
// at most MaxQueue wait; one that finds both full is rejected at once
// with ErrOverloaded (HTTP 429), one that waits longer than QueueTimeout
// with ErrQueueTimeout (HTTP 503), and each runs under a deadline
// (deadline_ms, default RequestTimeout) covering wait plus service.
// Drain stops admission (healthz flips to draining, new requests get
// ErrDraining), lets in-flight work finish and cancels whatever is
// still running when the drain context expires.
package serve

import (
	"context"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"matopt"
	"matopt/internal/costmodel"
	"matopt/internal/obs"
	"matopt/internal/tensor"
)

// Typed admission-control rejections; the HTTP layer maps them to
// status codes (ErrOverloaded → 429, ErrQueueTimeout and ErrDraining →
// 503) and every rejection increments serve.rejected{reason=...}.
var (
	// ErrOverloaded reports that the request queue was full at arrival:
	// the server sheds load immediately instead of queuing unboundedly.
	ErrOverloaded = errors.New("serve: overloaded — request queue full")
	// ErrQueueTimeout reports that the request waited in the admission
	// queue longer than the queue timeout without reaching a worker.
	ErrQueueTimeout = errors.New("serve: timed out waiting in the admission queue")
	// ErrDraining reports that the server has begun graceful shutdown
	// and no longer admits requests.
	ErrDraining = errors.New("serve: draining — not admitting requests")
)

// Config parameterizes a Server. The zero value of every field takes
// the documented default, so serve.New(serve.Config{Cluster: cl}) is a
// working server.
type Config struct {
	// Cluster is the hardware profile plans are optimized for (default
	// the local-test profile sized to Workers).
	Cluster matopt.Cluster
	// Formats restricts the optimizer's format universe (default
	// AllFormats).
	Formats matopt.FormatSet
	// Workers bounds how many requests execute concurrently (default
	// GOMAXPROCS).
	Workers int
	// MaxQueue bounds how many admitted requests may wait for a worker;
	// a request arriving at a full queue is rejected with ErrOverloaded
	// (default 64).
	MaxQueue int
	// QueueTimeout bounds how long a request may wait in the queue
	// before being rejected with ErrQueueTimeout (default 5s).
	QueueTimeout time.Duration
	// RequestTimeout is the default per-request deadline covering queue
	// wait and service; requests may shorten it with deadline_ms
	// (default 60s).
	RequestTimeout time.Duration
	// DrainTimeout bounds Drain when the caller's context carries no
	// deadline of its own (default 30s).
	DrainTimeout time.Duration
	// PlanCacheSize overrides the optimizer's plan-cache capacity
	// (default matopt.DefaultPlanCacheSize).
	PlanCacheSize int
	// Tracing attaches a per-request tracer with a root span to every
	// request; request bodies can also ask for one with "trace": true.
	Tracing bool
	// Registry receives the server's metrics (default obs.Default()).
	Registry *obs.Registry
}

// withDefaults fills in the zero-valued fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Cluster.Workers == 0 {
		c.Cluster = costmodel.LocalTest(c.Workers)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	return c
}

// Server is the concurrent optimize-and-execute service. Create one
// with New, expose Handler on an http.Server, and stop it with Drain.
type Server struct {
	cfg Config
	opt *matopt.Optimizer
	reg *obs.Registry
	mux *http.ServeMux

	inputs *inputCache // materialized inputs of recently executed specs

	slots   chan struct{} // capacity Workers: a send is the right to execute
	waiting atomic.Int64  // requests blocked on slots, at most MaxQueue

	// mu guards the admission gate: the in-flight count and the
	// draining flag flip together, so a request is either counted
	// (and drained properly) or rejected — never lost between the two.
	mu        sync.Mutex
	cond      *sync.Cond
	nInflight int64

	draining  atomic.Bool // mirror of the gate's flag for lock-free reads
	drainOnce sync.Once
	drainErr  error

	baseCtx    context.Context
	baseCancel context.CancelFunc
}

// New returns a server whose handler is ready to serve. Stop it with
// Drain.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	opts := []matopt.Option{matopt.WithFormats(cfg.Formats)}
	if cfg.PlanCacheSize > 0 {
		opts = append(opts, matopt.WithPlanCacheSize(cfg.PlanCacheSize))
	}
	s := &Server{
		cfg:    cfg,
		opt:    matopt.NewOptimizer(cfg.Cluster, opts...),
		reg:    cfg.Registry,
		inputs: newInputCache(inputBudget, cfg.Registry.Gauge("serve.inputs.bytes")),
		slots:  make(chan struct{}, cfg.Workers),
	}
	// A constant: which bodies the multiply-accumulate kernels run on in
	// this process, so a scrape says what its timings were measured on.
	s.reg.Gauge("matopt.tensor.kernel_isa", obs.L("isa", tensor.ISA())).Set(1)
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux = s.routes()
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// submit runs fn on the caller's goroutine under admission control and
// the request's deadline. It blocks until fn returns, the request is
// rejected, or its context dies while it waits.
func (s *Server) submit(ctx context.Context, deadline time.Duration, fn func(ctx context.Context) (any, error)) (any, error) {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		s.reject("draining")
		return nil, ErrDraining
	}
	s.nInflight++
	s.reg.Gauge("serve.inflight").Set(s.nInflight)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.nInflight--
		s.reg.Gauge("serve.inflight").Set(s.nInflight)
		if s.nInflight == 0 {
			s.cond.Broadcast()
		}
		s.mu.Unlock()
	}()

	if deadline <= 0 {
		deadline = s.cfg.RequestTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	// A drain deadline cancels whatever is still running.
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	arrived := time.Now()
	select {
	case s.slots <- struct{}{}:
	default:
		if err := s.waitForSlot(ctx); err != nil {
			return nil, err
		}
	}
	defer func() { <-s.slots }()
	s.reg.Histogram("serve.queue.wait.seconds", obs.DefaultDurationBuckets()).
		Observe(time.Since(arrived).Seconds())
	return fn(ctx)
}

// waitForSlot blocks for an execution slot as one of at most MaxQueue
// waiters. The runtime hands a freed slot to the longest-blocked sender,
// so waiters are admitted in arrival order and a new arrival cannot
// overtake them.
func (s *Server) waitForSlot(ctx context.Context) error {
	if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
		s.waiting.Add(-1)
		s.reject("overloaded")
		return ErrOverloaded
	}
	defer s.waiting.Add(-1)
	queueTimer := time.NewTimer(s.cfg.QueueTimeout)
	defer queueTimer.Stop()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-queueTimer.C:
		s.reject("queue_timeout")
		return ErrQueueTimeout
	case <-ctx.Done():
		s.reject("deadline")
		return ctx.Err()
	}
}

func (s *Server) reject(reason string) {
	s.reg.Counter("serve.rejected", obs.L("reason", reason)).Inc()
}

// Drain gracefully stops the server: admission closes immediately
// (healthz flips to draining, new requests are rejected with
// ErrDraining), in-flight requests — queued or executing — run to
// completion, and when ctx expires first, whatever is still running is
// cancelled and its error returned to its requester. The server owns
// no goroutine, so a drained one leaves none behind; a zero-deadline
// ctx gets the configured DrainTimeout. Drain is idempotent —
// concurrent and repeated calls share one shutdown and one result.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		start := time.Now()
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.DrainTimeout)
			defer cancel()
		}
		s.mu.Lock()
		s.draining.Store(true)
		s.mu.Unlock()
		idle := make(chan struct{})
		go func() {
			s.mu.Lock()
			for s.nInflight > 0 {
				s.cond.Wait()
			}
			s.mu.Unlock()
			close(idle)
		}()
		select {
		case <-idle:
		case <-ctx.Done():
			// Past the drain deadline: cancel every in-flight request's
			// context. The optimizer and both engines are context-aware,
			// so requesters get answers (errors) promptly.
			s.baseCancel()
			<-idle
			s.drainErr = ctx.Err()
		}
		s.baseCancel()
		// Flush: record the drain itself so a scraped /metrics endpoint
		// (or the daemon's exit log) carries the shutdown's shape.
		s.reg.Counter("serve.drains").Inc()
		s.reg.Histogram("serve.drain.seconds", obs.DefaultDurationBuckets()).
			Observe(time.Since(start).Seconds())
	})
	return s.drainErr
}
