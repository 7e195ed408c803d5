package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"matopt"
	"matopt/internal/obs"
	"matopt/internal/plan"
	"matopt/internal/tensor"
)

// maxBodyBytes bounds a request body; plan payloads are the largest
// legitimate bodies and stay far under this.
const maxBodyBytes = 32 << 20

// badRequestError marks client errors (malformed JSON, invalid specs)
// for the 400 mapping.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

// routes assembles the service's endpoint table.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/optimize", endpoint(s, "optimize", s.handleOptimize))
	mux.Handle("/execute", endpoint(s, "execute", s.handleExecute))
	mux.Handle("/plan", endpoint(s, "plan", s.handlePlan))
	mux.Handle("/metrics", obs.MetricsHandler(s.reg))
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// handleHealthz reports liveness: 200 while serving, 503 once draining
// (load balancers stop routing here first, the drain finishes behind
// it).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "{\"status\":\"draining\"}\n")
		return
	}
	io.WriteString(w, "{\"status\":\"ok\"}\n")
}

// endpoint wraps one POST JSON handler with the service plumbing: the
// body read and decoded once into the endpoint's request type, admission
// control, the per-request deadline, the root span, the request/latency
// metrics, and error → status mapping. A malformed body is refused
// before it takes a place in the queue.
func endpoint[R request](s *Server, name string, fn func(ctx context.Context, req R, tr *obs.Tracer, root *obs.Span) (any, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", "POST")
			s.writeError(w, name, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
			return
		}
		var req R
		if err := readRequest(w, r, &req); err != nil {
			s.writeError(w, name, http.StatusBadRequest, err)
			return
		}
		deadline, trace := req.options()
		var tr *obs.Tracer
		var root *obs.Span
		if s.cfg.Tracing || trace {
			tr = obs.NewTracer()
			root = tr.Start(nil, "serve."+name)
		}
		qspan := tr.Start(root, "serve.queue")
		t0 := time.Now()
		var service time.Duration
		result, err := s.submit(r.Context(), deadline, func(ctx context.Context) (any, error) {
			qspan.End()
			hspan := tr.Start(root, "serve.handle")
			defer hspan.End()
			h0 := time.Now()
			res, herr := fn(ctx, req, tr, hspan)
			service = time.Since(h0)
			return res, herr
		})
		root.End()
		if err != nil {
			s.writeError(w, name, statusOf(err), err)
			return
		}
		s.reg.Histogram("serve.request.seconds", obs.DefaultDurationBuckets(), obs.L("endpoint", name)).
			Observe(time.Since(t0).Seconds())
		s.reg.Histogram("serve.service.seconds", obs.DefaultDurationBuckets(), obs.L("endpoint", name)).
			Observe(service.Seconds())
		if ts, ok := result.(traceSetter); ok && tr != nil {
			ts.setTrace(tr.Snapshot().Tree())
		}
		s.writeReply(w, name, http.StatusOK, result)
		if x, ok := result.(*executeReply); ok {
			x.release()
		}
	})
}

// readRequest reads r's body — at most maxBodyBytes — into a pooled
// buffer sized from Content-Length and decodes it into req. Decoding
// copies what it keeps, so the buffer is free again on return. A member
// req does not declare is refused, not ignored — a misspelled knob must
// not run at its default — and so is anything after the object. Every
// failure is the client's (a 400).
func readRequest(w http.ResponseWriter, r *http.Request, req any) error {
	if r.ContentLength > maxBodyBytes {
		return badRequestError{fmt.Errorf("reading body: %d bytes, limit %d", r.ContentLength, maxBodyBytes)}
	}
	buf := getBuf()
	defer putBuf(buf)
	// ReadFrom wants MinRead spare bytes before the read that finds EOF.
	buf.Grow(int(max(r.ContentLength, 0)) + bytes.MinRead)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return badRequestError{fmt.Errorf("reading body: %w", err)}
	}
	dec := json.NewDecoder(buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return badRequestError{fmt.Errorf("invalid JSON: %w", err)}
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequestError{errors.New("invalid JSON: data after the request object")}
	}
	return nil
}

// statusOf maps service errors to HTTP statuses: admission rejections
// to 429/503, deadlines to 504, client mistakes to 400, everything else
// to 500.
func statusOf(err error) int {
	var bad badRequestError
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests // 429
	case errors.Is(err, ErrQueueTimeout), errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable // 503
	case errors.Is(err, matopt.ErrTimeout), errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout // 504
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable // client went away or drain cancelled us
	case errors.As(err, &bad), errors.Is(err, matopt.ErrInfeasible):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// graphOf builds only the normalized spec's compute graph — all that
// optimizing, encoding or simulating a plan reads.
func graphOf(spec Spec) (*matopt.Builder, error) {
	g, err := spec.Graph()
	if err != nil {
		return nil, err
	}
	return matopt.NewBuilderFromGraph(g), nil
}

// optimizeSpec runs the shared optimizer on a spec's graph and records
// the coalesce outcome — the core of /optimize, /execute, and /plan.
func (s *Server) optimizeSpec(ctx context.Context, b *matopt.Builder) (*matopt.Plan, error) {
	p, err := s.opt.OptimizeCtx(ctx, b)
	if err != nil {
		return nil, err
	}
	switch {
	case p.Cached():
		s.reg.Counter("serve.coalesce", obs.L("result", "hit")).Inc()
	case p.Coalesced():
		s.reg.Counter("serve.coalesce", obs.L("result", "waiter")).Inc()
	default:
		s.reg.Counter("serve.coalesce", obs.L("result", "leader")).Inc()
	}
	return p, nil
}

func (s *Server) handleOptimize(ctx context.Context, req OptimizeRequest, tr *obs.Tracer, span *obs.Span) (any, error) {
	spec := req.Spec.Normalized()
	b, err := graphOf(spec)
	if err != nil {
		return nil, badRequestError{err}
	}
	p, err := s.optimizeSpec(ctx, b)
	if err != nil {
		return nil, err
	}
	span.SetBool("cached", p.Cached()).SetBool("coalesced", p.Coalesced())
	resp := &OptimizeResponse{
		Spec:             spec,
		Fingerprint:      p.Fingerprint(),
		PredictedSeconds: p.PredictedSeconds(),
		OptimizerSeconds: p.OptimizerStats().WallSeconds,
		Cached:           p.Cached(),
		Coalesced:        p.Coalesced(),
		Plan:             p.Describe(),
	}
	if req.Explain {
		if resp.Explain, err = p.Explain(); err != nil {
			return nil, err
		}
	}
	return resp, nil
}

func (s *Server) handleExecute(ctx context.Context, req ExecuteRequest, tr *obs.Tracer, span *obs.Span) (any, error) {
	if err := req.validate(); err != nil {
		return nil, badRequestError{err}
	}
	engine := cmp.Or(req.Engine, "seq")
	spec := req.Spec.Normalized()
	var b *matopt.Builder
	var inputs map[string]*tensor.Dense
	var err error
	if engine == "sim" { // simulates the plan; reads no matrix
		b, err = graphOf(spec)
	} else {
		b, inputs, err = s.materialize(spec)
	}
	if err != nil {
		return nil, badRequestError{err}
	}
	p, err := s.optimizeSpec(ctx, b)
	if err != nil {
		return nil, err
	}
	span.SetStr("engine", engine).SetBool("cached", p.Cached()).SetBool("coalesced", p.Coalesced())
	resp := &ExecuteResponse{
		Spec: spec, Engine: engine, Fingerprint: p.Fingerprint(),
		Cached: p.Cached(), Coalesced: p.Coalesced(),
	}
	t0 := time.Now()
	reply := any(resp)
	switch engine {
	case "sim":
		rep, err := matopt.Simulate(p)
		if err != nil {
			return nil, err
		}
		resp.Sim = &SimSummary{
			Seconds: rep.Seconds,
			FLOPs:   rep.Features.FLOPs, NetBytes: rep.Features.NetBytes,
			InterBytes: rep.Features.InterBytes, Tuples: rep.Features.Tuples,
			PeakWorkerBytes: rep.PeakWorkerBytes,
		}
	case "seq", "dist":
		kind := matopt.SequentialEngine
		if engine == "dist" {
			kind = matopt.DistEngine
		}
		x := matopt.NewExecutor(s.cfg.Cluster, matopt.WithExecConfig(req.ExecConfig),
			matopt.WithEngineKind(kind), matopt.WithTracing(tr))
		outs, err := x.RunCtx(ctx, p, inputs)
		if err != nil {
			return nil, err
		}
		reply = &executeReply{ExecuteResponse: resp, outs: outs}
		resp.Dist = x.DistReport()
	}
	resp.ElapsedMS = float64(time.Since(t0).Microseconds()) / 1000
	return reply, nil
}

func (s *Server) handlePlan(ctx context.Context, req PlanRequest, tr *obs.Tracer, span *obs.Span) (any, error) {
	spec := req.Spec.Normalized()
	b, err := graphOf(spec)
	if err != nil {
		return nil, badRequestError{err}
	}
	resp := &PlanResponse{Spec: spec}
	if len(req.Plan) > 0 {
		// Decode mode: replay a serialized plan against this spec's
		// graph and environment. A payload lowered for a different
		// computation or cluster is rejected by its fingerprint.
		span.SetStr("mode", "decode")
		p, err := s.opt.DecodePlan(b, req.Plan)
		if errors.Is(err, plan.ErrInvalidPlan) {
			return nil, badRequestError{err}
		} else if err != nil {
			return nil, err
		}
		resp.Valid = true
		return resp.describe(p), nil
	}
	// Encode mode: optimize (through the cache and the coalescing
	// boundary) and serialize the lowered plan.
	span.SetStr("mode", "encode")
	p, err := s.optimizeSpec(ctx, b)
	if err != nil {
		return nil, err
	}
	pp, _ := p.Physical()
	if resp.Plan, err = plan.Encode(pp, s.opt.Env()); err != nil {
		return nil, err
	}
	return resp.describe(p), nil
}

// describe fills the summary both /plan modes return for p.
func (r *PlanResponse) describe(p *matopt.Plan) *PlanResponse {
	pp, _ := p.Physical()
	r.Fingerprint = p.Fingerprint()
	r.Nodes = len(pp.Nodes)
	r.PredictedSeconds = pp.PredictedSeconds()
	r.Explain = pp.Explain()
	return r
}
