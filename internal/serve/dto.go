package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"matopt"
	"matopt/internal/workload"
)

// Spec names the computation a request wants optimized or executed. It
// is workload.Spec — the one workload catalogue, whose field comments
// document the wire format — under the name request bodies and clients
// have always embedded.
type Spec = workload.Spec

// OptimizeRequest is the /optimize body: a workload Spec plus options.
type OptimizeRequest struct {
	Spec
	// Explain asks for the lowered physical plan's per-operator listing.
	Explain bool `json:"explain,omitempty"`
	// DeadlineMS shortens the server's default request timeout.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Trace asks for the request's span tree in the response.
	Trace bool `json:"trace,omitempty"`
}

// OptimizeResponse reports an optimized plan.
type OptimizeResponse struct {
	// Spec echoes the normalized computation served.
	Spec Spec `json:"spec"`
	// Fingerprint identifies (graph, environment) — the plan-cache and
	// coalescing key.
	Fingerprint string `json:"fingerprint"`
	// PredictedSeconds is the cost model's total predicted running time.
	PredictedSeconds float64 `json:"predicted_seconds"`
	// OptimizerSeconds is the search's wall time (0 when served from
	// the cache or coalesced onto another request's search).
	OptimizerSeconds float64 `json:"optimizer_seconds"`
	// Cached reports a plan-cache hit; Coalesced reports that the
	// request waited on an identical concurrent optimization.
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced"`
	// Plan is the annotated plan rendering (Plan.Describe).
	Plan string `json:"plan"`
	// Explain carries the physical-operator listing when requested.
	Explain string `json:"explain,omitempty"`
	TraceOut
}

// ExecuteRequest is the /execute body: a Spec, the engine selection and
// matopt.ExecConfig, whose JSON-tagged fields (shards, kernel_threads,
// max_retries, fallback, faults, fault_seed, peers) sit
// flattened beside the spec's; its field comments are their reference,
// zero values and bounds included. A member no field declares is a 400.
type ExecuteRequest struct {
	Spec
	matopt.ExecConfig
	// Engine selects the runtime: seq | dist | sim (default seq).
	Engine string `json:"engine,omitempty"`
	// DeadlineMS shortens the server's default request timeout.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Trace asks for the request's span tree in the response.
	Trace bool `json:"trace,omitempty"`
}

// validate rejects engine configurations the executor cannot run.
func (r ExecuteRequest) validate() error {
	switch r.Engine {
	case "", "seq", "dist", "sim":
	default:
		return fmt.Errorf("unknown engine %q (want seq, dist or sim)", r.Engine)
	}
	return r.ExecConfig.Validate(r.Engine == "dist")
}

// OutputMatrix is one result matrix: dimensions, the raw float64 bits
// base64-encoded little-endian (bit-exact across the wire — JSON float
// formatting never touches the data), and a SHA-256 of those bytes for
// cheap comparison. The server never builds one: it streams a matrix
// into the reply in this form (executeReply); clients decode into it.
type OutputMatrix struct {
	// Vertex is the producing sink vertex's ID.
	Vertex int `json:"vertex"`
	// Rows and Cols are the matrix dimensions.
	Rows int `json:"rows"`
	Cols int `json:"cols"`
	// DataB64 is base64(little-endian float64 bits), row-major.
	DataB64 string `json:"data_b64"`
	// SHA256 is the hex digest of the encoded bytes.
	SHA256 string `json:"sha256"`
}

// SimSummary is the simulator's paper-scale resource report in wire
// form.
type SimSummary struct {
	// Seconds is the virtual wall time on the configured cluster.
	Seconds float64 `json:"seconds"`
	// FLOPs, NetBytes, InterBytes and Tuples are the plan's analytic
	// features.
	FLOPs      float64 `json:"flops"`
	NetBytes   float64 `json:"net_bytes"`
	InterBytes float64 `json:"inter_bytes"`
	Tuples     float64 `json:"tuples"`
	// PeakWorkerBytes is the largest per-worker working set.
	PeakWorkerBytes float64 `json:"peak_worker_bytes"`
}

// ExecuteResponse reports an executed (or simulated) plan.
type ExecuteResponse struct {
	// Spec echoes the normalized computation served; Engine the runtime
	// that produced the outputs.
	Spec   Spec   `json:"spec"`
	Engine string `json:"engine"`
	// Fingerprint, Cached and Coalesced describe how the plan was
	// obtained (see OptimizeResponse).
	Fingerprint string `json:"fingerprint"`
	Cached      bool   `json:"cached"`
	Coalesced   bool   `json:"coalesced"`
	// Outputs holds every sink's matrix, ordered by vertex ID (absent
	// for engine sim).
	Outputs []OutputMatrix `json:"outputs,omitempty"`
	// Dist is the dist run's report in its JSON form (engine dist only).
	Dist *matopt.DistReport `json:"dist,omitempty"`
	// Sim carries the simulator's report (engine sim only).
	Sim *SimSummary `json:"sim,omitempty"`
	// ElapsedMS is service time (queue wait excluded) in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	TraceOut
}

// PlanRequest is the /plan body. Without Plan it optimizes the spec and
// returns the serialized physical plan; with Plan it decodes the
// payload against the spec's graph and environment — fingerprint
// checked, node listing cross-checked — and returns its summary.
type PlanRequest struct {
	Spec
	// Plan is an Encode payload to validate and summarize; omit it to
	// ask for a fresh one.
	Plan json.RawMessage `json:"plan,omitempty"`
	// DeadlineMS shortens the server's default request timeout.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Trace asks for the request's span tree in the response.
	Trace bool `json:"trace,omitempty"`
}

// PlanResponse reports a serialized or validated physical plan.
type PlanResponse struct {
	// Spec echoes the normalized computation served.
	Spec Spec `json:"spec"`
	// Fingerprint identifies (graph, environment).
	Fingerprint string `json:"fingerprint"`
	// Nodes counts the plan's physical operators.
	Nodes int `json:"nodes"`
	// PredictedSeconds is the plan's model-predicted running time.
	PredictedSeconds float64 `json:"predicted_seconds"`
	// Explain is the per-operator listing.
	Explain string `json:"explain"`
	// Plan carries the serialized physical plan (encode mode only);
	// POST it back to round-trip.
	Plan json.RawMessage `json:"plan,omitempty"`
	// Valid is true in decode mode when the payload passed the
	// fingerprint and node cross-checks.
	Valid bool `json:"valid,omitempty"`
	TraceOut
}

// TraceOut is the optional span-tree tail of a response; the endpoint
// wrapper fills it when the request asked for tracing.
type TraceOut struct {
	// Trace is the rendered span tree of this request.
	Trace string `json:"trace,omitempty"`
}

func (t *TraceOut) setTrace(tree string) { t.Trace = tree }

// traceSetter lets the endpoint wrapper attach the span tree to any
// response embedding TraceOut.
type traceSetter interface{ setTrace(string) }

// errorResponse is the JSON error body every endpoint returns on
// failure.
type errorResponse struct {
	Error string `json:"error"`
}

// request is what the endpoint wrapper reads off a decoded body before
// dispatch: the deadline the request asks for (0 = the server's default)
// and whether it wants its span tree back.
type request interface {
	options() (deadline time.Duration, trace bool)
}

func (r OptimizeRequest) options() (time.Duration, bool) { return ms(r.DeadlineMS), r.Trace }
func (r ExecuteRequest) options() (time.Duration, bool)  { return ms(r.DeadlineMS), r.Trace }
func (r PlanRequest) options() (time.Duration, bool)     { return ms(r.DeadlineMS), r.Trace }

func ms(n int64) time.Duration { return time.Duration(n) * time.Millisecond }
