package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"matopt/internal/benchkit"
	"matopt/internal/core"
	"matopt/internal/obs"
	"matopt/internal/serve"
	"matopt/internal/tensor"
	gen "matopt/internal/workload"
)

// clients is how many closed-loop HTTP callers served_mix drives: each
// sends its next request only when the previous reply has been read.
const clients = 2

// reqClass is one kind of request in the served mix; share is its
// percentage of requests. Shares are set so the median request falls
// inside exec_small (45th–80th percentile of latency), not on a class
// boundary. The metric serve.<name>_p50_s is the class's median latency.
type reqClass struct {
	name  string
	share int
}

const (
	classOptimize = iota
	classPlan
	classExecSmall
	classExecDist
	classExecBigReply
	classExecLarge
	classMiss
)

var classes = []reqClass{
	classOptimize:     {"optimize", 20},      // /optimize, plan cached: chain S1/400, ffnn3/200
	classPlan:         {"plan", 15},          // /plan ffnn3/200, alternately encode and decode
	classExecSmall:    {"exec_small", 35},    // /execute seq: chain S1/400, chain S3/800
	classExecDist:     {"exec_dist", 10},     // /execute dist, 2 shards: chain S1/400
	classExecBigReply: {"exec_bigreply", 10}, // /execute seq ffnn/400: a large base64 reply
	classExecLarge:    {"exec_large", 6},     // /execute ffnn3/200, seq and dist
	classMiss:         {"miss", 4},           // /optimize of a graph never seen before
}

// scheduled is one pre-drawn request: its class, which of the class's
// variants, and the input seed of the spec it names.
type scheduled struct {
	class, variant int
	specSeed       int64
}

// warmupDecks is how many times over the warm-up deals the 100-request
// deck of exact class shares (workload.go asks for as many warm-ups).
const warmupDecks = 2

// scheduleLen is how many requests are drawn up front; a pass that
// outruns it wraps around (the miss class stays unique regardless,
// because its graph comes from a counter).
const scheduleLen = 1 << 16

// servedInst is a set-up served_mix: a serve.Server behind a loopback
// listener, the request schedule, and what verification remembers.
type servedInst struct {
	shrink  int64
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	reg     *obs.Registry
	url     string
	client  *http.Client

	schedule []scheduled
	next     atomic.Int64 // index of the next scheduled request
	nextOp   atomic.Int64
	planSeq  atomic.Int64 // /plan requests so far: even → encode, odd → decode
	missSeq  atomic.Int64 // miss requests so far
	missBase int64        // first never-seen hidden width

	mu      sync.Mutex
	payload json.RawMessage   // the latest /plan encode reply's plan
	digests map[string]string // spec → output digest, whatever the engine
	failLog

	probeG  *core.Graph
	probeIn map[string]*tensor.Dense
}

func setupServed(seed int64, lim limits) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &servedInst{shrink: lim.shrink, reg: obs.NewRegistry(), digests: map[string]string{}, served: make(chan error, 1)}

	// Drawn first so the schedule is a function of the seed alone.
	specSeedBase := 1 + 3*rng.Int63n(1000)
	s.missBase = 80000 + 400*(1+rng.Int63n(64))
	var deck []int
	for c, cl := range classes {
		for i := 0; i < cl.share; i++ {
			deck = append(deck, c)
		}
	}
	s.schedule = make([]scheduled, scheduleLen)
	for i := range s.schedule {
		s.schedule[i] = scheduled{class: deck[rng.Intn(len(deck))], variant: rng.Intn(2), specSeed: specSeedBase + rng.Int63n(3)}
	}
	// Set-up's warm-up runs the schedule's first requests: those hold
	// every class in its exact share, in seeded order, so that set-up is
	// the same work whatever the seed.
	for i, j := range rng.Perm(warmupDecks * len(deck)) {
		s.schedule[i].class = deck[j%len(deck)]
	}

	cfg := gen.ScaledFFNN(gen.PaperFFNN(80000), 200*lim.shrink)
	var err error
	if s.probeG, err = gen.FFNNThreePass(cfg); err != nil {
		return nil, err
	}
	s.probeIn = normalInputs(rng, s.probeG)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("server listen: %w", err)
	}
	s.srv = serve.New(serve.Config{Cluster: cluster, Registry: s.reg})
	s.httpSrv = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}

	// Fill the plan cache with the mix's recurring graphs and fetch the
	// payload the /plan decode requests post back, then warm up on the
	// schedule itself.
	for _, w := range []scheduled{
		{class: classPlan}, {class: classOptimize, variant: 0}, {class: classExecSmall, variant: 1, specSeed: specSeedBase},
		{class: classExecBigReply, specSeed: specSeedBase},
	} {
		if _, _, _, err := s.do(w, 0, nil); err != nil {
			s.close()
			return nil, fmt.Errorf("warming %s: %w", classes[w.class].name, err)
		}
	}
	if lim.warmups > 0 {
		if res := s.pass(limits{maxOps: lim.warmups}, nil); res.failed > 0 {
			s.close()
			return nil, fmt.Errorf("warm-up failed: %w", s.firstErr)
		}
	}
	return s, nil
}

func (s *servedInst) probeTarget() (*core.Graph, map[string]*tensor.Dense) {
	return s.probeG, s.probeIn
}

// verify has nothing left to do: every reply was checked as it arrived.
func (s *servedInst) verify() error { return nil }

func (s *servedInst) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench: drain:", err)
	}
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "bench: shutdown:", err)
	}
	<-s.served
	s.client.CloseIdleConnections()
}

// request builds the path, body and verification key of one scheduled
// request. traced asks the server to trace the request too.
func (s *servedInst) request(r scheduled, traced bool) (path string, body []byte, key string, decode bool, err error) {
	spec := func(w string, sizeset int, scale, hidden int64) serve.Spec {
		return serve.Spec{Workload: w, SizeSet: sizeset, Scale: scale * s.shrink, Hidden: hidden, Seed: r.specSeed}
	}
	chain400, ffnn3 := spec("chain", 1, 400, 0), spec("ffnn3", 0, 200, 0)
	var v any
	switch r.class {
	case classOptimize:
		path, v = "/optimize", serve.OptimizeRequest{Spec: []serve.Spec{chain400, ffnn3}[r.variant], Trace: traced}
	case classMiss:
		hidden := s.missBase + 400*s.shrink*s.missSeq.Add(1)
		path, v = "/optimize", serve.OptimizeRequest{Spec: spec("ffnn", 0, 400, hidden), Trace: traced}
	case classPlan:
		req := serve.PlanRequest{Spec: ffnn3, Trace: traced}
		if decode = s.planSeq.Add(1)%2 == 0; decode {
			s.mu.Lock()
			req.Plan = s.payload
			s.mu.Unlock()
		}
		path, v = "/plan", req
	default:
		req := serve.ExecuteRequest{Trace: traced}
		switch r.class {
		case classExecSmall:
			req.Spec = []serve.Spec{chain400, spec("chain", 3, 800, 0)}[r.variant]
		case classExecDist:
			req.Spec, req.Engine, req.Shards = chain400, "dist", shards
		case classExecBigReply:
			req.Spec = spec("ffnn", 0, 400, 0)
		case classExecLarge:
			req.Spec = ffnn3
			if r.variant == 1 {
				req.Engine, req.Shards = "dist", shards
			}
		}
		k, _ := json.Marshal(req.Spec)
		path, v, key = "/execute", req, string(k)
	}
	body, err = json.Marshal(v)
	return path, body, key, decode, err
}

// reply is the part of any endpoint's response the benchmark reads.
type reply struct {
	Cached  *bool `json:"cached"`
	Outputs []struct {
		DataB64 string `json:"data_b64"`
		SHA256  string `json:"sha256"`
	} `json:"outputs"`
	ElapsedMS float64         `json:"elapsed_ms"`
	Plan      json.RawMessage `json:"plan"`
	Nodes     int             `json:"nodes"`
	Valid     bool            `json:"valid"`
}

// do sends one request and verifies its reply. The latency is the time
// from sending to the last byte of the body; building the request and
// checking the reply are outside it (but inside the client's loop, as
// they are for a real caller).
func (s *servedInst) do(r scheduled, op int, rec *benchkit.Recorder) (lat, inner float64, n int64, err error) {
	path, body, key, decode, err := s.request(r, rec != nil)
	if err != nil {
		return 0, 0, 0, err
	}
	root := rec.Start(0, op, "op")
	defer rec.End(root)

	httpSpan := rec.Start(root, op, "http")
	t0 := time.Now()
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		rec.End(httpSpan)
		return time.Since(t0).Seconds(), 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat = time.Since(t0).Seconds()
	rec.End(httpSpan)
	n = int64(len(data))
	if err != nil {
		return lat, 0, n, fmt.Errorf("%s: reading reply: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return lat, 0, n, fmt.Errorf("%s: status %d: %.200s", path, resp.StatusCode, data)
	}

	verifySpan := rec.Start(root, op, "verify")
	defer rec.End(verifySpan)
	var rep reply
	if err := json.Unmarshal(data, &rep); err != nil {
		return lat, 0, n, fmt.Errorf("%s: reply is not JSON: %w", path, err)
	}
	rec.SetAttr(httpSpan, "elapsed_ms", rep.ElapsedMS)
	switch r.class {
	case classOptimize:
		if rep.Cached == nil {
			err = errors.New("reply lacks cached")
		}
	case classMiss:
		if rep.Cached == nil || *rep.Cached {
			err = errors.New("a never-seen graph was served from the plan cache")
		}
	case classPlan:
		switch {
		case decode && !rep.Valid:
			err = errors.New("the server's own plan payload did not validate")
		case !decode && (len(rep.Plan) == 0 || rep.Nodes == 0):
			err = errors.New("encode reply carries no plan")
		case !decode:
			s.mu.Lock()
			s.payload = rep.Plan
			s.mu.Unlock()
		}
	default:
		err = s.checkOutputs(&rep, key)
	}
	if err != nil {
		err = fmt.Errorf("%s (%s): %w", path, classes[r.class].name, err)
	}
	return lat, rep.ElapsedMS / 1e3, n, err
}

// checkOutputs recomputes every output's SHA-256 from its decoded
// base64 and requires all replies for one spec — sequential or dist —
// to carry the same bytes.
func (s *servedInst) checkOutputs(rep *reply, key string) error {
	if len(rep.Outputs) == 0 {
		return errors.New("reply has no outputs")
	}
	all := sha256.New()
	for i, o := range rep.Outputs {
		raw, err := base64.StdEncoding.DecodeString(o.DataB64)
		if err != nil {
			return fmt.Errorf("output %d is not base64: %w", i, err)
		}
		sum := sha256.Sum256(raw)
		if hex.EncodeToString(sum[:]) != o.SHA256 {
			return fmt.Errorf("output %d does not hash to its sha256", i)
		}
		all.Write(sum[:])
	}
	got := hex.EncodeToString(all.Sum(nil))
	s.mu.Lock()
	defer s.mu.Unlock()
	if want, ok := s.digests[key]; !ok {
		s.digests[key] = got
	} else if want != got {
		return errors.New("reply differs from an earlier reply for the same spec")
	}
	return nil
}

func (s *servedInst) pass(lim limits, rec *benchkit.Recorder) passResult {
	before := s.serverMeters()
	var mu sync.Mutex
	var res passResult
	var done atomic.Int64 // requests finished, for lim.done
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !lim.done(int(done.Load()), start) {
				r := s.schedule[(s.next.Add(1)-1)%scheduleLen]
				lat, inner, n, err := s.do(r, int(s.nextOp.Add(1)), rec)
				done.Add(1)
				mu.Lock()
				res.lat = append(res.lat, lat)
				res.class = append(res.class, r.class)
				res.inner = append(res.inner, inner)
				res.bytes += n
				res.wall = time.Since(start).Seconds()
				if err != nil {
					res.failed++
				}
				mu.Unlock()
				if err != nil {
					s.fail(err)
				}
			}
		}()
	}
	wg.Wait()
	after := s.serverMeters()
	res.rejected = after.rejected - before.rejected
	if n := after.requests - before.requests; n > 0 {
		res.queueWait = ((after.requestS - before.requestS) - (after.serviceS - before.serviceS)) / float64(n)
	}
	return res
}

// serverMeters is a reading of the server's own registry.
type serverMeters struct {
	requests           int64   // observations of serve.request.seconds
	requestS, serviceS float64 // summed request and service seconds
	rejected           int64   // serve.rejected, every reason
}

func (s *servedInst) serverMeters() serverMeters {
	var m serverMeters
	for _, x := range s.reg.Snapshot() {
		switch x.Name {
		case "serve.request.seconds":
			m.requests += x.Count
			m.requestS += x.Sum
		case "serve.service.seconds":
			m.serviceS += x.Sum
		case "serve.rejected":
			m.rejected += x.Value
		}
	}
	return m
}
