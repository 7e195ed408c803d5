package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"matopt"
	"matopt/internal/costmodel"
	"matopt/internal/dist"
	"matopt/internal/obs"
	"matopt/internal/tensor"
)

// encodeDense converts an output matrix to its wire form by building the
// whole little-endian byte slice and the base64 string — how the server
// did it before it streamed outputs into the reply. It stays here as the
// oracle the streamed bytes are held against, and is what the load
// tests build a direct Executor run's expected response with.
func encodeDense(vertex int, d *tensor.Dense) OutputMatrix {
	buf := make([]byte, 8*len(d.Data))
	for i, v := range d.Data {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	sum := sha256.Sum256(buf)
	return OutputMatrix{
		Vertex: vertex, Rows: d.Rows, Cols: d.Cols,
		DataB64: base64.StdEncoding.EncodeToString(buf),
		SHA256:  hex.EncodeToString(sum[:]),
	}
}

// postRaw issues a JSON POST through the server's handler and returns
// the recorded response.
func postRaw(s *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec
}

// wantWire is the contract of every reply: json.Marshal of the DTO and
// a newline, with a Content-Length that says so.
func wantWire(t *testing.T, name string, rec *httptest.ResponseRecorder, dto any) {
	t.Helper()
	want, err := json.Marshal(dto)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want = append(want, '\n')
	if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
		t.Errorf("%s: wire bytes differ from json.Marshal of the DTO\n got %.300s\nwant %.300s", name, got, want)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Errorf("%s: Content-Length %q, body is %d bytes", name, cl, len(want))
	}
}

// TestReplyBytesEqualMarshal holds every kind of reply the server sends
// against json.Marshal of the unchanged DTO, the outputs rebuilt by the
// encodeDense oracle from the matrices the reply decodes to.
func TestReplyBytesEqualMarshal(t *testing.T) {
	t.Run("matrices", testStreamedMatrices)

	s := New(testConfig(2, 8))
	defer s.Drain(context.Background())

	for _, c := range []struct {
		name, path, body string
		dto              any
	}{
		{"execute seq", "/execute", `{"workload":"chain","scale":400}`, &ExecuteResponse{}},
		{"execute seq traced", "/execute", `{"workload":"chain","scale":400,"trace":true}`, &ExecuteResponse{}},
		{"execute dist", "/execute", executeDistBody, &ExecuteResponse{}},
		{"execute dist traced", "/execute", `{"workload":"ffnn3","scale":4000,"engine":"dist","shards":2,"trace":true}`, &ExecuteResponse{}},
		{"execute bigreply", "/execute", `{"workload":"ffnn","scale":400,"seed":3}`, &ExecuteResponse{}},
		{"execute sim", "/execute", `{"workload":"ffnn","engine":"sim"}`, &ExecuteResponse{}},
		{"execute sim traced", "/execute", `{"workload":"ffnn","engine":"sim","trace":true}`, &ExecuteResponse{}},
		{"optimize explain", "/optimize", `{"workload":"ffnn3","scale":200,"explain":true}`, &OptimizeResponse{}},
		{"optimize traced", "/optimize", `{"workload":"inverse","trace":true}`, &OptimizeResponse{}},
		{"plan encode", "/plan", `{"workload":"ffnn","scale":4000}`, &PlanResponse{}},
	} {
		rec := postRaw(s, c.path, c.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), c.dto); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if resp, ok := c.dto.(*ExecuteResponse); ok {
			if (resp.Engine == "sim") != (len(resp.Outputs) == 0) || (resp.Engine == "dist") != (resp.Dist != nil) {
				t.Fatalf("%s: engine %s with %d outputs, dist %v", c.name, resp.Engine, len(resp.Outputs), resp.Dist)
			}
			for i, o := range resp.Outputs {
				resp.Outputs[i] = encodeDense(o.Vertex, decodeOutput(t, o))
			}
			if strings.Contains(c.body, `"trace"`) != (resp.Trace != "") {
				t.Fatalf("%s: trace %q", c.name, resp.Trace)
			}
		}
		wantWire(t, c.name, rec, c.dto)

		if enc, ok := c.dto.(*PlanResponse); ok { // and the decode of what encode returned
			body, _ := json.Marshal(PlanRequest{Spec: Spec{Workload: "ffnn", Scale: 4000}, Plan: enc.Plan, Trace: true})
			rec := postRaw(s, "/plan", string(body))
			var dec PlanResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &dec); err != nil || !dec.Valid || dec.Trace == "" {
				t.Fatalf("plan decode: %v, %s", err, rec.Body)
			}
			wantWire(t, "plan decode", rec, &dec)
		}
	}

	for _, c := range []struct {
		name, method, path, body string
		code                     int
	}{
		{"bad workload", "POST", "/optimize", `{"workload":"<fft>&"}`, 400},
		{"malformed", "POST", "/execute", `{nope`, 400},
		{"empty body", "POST", "/plan", ``, 400},
		{"wrong method", "GET", "/execute", ``, 405},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" || rec.Code != c.code {
			t.Fatalf("%s: status %d, body %q (%v)", c.name, rec.Code, rec.Body, err)
		}
		wantWire(t, c.name, rec, e)
	}
}

// TestDistReplyBytes: the reply's "dist" member is dist.Report's JSON
// form, pinned byte for byte with every summary field set and with none
// set: the members' order, their omitempty rules and their encoding.
func TestDistReplyBytes(t *testing.T) {
	full := &matopt.DistReport{
		Shards: 3, NetBytes: 46000, Messages: 4, PeakBytes: 123456, Wall: 7890123 * time.Nanosecond,
		FaultsInjected: 2, Retries: 5, Transport: "tcp",
		WireBytes: 51234, WireMessages: 12, WireDials: 2, WireReconnects: 1,
		Degraded: true, DegradedCause: `dist: "v3" <crash> & more`,
		// Off the wire.
		Exchanges: []dist.ExchangeStat{{Vertex: 1, Bytes: 9}}, ShardBusy: []time.Duration{1, 2, 3},
		RetriesByVertex: map[int]int{1: 5}, KernelThreads: 4, KernelTime: time.Second,
	}
	for _, c := range []struct {
		rep  *matopt.DistReport
		want string
	}{
		{full, `{"spec":{"workload":""},"engine":"dist","fingerprint":"f00d","cached":false,"coalesced":false,"dist":{"shards":3,"net_bytes":46000,"messages":4,"peak_bytes":123456,"wall_ns":7890123,"faults_injected":2,"retries":5,"transport":"tcp","wire_bytes":51234,"wire_messages":12,"wire_dials":2,"wire_reconnects":1,"degraded":true,"degraded_cause":"dist: \"v3\" \u003ccrash\u003e \u0026 more"},"elapsed_ms":0}`},
		{&matopt.DistReport{}, `{"spec":{"workload":""},"engine":"dist","fingerprint":"f00d","cached":false,"coalesced":false,"dist":{"shards":0,"net_bytes":0,"messages":0,"peak_bytes":0,"wall_ns":0,"faults_injected":0,"retries":0,"degraded":false},"elapsed_ms":0}`},
	} {
		got, err := json.Marshal(&ExecuteResponse{Engine: "dist", Fingerprint: "f00d", Dist: c.rep})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("reply bytes moved:\n got %s\nwant %s", got, c.want)
		}
	}
}

// testStreamedMatrices drives the streaming encoder directly with the
// matrices requests do not produce: one element, shapes on both sides
// of the staging chunk (384 float64s), every base64 padding, a 57 KB
// matrix, and the bit patterns a float formatter would lose — under an
// envelope whose strings try to look like the outputs member.
func testStreamedMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	special := tensor.NewDense(2, 4)
	negNaN := math.Float64frombits(0xfff8000000000001) // a NaN with a sign and a payload
	copy(special.Data, []float64{math.NaN(), negNaN, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64})
	mats := map[int]*tensor.Dense{40: special}
	for i, sh := range [][2]int{{1, 1}, {1, 2}, {3, 5}, {25, 25}, {1, 383}, {1, 384}, {1, 385}, {2, 384}, {75, 95}} {
		mats[i] = tensor.RandNormal(rng, sh[0], sh[1])
	}
	for _, withTail := range []bool{false, true} {
		resp := ExecuteResponse{
			Spec: Spec{Workload: "chain", SizeSet: 1, Hidden: 80000, Scale: 400, Seed: 1}, Engine: "seq",
			Fingerprint: "f00d", Cached: true, ElapsedMS: 1.25,
		}
		if withTail {
			resp.Engine, resp.Dist = "dist", &matopt.DistReport{Shards: 2, NetBytes: 7, Transport: "chan", DegradedCause: `"outputs":[] <&>`}
			resp.Trace = "serve.execute 1ms\n  \"outputs\":[{\"vertex\":0}]\n"
		}
		want := resp
		for _, id := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 40} {
			want.Outputs = append(want.Outputs, encodeDense(id, mats[id]))
		}
		rec := httptest.NewRecorder()
		New(testConfig(1, 1)).writeReply(rec, "execute", http.StatusOK, &executeReply{ExecuteResponse: &resp, outs: mats})
		wantWire(t, "streamed outputs", rec, &want)

		var back ExecuteResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &back); err != nil {
			t.Fatal(err)
		}
		d := decodeOutput(t, back.Outputs[len(back.Outputs)-1])
		for i, v := range special.Data {
			if math.Float64bits(d.Data[i]) != math.Float64bits(v) {
				t.Errorf("element %d: bits %016x came back as %016x", i, math.Float64bits(v), math.Float64bits(d.Data[i]))
			}
		}
	}
}

// TestUnencodableReplyIs500: a response that cannot be encoded is
// reported as a 500 with an error body, not sent as a 200 that stops
// half way.
func TestUnencodableReplyIs500(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{Registry: reg})
	for _, v := range []any{
		&OptimizeResponse{PredictedSeconds: math.NaN()},
		&executeReply{ExecuteResponse: &ExecuteResponse{ElapsedMS: math.Inf(1)}, outs: map[int]*tensor.Dense{0: tensor.NewDense(1, 1)}},
	} {
		rec := httptest.NewRecorder()
		s.writeReply(rec, "optimize", http.StatusOK, v)
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || rec.Code != 500 || !strings.Contains(e.Error, "unsupported value") {
			t.Fatalf("status %d, body %q (%v)", rec.Code, rec.Body, err)
		}
		wantWire(t, "encode failure", rec, e)
	}
	if n := reg.Counter("serve.requests", obs.L("endpoint", "optimize"), obs.L("code", "500")).Value(); n != 2 {
		t.Errorf("serve.requests{code=500} = %d, want 2", n)
	}
}

// TestReplyMeters: the reply — assembled and written after the request
// histograms are observed — has its own meters, and /execute reports how
// its inputs were come by.
func TestReplyMeters(t *testing.T) {
	cfg := testConfig(2, 8)
	s := New(cfg)
	defer s.Drain(context.Background())
	var sent int64
	for i := 0; i < 3; i++ {
		rec := postRaw(s, "/execute", `{"workload":"chain","scale":400}`)
		if rec.Code != 200 {
			t.Fatalf("status %d", rec.Code)
		}
		sent += int64(rec.Body.Len())
	}
	postRaw(s, "/execute", `{"workload":"chain","engine":"sim"}`) // draws no inputs
	reg := cfg.Registry
	ep := obs.L("endpoint", "execute")
	if got := reg.Histogram("serve.reply.seconds", obs.DefaultDurationBuckets(), ep).Count(); got != 4 {
		t.Errorf("serve.reply.seconds observed %d replies, want 4", got)
	}
	if got := reg.Counter("serve.reply.bytes", ep).Value(); got <= sent || got > sent+1024 {
		t.Errorf("serve.reply.bytes = %d, three of the four replies were %d", got, sent)
	}
	hit := reg.Counter("serve.inputs", obs.L("result", "hit")).Value()
	miss := reg.Counter("serve.inputs", obs.L("result", "miss")).Value()
	if hit != 2 || miss != 1 {
		t.Errorf("serve.inputs hit=%d miss=%d, want 2 and 1", hit, miss)
	}
	if held := reg.Gauge("serve.inputs.bytes").Value(); held <= 0 {
		t.Errorf("serve.inputs.bytes = %d after a miss was kept", held)
	}
}

// inputsOf fabricates an entry of n bytes, n a multiple of 16.
func inputsOf(n int) map[string]*tensor.Dense {
	return map[string]*tensor.Dense{"a": tensor.NewDense(1, n/16), "b": tensor.NewDense(n/16, 1)}
}

// TestInputCache covers the input cache's policy — hit, key, LRU
// eviction at the byte budget, the over-a-quarter bypass — and its one
// concurrency promise: many requests sharing an entry's matrices all get
// the bits a direct Executor run of the spec produces.
func TestInputCache(t *testing.T) {
	reg := obs.NewRegistry()
	held := reg.Gauge("serve.inputs.bytes")
	c := newInputCache(4096, held)
	spec := func(seed int64) Spec { return Spec{Workload: "chain", Seed: seed}.Normalized() }

	one := inputsOf(1024)
	if !c.put(spec(1), one) {
		t.Fatal("an entry of a quarter of the budget was not kept")
	}
	if got, ok := c.Get(spec(1)); !ok || got["a"] != one["a"] || got["b"] != one["b"] {
		t.Fatal("a hit did not return the matrices that were put")
	}
	if _, ok := c.Get(spec(2)); ok {
		t.Fatal("a different seed hit another seed's entry")
	}
	if c.put(spec(9), inputsOf(1040)) {
		t.Fatal("an entry over a quarter of the budget was kept")
	}
	if _, ok := c.Get(spec(9)); ok || held.Value() != 1024 {
		t.Fatalf("bypassed entry is present, or %d bytes held, want 1024", held.Value())
	}

	// Fill to the budget, touch the oldest, add one more: the entry that
	// goes is the least recently used, not the first in.
	for seed := int64(2); seed <= 4; seed++ {
		c.put(spec(seed), inputsOf(1024))
	}
	c.Get(spec(1))
	c.put(spec(5), inputsOf(1024))
	for seed, want := range map[int64]bool{1: true, 2: false, 3: true, 4: true, 5: true} {
		if _, ok := c.Get(spec(seed)); ok != want {
			t.Errorf("after eviction: seed %d present = %v, want %v", seed, ok, want)
		}
	}
	if held.Value() != 4096 {
		t.Errorf("%d bytes held, want the budget 4096", held.Value())
	}

	// 16 goroutines, one spec, through /execute: every reply carries the
	// digest of a run that shared nothing.
	cfg := testConfig(4, 16)
	cfg.Cluster = costmodel.LocalTest(4)
	s := New(cfg)
	defer s.Drain(context.Background())
	req := ExecuteRequest{Spec: Spec{Workload: "ffnn3", Scale: 2000, Seed: 5}}
	want := directExecute(t, cfg.Cluster, req)
	body, _ := json.Marshal(req)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got ExecuteResponse
			rec := postRaw(s, "/execute", string(body))
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != 200 {
				t.Errorf("status %d: %v", rec.Code, err)
				return
			}
			if err := compareToDirect(&got, want); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	hit := cfg.Registry.Counter("serve.inputs", obs.L("result", "hit")).Value()
	miss := cfg.Registry.Counter("serve.inputs", obs.L("result", "miss")).Value()
	if hit+miss != 16 || miss < 1 {
		t.Errorf("serve.inputs hit=%d miss=%d over 16 requests", hit, miss)
	}
}

// decodeOutput decodes an output's wire form back to a matrix.
func decodeOutput(t *testing.T, o OutputMatrix) *tensor.Dense {
	t.Helper()
	raw, err := base64.StdEncoding.DecodeString(o.DataB64)
	if err != nil {
		t.Fatalf("output %d: %v", o.Vertex, err)
	}
	if len(raw) != 8*o.Rows*o.Cols {
		t.Fatalf("output %d: %d data bytes for a %dx%d matrix", o.Vertex, len(raw), o.Rows, o.Cols)
	}
	d := tensor.NewDense(o.Rows, o.Cols)
	for i := range d.Data {
		d.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return d
}
