package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"matopt/internal/obs"
	"matopt/internal/tensor"
)

// bufs recycles the buffers request bodies are read into and replies
// are assembled in. One that grew past maxPooledBuf is left to the
// collector, so a single large plan or reply does not pin its size.
var bufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBuf = 1 << 20

func getBuf() *bytes.Buffer { return bufs.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuf {
		b.Reset()
		bufs.Put(b)
	}
}

// writeReply is the one way a body leaves the server: v is encoded
// compact — the bytes of json.Marshal(v) and a newline — into a pooled
// buffer and sent with its Content-Length. A value that does not encode
// becomes a 500 with an error body: nothing has been sent yet, so the
// client never sees a truncated 200.
func (s *Server) writeReply(w http.ResponseWriter, endpoint string, code int, v any) {
	t0 := time.Now()
	buf := getBuf()
	defer putBuf(buf)
	if err := encodeReply(buf, v); err != nil {
		code = http.StatusInternalServerError
		buf.Reset()
		_ = encodeReply(buf, errorResponse{Error: "encoding the reply: " + err.Error()}) // a string always encodes
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes()) // fails only when the client has gone; nobody is left to tell

	ep := obs.L("endpoint", endpoint)
	s.reg.Counter("serve.requests", ep, obs.L("code", strconv.Itoa(code))).Inc()
	s.reg.Counter("serve.reply.bytes", ep).Add(int64(buf.Len()))
	s.reg.Histogram("serve.reply.seconds", obs.DefaultDurationBuckets(), ep).Observe(time.Since(t0).Seconds())
}

func (s *Server) writeError(w http.ResponseWriter, endpoint string, code int, err error) {
	s.writeReply(w, endpoint, code, errorResponse{Error: err.Error()})
}

func encodeReply(buf *bytes.Buffer, v any) error {
	if x, ok := v.(*executeReply); ok {
		return x.encode(buf)
	}
	return json.NewEncoder(buf).Encode(v)
}

// executeReply is an /execute response whose outputs are still
// matrices. It encodes to exactly what the ExecuteResponse with those
// matrices as its Outputs would, without building them: each matrix is
// streamed into the reply buffer where its OutputMatrix belongs.
type executeReply struct {
	*ExecuteResponse                       // Outputs unset
	outs             map[int]*tensor.Dense // by sink vertex ID
}

// release gives the output matrices back to the tensor free list once
// the reply holding their encoding has been written. They are this
// request's alone: a run's outputs share no memory with its inputs —
// the input cache's matrices — nor with anything the run recycles.
func (x *executeReply) release() {
	for _, m := range x.outs {
		tensor.Release(m)
	}
}

// outputsSlot is how an ExecuteResponse encodes an Outputs of one zero
// OutputMatrix, derived from the DTOs so that it follows their tags. A
// quote inside a JSON string is always escaped, so these bytes can occur
// in an encoded response only as that member.
var outputsSlot = func() []byte {
	b, err := json.Marshal(struct {
		Outputs []OutputMatrix `json:"outputs"`
	}{Outputs: []OutputMatrix{{}}})
	if err != nil {
		panic(err)
	}
	return b[1 : len(b)-1] // without the enclosing braces
}()

func (x *executeReply) encode(buf *bytes.Buffer) error {
	resp := *x.ExecuteResponse
	resp.Outputs = []OutputMatrix{{}}
	envelope, err := json.Marshal(&resp)
	if err != nil {
		return err
	}
	at := bytes.Index(envelope, outputsSlot)
	if at < 0 {
		return errors.New("serve: response envelope has no outputs member")
	}
	ids := make([]int, 0, len(x.outs))
	for id := range x.outs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	buf.Write(envelope[:at])
	buf.WriteString(`"outputs":[`)
	for i, id := range ids {
		if i > 0 {
			buf.WriteByte(',')
		}
		appendOutput(buf, id, x.outs[id])
	}
	buf.WriteByte(']')
	buf.Write(envelope[at+len(outputsSlot):])
	buf.WriteByte('\n')
	return nil
}

// stageBytes is how much of a matrix is laid out little-endian at a
// time before it is hashed and base64-encoded into the reply: a multiple
// of 24 bytes, so every chunk is whole float64s (8) and whole base64
// groups (3) and the chunks' encodings concatenate to the encoding of
// the whole.
const stageBytes = 24 * 128

// appendOutput appends d as the OutputMatrix JSON object of vertex:
// float bits → little-endian staging chunk → SHA-256 and base64 straight
// into buf. The member names are OutputMatrix's tags; the values are
// digits, base64 and hex, which JSON never escapes.
func appendOutput(buf *bytes.Buffer, vertex int, d *tensor.Dense) {
	buf.Grow(base64.StdEncoding.EncodedLen(8*len(d.Data)) + 192)
	b := append(buf.AvailableBuffer(), `{"vertex":`...)
	b = strconv.AppendInt(b, int64(vertex), 10)
	b = strconv.AppendInt(append(b, `,"rows":`...), int64(d.Rows), 10)
	b = strconv.AppendInt(append(b, `,"cols":`...), int64(d.Cols), 10)
	buf.Write(append(b, `,"data_b64":"`...))

	var stage [stageBytes]byte
	h := sha256.New()
	for data := d.Data; len(data) > 0; {
		n := min(len(data), stageBytes/8)
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint64(stage[8*i:], math.Float64bits(v))
		}
		h.Write(stage[:8*n])
		buf.Write(base64.StdEncoding.AppendEncode(buf.AvailableBuffer(), stage[:8*n]))
		data = data[n:]
	}

	b = append(buf.AvailableBuffer(), `","sha256":"`...)
	b = hex.AppendEncode(b, h.Sum(stage[:0]))
	buf.Write(append(b, `"}`...))
}
