package netfabric

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"net"
	"sync"
	"testing"

	"matopt/internal/engine"
	"matopt/internal/sparse"
	"matopt/internal/tensor"
)

func denseTuple(k engine.Key, rows, cols int, seed float64) engine.Tuple {
	d := tensor.NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = seed + float64(i)*0.5
	}
	return engine.Tuple{Key: k, Dense: d}
}

func csrTuple(k engine.Key) engine.Tuple {
	c, err := sparse.NewCSR(3, 4,
		[]int{0, 2, 2, 3},
		[]int{0, 3, 1},
		[]float64{1.5, -2.25, math.Inf(1)})
	if err != nil {
		panic(err)
	}
	return engine.Tuple{Key: k, CSR: c}
}

func sampleMessages() []Message {
	return []Message{
		{Key: engine.Key{I: 1, J: 2}, Seq: 7, Tuple: denseTuple(engine.Key{I: 1, J: 2}, 3, 2, 0.25)},
		{Key: engine.Key{I: -4, J: 0}, Seq: 0, Tuple: csrTuple(engine.Key{I: -4, J: 0})},
		{Key: engine.Key{I: 0, J: 9}, Seq: -3, Tuple: engine.Tuple{Key: engine.Key{I: 0, J: 9}, Val: math.NaN(), IsVal: true}},
		{Key: engine.Key{}, Seq: 0, Tuple: engine.Tuple{}},
	}
}

// shardMessageFrame is the MSG or INBOX frame writeShardMessage puts on
// the wire for (shard, m), in a buffer of its own.
func shardMessageFrame(buf []byte, typ byte, shard int, m Message) ([]byte, error) {
	var b bytes.Buffer
	_, err := writeShardMessage(&b, buf, typ, shard, m)
	return b.Bytes(), err
}

// sealedFrame frames payload as a frame of type typ, checksum and all.
func sealedFrame(typ byte, payload []byte) []byte {
	f := make([]byte, frameHeaderLen, frameHeaderLen+len(payload)+frameTrailerLen)
	putHeader(f, typ, len(payload))
	return binary.LittleEndian.AppendUint32(append(f, payload...), crc32.ChecksumIEEE(payload))
}

// decodeShardMessage runs the one decoder over a MSG payload: sealed
// into a frame, read from a bytes.Reader.
func decodeShardMessage(payload []byte) (int, Message, error) {
	fr := frameReader{r: bytes.NewReader(sealedFrame(frameMsg, payload))}
	if _, err := fr.header(); err != nil {
		return 0, Message{}, err
	}
	return fr.message()
}

// encodeMessage is m's encoding alone: a MSG payload less its shard word.
func encodeMessage(m Message) []byte {
	f, err := shardMessageFrame(nil, frameMsg, 0, m)
	if err != nil {
		panic(err)
	}
	return framePayload(f)[8:]
}

// decodeMessage decodes what encodeMessage produces.
func decodeMessage(b []byte) (Message, error) {
	_, m, err := decodeShardMessage(append(make([]byte, 8), b...))
	return m, err
}

// framePayload is the payload of an encoded frame.
func framePayload(f []byte) []byte { return f[frameHeaderLen : len(f)-frameTrailerLen] }

// mustFrame unwraps a frame encoder's result.
func mustFrame(tb testing.TB) func(f []byte, err error) []byte {
	return func(f []byte, err error) []byte {
		tb.Helper()
		if err != nil {
			tb.Fatalf("encode frame: %v", err)
		}
		return f
	}
}

// readFrame reads one frame from r into a buffer of its own.
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	return (&frameReader{r: r}).next()
}

// appendInt64 builds hostile payloads by hand, one word at a time.
func appendInt64(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

// messagesEqual compares bit-exactly (NaN payloads must survive).
func messagesEqual(a, b Message) bool {
	return bytes.Equal(encodeMessage(a), encodeMessage(b))
}

func TestMessageRoundTrip(t *testing.T) {
	for i, m := range sampleMessages() {
		got, err := decodeMessage(encodeMessage(m))
		if err != nil {
			t.Fatalf("message %d: decode: %v", i, err)
		}
		if !messagesEqual(got, m) {
			t.Fatalf("message %d: round trip mismatch:\n got %+v\nwant %+v", i, got, m)
		}
	}
}

// TestConvertingPath runs, on this machine, the word path machines take
// whose float64 or int is not its eight wire bytes: every frame it
// writes is the byte view's frame, and it decodes each back.
func TestConvertingPath(t *testing.T) {
	defer func(native bool) { wireNative = native }(wireNative)
	k := engine.Key{I: 3}
	msgs := append(sampleMessages(), Message{Key: k, Seq: 1, Tuple: denseTuple(k, 7, 300, 0.5)})
	want := make([][]byte, len(msgs))
	for i, m := range msgs {
		want[i] = mustFrame(t)(shardMessageFrame(nil, frameInbox, i, m))
	}
	wireNative = false
	for i, m := range msgs {
		f := mustFrame(t)(shardMessageFrame(nil, frameInbox, i, m))
		if !bytes.Equal(f, want[i]) {
			t.Fatalf("message %d: converting path wrote other bytes than the byte view", i)
		}
		fr := frameReader{r: bytes.NewReader(f)}
		if _, err := fr.header(); err != nil {
			t.Fatalf("message %d: header: %v", i, err)
		}
		shard, got, err := fr.message()
		if err != nil || shard != i || !messagesEqual(got, m) {
			t.Fatalf("message %d: decoded shard %d, err %v, equal %v", i, shard, err, err == nil && messagesEqual(got, m))
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := sampleMessages()
	for i, m := range msgs {
		buf.Write(mustFrame(t)(shardMessageFrame(nil, frameMsg, i, m)))
	}
	buf.Write(controlFrame(nil, frameEOF))
	r := bytes.NewReader(buf.Bytes())
	for i, want := range msgs {
		typ, payload, err := readFrame(r)
		if err != nil || typ != frameMsg {
			t.Fatalf("frame %d: type %d err %v", i, typ, err)
		}
		shard, got, err := decodeShardMessage(payload)
		if err != nil {
			t.Fatalf("frame %d: decode: %v", i, err)
		}
		if shard != i || !messagesEqual(got, want) {
			t.Fatalf("frame %d: got shard %d msg %+v", i, shard, got)
		}
	}
	if typ, _, err := readFrame(r); err != nil || typ != frameEOF {
		t.Fatalf("expected EOF frame, got type %d err %v", typ, err)
	}
	if _, _, err := readFrame(r); err != io.EOF {
		t.Fatalf("expected io.EOF on drained stream, got %v", err)
	}
}

// TestFrameRejectsCorruption flips, truncates, and rewrites a valid
// frame every way the wire can fail; each mutation must surface as a
// typed error, never a panic or a silent mis-parse.
func TestFrameRejectsCorruption(t *testing.T) {
	m := sampleMessages()[0]
	frame := mustFrame(t)(shardMessageFrame(nil, frameMsg, 2, m))

	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(frame); cut += 7 {
			_, _, err := readFrame(bytes.NewReader(frame[:len(frame)-cut]))
			if err == nil {
				t.Fatalf("cut %d: no error", cut)
			}
			if !errors.Is(err, ErrBadFrame) && err != io.ErrUnexpectedEOF && err != io.EOF {
				t.Fatalf("cut %d: untyped error %v", cut, err)
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		for i := 0; i < len(frame); i++ {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 0x40
			typ, payload, err := readFrame(bytes.NewReader(mut))
			if err != nil {
				if !errors.Is(err, ErrBadFrame) && err != io.ErrUnexpectedEOF {
					t.Fatalf("flip %d: untyped error %v", i, err)
				}
				continue
			}
			// A flip the CRC cannot see (type byte is outside the
			// checksum) must still decode cleanly or fail typed.
			if typ == frameMsg {
				if _, _, err := decodeShardMessage(payload); err != nil && !errors.Is(err, ErrBadFrame) {
					t.Fatalf("flip %d: untyped decode error %v", i, err)
				}
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), frame...)
		mut[0] = 'x'
		if _, _, err := readFrame(bytes.NewReader(mut)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("want ErrBadFrame, got %v", err)
		}
	})
	t.Run("future version", func(t *testing.T) {
		mut := append([]byte(nil), frame...)
		mut[2] = frameVersion + 1
		if _, _, err := readFrame(bytes.NewReader(mut)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("want ErrBadFrame, got %v", err)
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		mut := append([]byte(nil), frame...)
		mut[4], mut[5], mut[6], mut[7] = 0xff, 0xff, 0xff, 0xff
		if _, _, err := readFrame(bytes.NewReader(mut)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("want ErrBadFrame, got %v", err)
		}
	})
}

// hostilePayloads are message encodings that frame and checksum cleanly
// but lie about their contents; FuzzScanMatchesDecode is seeded from them.
func hostilePayloads() map[string][]byte {
	base := func() []byte {
		var b []byte
		for i := 0; i < 5; i++ {
			b = appendInt64(b, 0)
		}
		return b
	}
	cases := map[string][]byte{
		"unknown kind": append(base(), 0x7f),
		"dense dims lie": func() []byte {
			b := append(base(), payloadDense)
			b = appendInt64(b, 1<<20) // rows
			b = appendInt64(b, 1<<20) // cols: no such data follows
			return b
		}(),
		"dense zero dim": func() []byte {
			b := append(base(), payloadDense)
			b = appendInt64(b, 0)
			b = appendInt64(b, 3)
			return b
		}(),
		"csr non-monotone": func() []byte {
			b := append(base(), payloadCSR)
			b = appendInt64(b, 2) // rows
			b = appendInt64(b, 2) // cols
			b = appendInt64(b, 1) // nnz
			for _, p := range []int64{0, 2, 1} {
				b = appendInt64(b, p) // row ptr exceeds nnz then shrinks
			}
			b = appendInt64(b, 0)                            // colidx
			b = appendInt64(b, int64(math.Float64bits(1.0))) // val
			return b
		}(),
		"trailing garbage": append(append(base(), payloadEmpty), 0xAA),
		"truncated header": base()[:17],
	}
	// A 2×3 CSR with 2 non-zeros, wrong in one more way each.
	csr := func(rowPtr, colIdx []int64) []byte {
		b := append(base(), payloadCSR)
		for _, w := range append(append([]int64{2, 3, 2}, rowPtr...), colIdx...) {
			b = appendInt64(b, w)
		}
		return appendInt64(appendInt64(b, 0), 0) // two values
	}
	cases["csr first pointer not 0"] = csr([]int64{1, 1, 2}, []int64{0, 1})
	cases["csr last pointer not nnz"] = csr([]int64{0, 1, 1}, []int64{0, 1})
	cases["csr pointer beyond nnz"] = csr([]int64{0, 1 << 40, 2}, []int64{0, 1})
	cases["csr column out of range"] = csr([]int64{0, 1, 2}, []int64{0, 3})
	cases["csr negative column"] = csr([]int64{0, 1, 2}, []int64{-1, 1})
	cases["csr columns not ascending"] = csr([]int64{0, 2, 2}, []int64{1, 1})
	return cases
}

// TestDecodeRejectsHostilePayloads covers payloads that frame and
// checksum cleanly but lie about their contents.
func TestDecodeRejectsHostilePayloads(t *testing.T) {
	cases := hostilePayloads()
	for name, payload := range cases {
		if _, err := decodeMessage(payload); !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: want ErrBadFrame, got %v", name, err)
		}
	}
}

// recordingListener wraps every accepted connection so the test can hash
// exactly what crossed it: in is what the coordinator wrote (the worker's
// reads), out what the worker wrote back.
type recordingListener struct {
	net.Listener
	mu      sync.Mutex
	in, out bytes.Buffer
}

type recordingConn struct {
	net.Conn
	l *recordingListener
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: c, l: l}, nil
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.mu.Lock()
	c.l.in.Write(p[:n])
	c.l.mu.Unlock()
	return n, err
}

func (c *recordingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.l.mu.Lock()
	c.l.out.Write(p[:n])
	c.l.mu.Unlock()
	return n, err
}

// TestGoldenWireBytes pins the wire format: one session carrying every
// payload kind — dense 1×1, 3×5 and 257×129, a CSR with an empty row, a
// Val, an empty tuple — interleaved across two remote shards must put
// exactly the recorded bytes on the wire, in both directions; a change
// that moves either one has changed the format and must bump
// frameVersion. Each older version is pinned too, as what this one is
// not: version 2 changed when the worker answers, not what it sends, and
// version 3 only dropped the OPEN frame that began every session. So
// with every frame's version byte set back to 2 or to 1, the worker's
// stream hashes to what that version's worker sent, and the
// coordinator's does too once each connection's OPEN is put back in
// front of it — the version 1 codec being the append-per-word encoder
// and the decode-and-re-encode worker.
//
// Each shard has its own worker, so each connection carries one shard's
// frames in send order: the order in which a worker hosting several
// shards returns their frames is not part of the format (the fabric sorts
// every inbox by (key, seq)).
func TestGoldenWireBytes(t *testing.T) {
	const (
		toWorker     = "58a31fa369711d685c57f4727f6eb0777064fce7df3b710226d939d3a1beaec4"
		v2ToWorker   = "3c4ef651ba5754fa77c32585b017a0a159ecec60a60cd3a171797575254a68ce"
		v2FromWorker = "54061b5ffba2567243de563d03ad6debab922297bdb4467970e15aff8bd7efbe"
		v1ToWorker   = "03cb66e8abbbf5be8d0a90526dce6f1e5d64f6f411b9ab3e10d19c0b2e7796a7"
		v1FromWorker = "deca47c4322416b76f40bd9b46ef88c4fce28d4445c23c61a847d7c16a8482a9"
	)
	var lns [2]*recordingListener
	var srvs [2]*Server
	peers := make([]string, 2)
	done := make(chan error, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = &recordingListener{Listener: ln}
		srvs[i] = NewServer()
		peers[i] = ln.Addr().String()
		go func() { done <- srvs[i].Serve(lns[i]) }()
	}
	tp, err := NewTCP(peers)
	if err != nil {
		t.Fatal(err)
	}
	k := func(i, j int64) engine.Key { return engine.Key{I: i, J: j} }
	msgs := []Message{
		{Key: k(0, 0), Seq: 1, Tuple: denseTuple(k(0, 0), 1, 1, -0.5)},
		{Key: k(1, 2), Seq: 7, Tuple: denseTuple(k(1, 2), 3, 5, 0.25)},
		{Key: k(-4, 0), Seq: 0, Tuple: csrTuple(k(-4, 0))},
		{Key: k(2, 3), Seq: 2, Tuple: denseTuple(k(2, 3), 257, 129, 1e-3)},
		{Key: k(0, 9), Seq: -3, Tuple: engine.Tuple{Key: k(0, 9), Val: math.Pi, IsVal: true}},
		{Key: k(5, 5), Seq: 4, Tuple: engine.Tuple{Key: k(5, 5)}},
		{Key: k(6, 1), Seq: 5, Tuple: denseTuple(k(6, 1), 3, 5, 8)},
	}
	id := ExchangeID{Vertex: 9, Kind: "shuffle", Label: "shuffle(golden)", Attempt: 2}
	sess, err := tp.Open(context.Background(), nil, id, 2)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i, m := range msgs {
		if err := sess.Send(i%2, m); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}
	recv, err := sess.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	for i, m := range msgs {
		if got := recv[i%2][i/2]; !messagesEqual(got, m) {
			t.Fatalf("message %d came back as %+v", i, got)
		}
	}
	tp.Close()
	for i := range srvs {
		srvs[i].Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
	in := func(l *recordingListener) []byte { return l.in.Bytes() }
	out := func(l *recordingListener) []byte { return l.out.Bytes() }
	for _, c := range []struct {
		name     string
		want     string
		version  byte
		withOpen bool
		stream   func(*recordingListener) []byte
	}{
		{"coordinator→worker", toWorker, frameVersion, false, in},
		{"coordinator→worker at version 2, OPEN put back", v2ToWorker, 2, true, in},
		{"coordinator→worker at version 1, OPEN put back", v1ToWorker, 1, true, in},
		{"worker→coordinator at version 2", v2FromWorker, 2, false, out},
		{"worker→coordinator at version 1", v1FromWorker, 1, false, out},
	} {
		h := sha256.New()
		for _, ln := range lns {
			if c.withOpen {
				h.Write(asVersion(t, oldOpen(id, 2), c.version))
			}
			h.Write(asVersion(t, c.stream(ln), c.version))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s stream hashes to %s, want %s", c.name, got, c.want)
		}
	}
}

// oldOpen is the OPEN frame (type 1) a version 1 or 2 coordinator began
// every session with: the exchange's vertex, attempt and shard count,
// then its kind and its label, each behind its length.
func oldOpen(id ExchangeID, shards int) []byte {
	p := appendInt64s(nil, int64(id.Vertex), int64(id.Attempt), int64(shards), int64(len(id.Kind)))
	p = appendInt64s(append(p, id.Kind...), int64(len(id.Label)))
	return sealedFrame(1, append(p, id.Label...))
}

// asVersion is a copy of a recorded stream with every frame's version
// byte set to version.
func asVersion(t *testing.T, stream []byte, version byte) []byte {
	out := append([]byte(nil), stream...)
	for at := 0; at < len(out); {
		if at+frameHeaderLen > len(out) || out[at+2] != frameVersion {
			t.Fatalf("no version %d frame header at offset %d of a %d B stream", frameVersion, at, len(out))
		}
		out[at+2] = version
		at += frameHeaderLen + int(binary.LittleEndian.Uint32(out[at+4:])) + frameTrailerLen
	}
	return out
}
