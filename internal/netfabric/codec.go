package netfabric

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"matopt/internal/sparse"
	"matopt/internal/tensor"
)

// Wire framing. Every frame on a netfabric connection is
//
//	magic(2) | version(1) | type(1) | length(uint32 LE) | payload | crc32(uint32 LE)
//
// with the CRC (IEEE) taken over the payload bytes, so a truncated,
// bit-flipped, or mis-framed stream is detected before any payload is
// interpreted. The codec is versioned like the internal/plan plan
// codec: writers stamp frameVersion, readers accept the
// [minFrameVersion, frameVersion] range and reject anything else with
// ErrBadFrame so an old coordinator talking to a new worker fails
// loudly instead of misparsing.
const (
	frameVersion    = 1
	minFrameVersion = 1

	frameHeaderLen  = 8
	frameTrailerLen = 4

	// maxFramePayload bounds a single frame; a length field beyond it is
	// rejected before any allocation, so a corrupt or hostile stream
	// cannot ask the reader to allocate gigabytes.
	maxFramePayload = 1 << 28
)

var frameMagic = [2]byte{'m', 'f'}

// Frame types of the coordinator↔worker exchange protocol (tcp.go).
const (
	// frameOpen starts an exchange session: payload is the ExchangeID
	// header plus the total shard count.
	frameOpen = byte(iota + 1)
	// frameMsg carries one routed message: payload is the destination
	// shard plus an encoded Message.
	frameMsg
	// frameFin ends the send side of a session; the worker replies with
	// the buffered inboxes.
	frameFin
	// frameInbox carries one buffered message back: payload is the
	// owning shard plus an encoded Message.
	frameInbox
	// frameEOF ends the worker's inbox stream; the connection is then
	// idle and reusable.
	frameEOF
)

// newFrame returns a frame of type typ whose n payload bytes are the
// caller's to fill before sealFrame checksums them — in buf's storage
// when that is large enough (a sender hands its previous frame back in),
// else in a new buffer of exactly its size; or refuses an oversized one.
func newFrame(buf []byte, typ byte, n int) ([]byte, error) {
	if n > maxFramePayload {
		return nil, fmt.Errorf("%w: frame payload %d exceeds %d", ErrBadFrame, n, maxFramePayload)
	}
	total := frameHeaderLen + n + frameTrailerLen
	if cap(buf) < total {
		buf = make([]byte, total)
	}
	buf = buf[:total]
	buf[0], buf[1], buf[2], buf[3] = frameMagic[0], frameMagic[1], frameVersion, typ
	binary.LittleEndian.PutUint32(buf[4:], uint32(n))
	return buf, nil
}

// sealFrame writes the CRC of f's payload into its trailer.
func sealFrame(f []byte) []byte {
	crcAt := len(f) - frameTrailerLen
	binary.LittleEndian.PutUint32(f[crcAt:], crc32.ChecksumIEEE(f[frameHeaderLen:crcAt]))
	return f
}

// controlFrame builds a frame with no payload: FIN or EOF.
func controlFrame(buf []byte, typ byte) []byte {
	f, _ := newFrame(buf, typ, 0) // an empty payload is never oversized
	return sealFrame(f)
}

// frameReader reads one connection's frames into a buffer it reuses:
// next appends a whole frame — header, payload, CRC — to buf, and the
// owner decides what stays (the coordinator truncates buf before every
// frame; the worker keeps a session's MSG frames to send back). limit,
// when positive, bounds len(buf): a frame that would not fit is refused
// from its header, before it is read or stored.
type frameReader struct {
	r     io.Reader
	buf   []byte
	limit int
}

// next returns the type and payload (aliasing buf) of the next frame. A
// malformed one — bad magic, version out of range, oversized length,
// checksum mismatch — is an error wrapping ErrBadFrame; a cleanly closed
// stream is io.EOF; a stream cut mid-frame is io.ErrUnexpectedEOF.
func (f *frameReader) next() (typ byte, payload []byte, err error) {
	hdr := f.extend(frameHeaderLen)
	if _, err := io.ReadFull(f.r, hdr); err != nil {
		return 0, nil, err
	}
	if hdr[0] != frameMagic[0] || hdr[1] != frameMagic[1] {
		return 0, nil, fmt.Errorf("%w: bad magic %02x%02x", ErrBadFrame, hdr[0], hdr[1])
	}
	if hdr[2] < minFrameVersion || hdr[2] > frameVersion {
		return 0, nil, fmt.Errorf("%w: version %d outside [%d, %d]", ErrBadFrame, hdr[2], minFrameVersion, frameVersion)
	}
	typ = hdr[3]
	n := int(binary.LittleEndian.Uint32(hdr[4:8]))
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: frame payload %d exceeds %d", ErrBadFrame, n, maxFramePayload)
	}
	if f.limit > 0 && len(f.buf)+n+frameTrailerLen > f.limit {
		return 0, nil, fmt.Errorf("%w: session exceeds %d buffered bytes", ErrBadFrame, f.limit)
	}
	body := f.extend(n + frameTrailerLen)
	if _, err := io.ReadFull(f.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	want := binary.LittleEndian.Uint32(body[n:])
	if got := crc32.ChecksumIEEE(body[:n]); got != want {
		return 0, nil, fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrBadFrame, got, want)
	}
	return typ, body[:n], nil
}

// extend lengthens buf by n bytes and returns them. A buf that must move
// doubles, so a growing session copies each byte about once — but not
// past maxIdleBuf while the session fits under it, or slack alone would
// get a reusable buffer dropped.
func (f *frameReader) extend(n int) []byte {
	start := len(f.buf)
	if need := start + n; need > cap(f.buf) {
		grown := max(need, 2*cap(f.buf))
		if need <= maxIdleBuf {
			grown = min(grown, maxIdleBuf)
		}
		f.buf = append(make([]byte, 0, grown), f.buf...)
	}
	f.buf = f.buf[:start+n]
	return f.buf[start:]
}

// maxIdleBuf bounds what an idle connection keeps between sessions, on
// either side: idleBuf empties a buffer for reuse, or drops one that grew
// past the bound so a pool does not pin the largest exchange it carried.
const maxIdleBuf = 16 << 20

func idleBuf(buf []byte) []byte {
	if cap(buf) > maxIdleBuf {
		return nil
	}
	return buf[:0]
}

// MSG and INBOX payload layout (all integers int64 LE, floats as
// IEEE-754 bits LE):
//
//	shard | msg key I, J | seq | tuple key I, J | payload kind(1) | payload
//
// with shard the destination (MSG) or the owner (INBOX) — the two are
// the same bytes, which is what lets a worker turn one into the other by
// rewriting the type byte the CRC does not cover — and payload one of:
// nothing (payloadEmpty); rows, cols, rows*cols floats (payloadDense);
// rows, cols, nnz, rows+1 row pointers, nnz column indices, nnz floats
// (payloadCSR); one float (payloadVal).
const (
	payloadEmpty = byte(iota)
	payloadDense
	payloadCSR
	payloadVal
)

// shardMessageFrame builds the MSG or INBOX frame for (shard, m): sized
// exactly, up front, then filled one store per word.
func shardMessageFrame(buf []byte, typ byte, shard int, m Message) ([]byte, error) {
	d, c := m.Tuple.Dense, m.Tuple.CSR
	words := 6
	switch {
	case d != nil:
		words += 2 + len(d.Data)
	case c != nil:
		words += 3 + len(c.RowPtr) + len(c.ColIdx) + len(c.Val)
	case m.Tuple.IsVal:
		words++
	}
	f, err := newFrame(buf, typ, 8*words+1)
	if err != nil {
		return nil, err
	}
	b := putInt64s(f[frameHeaderLen:], int64(shard), m.Key.I, m.Key.J, m.Seq, m.Tuple.Key.I, m.Tuple.Key.J)
	kind, b := b, b[1:]
	switch {
	case d != nil:
		kind[0] = payloadDense
		putFloats(putInt64s(b, int64(d.Rows), int64(d.Cols)), d.Data)
	case c != nil:
		kind[0] = payloadCSR
		b = putInt64s(b, int64(c.Rows), int64(c.Cols), int64(len(c.Val)))
		putFloats(putInts(putInts(b, c.RowPtr), c.ColIdx), c.Val)
	case m.Tuple.IsVal:
		kind[0] = payloadVal
		putFloats(b, []float64{m.Tuple.Val})
	default:
		kind[0] = payloadEmpty
	}
	return sealFrame(f), nil
}

// putInt64s stores vs at the front of b and returns what follows them.
func putInt64s(b []byte, vs ...int64) []byte {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b[8*len(vs):]
}

func putInts(b []byte, vs []int) []byte {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return b[8*len(vs):]
}

func putFloats(b []byte, vs []float64) {
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
}

// layout is a MSG/INBOX payload whose declared sizes have been checked
// against its bytes; decodeShardMessage and checkShardMessage both start
// from one, so "sizes add up before anything is trusted" is written once.
type layout struct {
	shard           int
	m               Message // keys and seq; the tuple's payload is not built
	kind            byte
	rows, cols, nnz int    // as the kind declares them, else 0
	words           []byte // what follows them, exactly as long as they say
}

// parseShardMessage checks what can be told without reading the
// payload's words: the header is whole, shard and dimensions in range,
// the kind known, and the payload exactly as long as they declare — no
// allocation is sized from an unchecked field, no byte may trail.
func parseShardMessage(b []byte) (layout, error) {
	var l layout
	if len(b) < 6*8+1 {
		return layout{}, fmt.Errorf("%w: payload truncated at %d bytes", ErrBadFrame, len(b))
	}
	c := cursor{b: b}
	shard := c.int64()
	if c.err == nil && (shard < 0 || shard >= maxShards) {
		c.err = fmt.Errorf("%w: shard %d outside [0, %d)", ErrBadFrame, shard, maxShards)
	}
	l.shard = int(shard)
	l.m.Key.I, l.m.Key.J, l.m.Seq = c.int64(), c.int64(), c.int64()
	l.m.Tuple.Key.I, l.m.Tuple.Key.J = c.int64(), c.int64()
	l.kind, c.off = b[c.off], c.off+1
	words := 0
	switch l.kind {
	case payloadEmpty:
	case payloadDense:
		l.rows, l.cols = c.dim(), c.dim()
		words = l.rows * l.cols
	case payloadCSR:
		l.rows, l.cols = c.dim(), c.dim()
		nnz := c.int64()
		if c.err == nil && (nnz < 0 || nnz > maxFramePayload) {
			c.err = fmt.Errorf("%w: nnz %d outside [0, %d]", ErrBadFrame, nnz, maxFramePayload)
		}
		l.nnz = int(nnz)
		words = l.rows + 1 + 2*l.nnz
	case payloadVal:
		words = 1
	default:
		c.err = fmt.Errorf("%w: unknown payload kind %d", ErrBadFrame, l.kind)
	}
	if c.err != nil {
		return layout{}, c.err
	}
	l.words = b[c.off:]
	if have := len(l.words); have < 8*words {
		return layout{}, fmt.Errorf("%w: declared size %d exceeds payload", ErrBadFrame, words)
	} else if have > 8*words {
		return layout{}, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, have-8*words)
	}
	return l, nil
}

// decodeShardMessage parses a MSG/INBOX payload into newly allocated
// storage — the tuple never aliases b, which the caller reuses. A frame
// that passed the checksum can still be hostile: parseShardMessage checks
// sizes, sparse.NewCSR the CSR, and failure is ErrBadFrame, never a panic.
func decodeShardMessage(b []byte) (int, Message, error) {
	l, err := parseShardMessage(b)
	if err != nil {
		return 0, Message{}, err
	}
	switch l.kind {
	case payloadDense:
		l.m.Tuple.Dense = &tensor.Dense{Rows: l.rows, Cols: l.cols, Data: floats(l.words)}
	case payloadCSR:
		ptrEnd := 8 * (l.rows + 1)
		idxEnd := ptrEnd + 8*l.nnz
		l.m.Tuple.CSR, err = sparse.NewCSR(l.rows, l.cols,
			ints(l.words[:ptrEnd]), ints(l.words[ptrEnd:idxEnd]), floats(l.words[idxEnd:]))
		if err != nil {
			return 0, Message{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
	case payloadVal:
		l.m.Tuple.Val, l.m.Tuple.IsVal = math.Float64frombits(binary.LittleEndian.Uint64(l.words)), true
	}
	return l.shard, l.m, nil
}

// floats and ints copy a checked run of wire words out.
func floats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func ints(b []byte) []int {
	out := make([]int, len(b)/8)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}

// checkShardMessage is the worker's validating scan: decodeShardMessage's
// verdict and shard (FuzzScanMatchesDecode holds it to that) without the
// tuple. Past parseShardMessage only a CSR has structure left to check —
// what sparse.NewCSR requires, read off the wire words: row pointers
// monotone from 0 to nnz, each row's columns in range and ascending.
func checkShardMessage(b []byte) (int, error) {
	l, err := parseShardMessage(b)
	if err != nil || l.kind != payloadCSR {
		return l.shard, err
	}
	word := func(i int64) int64 { return int64(binary.LittleEndian.Uint64(l.words[8*i:])) }
	rows := int64(l.rows)
	ok := word(0) == 0 && word(rows) == int64(l.nnz)
	for i := int64(0); ok && i < rows; i++ {
		ok = word(i) <= word(i+1)
	}
	for i := int64(0); ok && i < rows; i++ {
		for k := word(i); ok && k < word(i+1); k++ {
			col := word(rows + 1 + k)
			ok = col >= 0 && col < int64(l.cols) && (k == word(i) || col > word(rows+k))
		}
	}
	if !ok {
		return 0, fmt.Errorf("%w: invalid CSR structure", ErrBadFrame)
	}
	return l.shard, nil
}

// cursor walks a payload's fixed fields, latching the first error so
// parse code reads straight through without per-field checks.
type cursor struct {
	b   []byte
	off int
	err error
}

func (c *cursor) int64() int64 {
	if c.err != nil {
		return 0
	}
	if c.off+8 > len(c.b) {
		c.err = fmt.Errorf("%w: truncated payload at offset %d", ErrBadFrame, c.off)
		return 0
	}
	v := int64(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
	return v
}

// dim reads a matrix dimension: positive and small enough that a
// product of two cannot overflow int.
func (c *cursor) dim() int {
	v := c.int64()
	if c.err != nil {
		return 0
	}
	if v <= 0 || v > maxFramePayload {
		c.err = fmt.Errorf("%w: invalid dimension %d", ErrBadFrame, v)
		return 0
	}
	return int(v)
}

// Header payloads of the session-control frames.

// openFrame builds the OPEN frame: exchange identity + shard count.
func openFrame(buf []byte, id ExchangeID, shards int) ([]byte, error) {
	f, err := newFrame(buf, frameOpen, 5*8+len(id.Kind)+len(id.Label))
	if err != nil {
		return nil, err
	}
	b := putInt64s(f[frameHeaderLen:], int64(id.Vertex), int64(id.Attempt), int64(shards), int64(len(id.Kind)))
	b = putInt64s(b[copy(b, id.Kind):], int64(len(id.Label)))
	copy(b, id.Label)
	return sealFrame(f), nil
}

func decodeOpen(b []byte) (id ExchangeID, shards int, err error) {
	c := cursor{b: b}
	id.Vertex = int(c.int64())
	id.Attempt = int(c.int64())
	n := c.int64()
	id.Kind = c.string()
	id.Label = c.string()
	if c.err != nil {
		return ExchangeID{}, 0, c.err
	}
	if n <= 0 || n > maxShards {
		return ExchangeID{}, 0, fmt.Errorf("%w: shard count %d outside (0, %d]", ErrBadFrame, n, maxShards)
	}
	if len(c.b) != c.off {
		return ExchangeID{}, 0, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(c.b)-c.off)
	}
	return id, int(n), nil
}

// maxShards bounds the shard count a frame may declare; far above any
// real topology, low enough that per-shard allocations stay sane.
const maxShards = 1 << 16

func (c *cursor) string() string {
	n := c.int64()
	if c.err != nil {
		return ""
	}
	if n < 0 || n > 1<<16 || c.off+int(n) > len(c.b) {
		c.err = fmt.Errorf("%w: invalid string length %d", ErrBadFrame, n)
		return ""
	}
	s := string(c.b[c.off : c.off+int(n)])
	c.off += int(n)
	return s
}
