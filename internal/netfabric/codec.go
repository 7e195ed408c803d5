package netfabric

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strconv"
	"unsafe"

	"matopt/internal/sparse"
	"matopt/internal/tensor"
)

// Wire framing. Every frame on a netfabric connection is
//
//	magic(2) | version(1) | type(1) | length(uint32 LE) | payload | crc32(uint32 LE)
//
// with the CRC (IEEE) taken over the payload bytes, so a truncated,
// bit-flipped, or mis-framed stream is detected before a decoded payload
// is handed on. The codec is versioned like the internal/plan plan
// codec: writers stamp frameVersion, readers accept the
// [minFrameVersion, frameVersion] range and reject anything else with
// ErrBadFrame so an old coordinator talking to a new worker fails
// loudly instead of misparsing. Version 2 had version 1's bytes and a
// new timing: the worker echoes each MSG frame as soon as it has checked
// it, so a coordinator must read while it writes. Version 3 drops the
// OPEN frame that began every session: a session is MSG+ FIN → INBOX*
// EOF, begun by its first MSG, so a coordinator opens one only on a
// worker it sends to. A version 2 coordinator's OPEN is refused by its
// version byte, as a version 1 coordinator's was.
const (
	frameVersion    = 3
	minFrameVersion = 3

	frameHeaderLen  = 8
	frameTrailerLen = 4

	// maxFramePayload bounds a single frame; a length field beyond it is
	// rejected before any allocation, so a corrupt or hostile stream
	// cannot ask the reader to allocate gigabytes.
	maxFramePayload = 1 << 28
)

var frameMagic = [2]byte{'m', 'f'}

// Frame types of the coordinator↔worker exchange protocol (tcp.go).
// Type 1 was OPEN, which version 3 retired.
const (
	// frameMsg carries one routed message: payload is the destination
	// shard plus an encoded Message. The first one on an idle connection
	// begins a session.
	frameMsg = byte(iota + 2)
	// frameFin ends the send side of a session; the worker answers with
	// EOF once it has echoed every MSG before it.
	frameFin
	// frameInbox carries one message back: payload is the owning shard
	// plus an encoded Message.
	frameInbox
	// frameEOF ends the worker's inbox stream; the connection is then
	// idle and reusable.
	frameEOF
)

// putHeader stamps a frame header for a payload of n bytes into b.
func putHeader(b []byte, typ byte, n int) {
	b[0], b[1], b[2], b[3] = frameMagic[0], frameMagic[1], frameVersion, typ
	binary.LittleEndian.PutUint32(b[4:], uint32(n))
}

// controlFrame builds a frame with no payload, FIN or EOF, in buf's
// storage; the CRC of no bytes is 0.
func controlFrame(buf []byte, typ byte) []byte {
	f := append(buf[:0], make([]byte, frameHeaderLen+frameTrailerLen)...)
	putHeader(f, typ, 0)
	return f
}

// frameReader reads one connection's frames, one at a time, into a
// buffer it reuses from frame to frame. header reads and checks a frame's
// header; then body reads its payload into the buffer (after the header,
// so the buffer holds the whole frame — what a worker echoes), or message
// decodes a MSG or INBOX payload into tensor storage as it arrives.
type frameReader struct {
	r   io.Reader
	buf []byte
	n   int // the payload length the last header declared
}

// grow resizes buf to n bytes, keeping what it holds, and returns it.
func (f *frameReader) grow(n int) []byte {
	if n > cap(f.buf) {
		f.buf = append(make([]byte, 0, n), f.buf...)
	}
	f.buf = f.buf[:n]
	return f.buf
}

// maxIdleBuf bounds what an idle connection keeps between sessions, on
// either side: idleBuf empties a buffer for reuse, or drops one that grew
// past the bound so a pool does not pin the largest frame it carried.
const maxIdleBuf = 16 << 20

func idleBuf(buf []byte) []byte {
	if cap(buf) > maxIdleBuf {
		return nil
	}
	return buf[:0]
}

// read fills b from the stream; the stream ending first is
// io.ErrUnexpectedEOF, since a frame is under way.
func (f *frameReader) read(b []byte) error {
	_, err := io.ReadFull(f.r, b)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// header reads the next frame's header and returns its type. A malformed
// one — bad magic, version out of range, oversized length — is an error
// wrapping ErrBadFrame; a cleanly closed stream is io.EOF; a stream cut
// mid-header is io.ErrUnexpectedEOF.
func (f *frameReader) header() (typ byte, err error) {
	hdr := f.grow(frameHeaderLen)
	if _, err := io.ReadFull(f.r, hdr); err != nil {
		return 0, err
	}
	if hdr[0] != frameMagic[0] || hdr[1] != frameMagic[1] {
		return 0, fmt.Errorf("%w: bad magic %02x%02x", ErrBadFrame, hdr[0], hdr[1])
	}
	if hdr[2] < minFrameVersion || hdr[2] > frameVersion {
		return 0, fmt.Errorf("%w: version %d outside [%d, %d]", ErrBadFrame, hdr[2], minFrameVersion, frameVersion)
	}
	f.n = int(binary.LittleEndian.Uint32(hdr[4:8]))
	if f.n > maxFramePayload {
		return 0, fmt.Errorf("%w: frame payload %d exceeds %d", ErrBadFrame, f.n, maxFramePayload)
	}
	return hdr[3], nil
}

// body reads the payload and CRC of the frame whose header was just read
// and returns the payload, which aliases buf; buf then holds the whole
// frame. A checksum mismatch is an error wrapping ErrBadFrame.
func (f *frameReader) body() ([]byte, error) {
	n := f.n
	body := f.grow(frameHeaderLen + n + frameTrailerLen)[frameHeaderLen:]
	if err := f.read(body); err != nil {
		return nil, err
	}
	want := binary.LittleEndian.Uint32(body[n:])
	if got := crc32.ChecksumIEEE(body[:n]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrBadFrame, got, want)
	}
	return body[:n], nil
}

// next reads a whole frame: its type and payload (aliasing buf).
func (f *frameReader) next() (typ byte, payload []byte, err error) {
	if typ, err = f.header(); err != nil {
		return 0, nil, err
	}
	payload, err = f.body()
	return typ, payload, err
}

// checkCRC reads the frame's trailer and compares it with crc.
func (f *frameReader) checkCRC(crc uint32) error {
	b := f.grow(frameTrailerLen)
	if err := f.read(b); err != nil {
		return err
	}
	if want := binary.LittleEndian.Uint32(b); crc != want {
		return fmt.Errorf("%w: checksum mismatch (got %08x, want %08x)", ErrBadFrame, crc, want)
	}
	return nil
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

// msgFixedLen is the part of every MSG/INBOX payload before its kind's
// own fields: six words and the kind byte.
const msgFixedLen = 6*8 + 1

// fixedLen is the length of a MSG/INBOX payload's fixed fields: the
// common ones plus the sizes its kind declares before its words.
func fixedLen(kind byte) int {
	switch kind {
	case payloadDense:
		return msgFixedLen + 2*8
	case payloadCSR:
		return msgFixedLen + 3*8
	}
	return msgFixedLen
}

// writeShardMessage writes the MSG or INBOX frame for (shard, m) to w and
// returns its length. The header and fixed fields are built in buf's
// storage (when it is large enough); the payload's words go to w from the
// tuple's own storage, and the CRC is taken over both as they pass. Into
// a bufio.Writer, small frames coalesce and a large payload goes to the
// socket without being copied first.
func writeShardMessage(w io.Writer, buf []byte, typ byte, shard int, m Message) (int, error) {
	d, c := m.Tuple.Dense, m.Tuple.CSR
	f := append(buf[:0], make([]byte, frameHeaderLen)...)
	f = appendInt64s(f, int64(shard), m.Key.I, m.Key.J, m.Seq, m.Tuple.Key.I, m.Tuple.Key.J)
	words := 0
	switch {
	case d != nil:
		f = appendInt64s(append(f, payloadDense), int64(d.Rows), int64(d.Cols))
		words = len(d.Data)
	case c != nil:
		f = appendInt64s(append(f, payloadCSR), int64(c.Rows), int64(c.Cols), int64(len(c.Val)))
		words = len(c.RowPtr) + len(c.ColIdx) + len(c.Val)
	case m.Tuple.IsVal:
		f = binary.LittleEndian.AppendUint64(append(f, payloadVal), math.Float64bits(m.Tuple.Val))
	default:
		f = append(f, payloadEmpty)
	}
	n := len(f) - frameHeaderLen + 8*words
	if n > maxFramePayload {
		return 0, fmt.Errorf("%w: frame payload %d exceeds %d", ErrBadFrame, n, maxFramePayload)
	}
	putHeader(f, typ, n)
	crc := crc32.Update(0, crc32.IEEETable, f[frameHeaderLen:])
	_, err := w.Write(f)
	switch {
	case d != nil:
		crc, err = writeWords(w, crc, err, d.Data)
	case c != nil:
		crc, err = writeWords(w, crc, err, c.RowPtr)
		crc, err = writeWords(w, crc, err, c.ColIdx)
		crc, err = writeWords(w, crc, err, c.Val)
	}
	if err == nil {
		_, err = w.Write(binary.LittleEndian.AppendUint32(f[:0], crc))
	}
	return frameHeaderLen + n + frameTrailerLen, err
}

// appendInt64s appends vs to b as wire words.
func appendInt64s(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// layout is a MSG/INBOX payload whose declared sizes have been checked
// against its length; the decoder and checkShardMessage both start from
// one, so "sizes add up before anything is trusted" is written once.
type layout struct {
	shard           int
	m               Message // keys and seq; the tuple's payload is not built
	kind            byte
	rows, cols, nnz int    // as the kind declares them, else 0
	words           []byte // what follows them when the whole payload was parsed
}

// parseShardMessage checks what can be told of an n-byte MSG/INBOX
// payload from its fixed fields, which b begins with: the header is
// whole, shard and dimensions in range, the kind known, and n exactly
// what they declare — no allocation is sized from an unchecked field, no
// byte may trail. When b is the whole payload, the layout's words are
// what follows the fixed fields.
func parseShardMessage(b []byte, n int) (layout, error) {
	var l layout
	if n < msgFixedLen {
		return layout{}, fmt.Errorf("%w: payload truncated at %d bytes", ErrBadFrame, n)
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
	if have := n - c.off; have < 8*words {
		return layout{}, fmt.Errorf("%w: declared size %d exceeds payload", ErrBadFrame, words)
	} else if have > 8*words {
		return layout{}, fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, have-8*words)
	}
	if len(b) == n {
		l.words = b[c.off:]
	}
	return l, nil
}

// message decodes the payload of the MSG or INBOX frame whose header was
// just read — the one decoder, for the coordinator's reader and the fuzz
// targets alike. Its fixed fields are read and checked as
// parseShardMessage checks them before anything is allocated; then the
// payload's words are read from the stream straight into storage drawn
// for the tuple (from tensor's free lists), and the CRC
// over all of it is compared last. A frame that passed the checksum can
// still be hostile: sparse.NewCSR checks a CSR's structure. Any failure
// releases what was drawn and is ErrBadFrame (or the stream's error),
// never a panic.
func (f *frameReader) message() (int, Message, error) {
	n := f.n
	if n < msgFixedLen {
		_, err := parseShardMessage(nil, n)
		return 0, Message{}, err
	}
	b := f.grow(msgFixedLen)
	if err := f.read(b); err != nil {
		return 0, Message{}, err
	}
	b = f.grow(min(n, fixedLen(b[msgFixedLen-1])))
	if err := f.read(b[msgFixedLen:]); err != nil {
		return 0, Message{}, err
	}
	l, err := parseShardMessage(b, n)
	if err != nil {
		return 0, Message{}, err
	}
	crc := crc32.Update(0, crc32.IEEETable, b)
	t := &l.m.Tuple
	var rowPtr, colIdx []int
	var val []float64
	switch l.kind {
	case payloadDense:
		t.Dense = tensor.Draw(l.rows, l.cols)
		crc, err = readWords(f.r, crc, nil, t.Dense.Data)
	case payloadCSR:
		rowPtr, colIdx, val = tensor.DrawInts(l.rows+1), tensor.DrawInts(l.nnz), tensor.DrawFloats(l.nnz)
		crc, err = readWords(f.r, crc, nil, rowPtr)
		crc, err = readWords(f.r, crc, err, colIdx)
		crc, err = readWords(f.r, crc, err, val)
	case payloadVal:
		w := f.grow(8)
		if err = f.read(w); err == nil {
			crc = crc32.Update(crc, crc32.IEEETable, w)
			t.Val, t.IsVal = math.Float64frombits(binary.LittleEndian.Uint64(w)), true
		}
	}
	if err == nil {
		err = f.checkCRC(crc)
	}
	if err == nil && l.kind == payloadCSR {
		if t.CSR, err = sparse.NewCSR(l.rows, l.cols, rowPtr, colIdx, val); err != nil {
			err = fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
	}
	if err != nil {
		if t.Dense != nil {
			tensor.Release(t.Dense)
		}
		if l.kind == payloadCSR {
			tensor.ReleaseInts(rowPtr)
			tensor.ReleaseInts(colIdx)
			tensor.ReleaseFloats(val)
		}
		return 0, Message{}, err
	}
	return l.shard, l.m, nil
}

// Payload words travel between storage and socket as they lie wherever
// a float64 and an int already are their eight wire bytes — 64-bit
// little-endian machines. Elsewhere writeWords and readWords convert
// them through a copy, one constant branch each: a sender may not swap
// words in storage that other goroutines can be reading.
var wireNative = strconv.IntSize == 64 && binary.NativeEndian.Uint16([]byte{1, 0}) == 1

type word interface{ float64 | int }

// wireBytes is the byte view of s's storage; only where wireNative.
func wireBytes[T word](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), 8*len(s))
}

// writeWords writes s's words to w and folds them into crc; an error
// already latched passes through untouched.
func writeWords[T word](w io.Writer, crc uint32, err error, s []T) (uint32, error) {
	if err != nil {
		return crc, err
	}
	var b []byte
	if wireNative {
		b = wireBytes(s)
	} else {
		b = make([]byte, 0, 8*len(s))
		for _, v := range s {
			b = binary.LittleEndian.AppendUint64(b, wordBits(v))
		}
	}
	_, err = w.Write(b)
	return crc32.Update(crc, crc32.IEEETable, b), err
}

// readWords fills s with words read from r and folds them into crc; an
// error already latched passes through untouched.
func readWords[T word](r io.Reader, crc uint32, err error, s []T) (uint32, error) {
	if err != nil {
		return crc, err
	}
	var b []byte
	if wireNative {
		b = wireBytes(s)
	} else {
		b = make([]byte, 8*len(s))
	}
	if _, err = io.ReadFull(r, b); err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if !wireNative {
		for i := range s {
			s[i] = fromBits[T](binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	return crc32.Update(crc, crc32.IEEETable, b), err
}

// wordBits and fromBits convert one word to and from its wire bits.
func wordBits[T word](v T) uint64 {
	if f, ok := any(v).(float64); ok {
		return math.Float64bits(f)
	}
	return uint64(any(v).(int))
}

func fromBits[T word](u uint64) (v T) {
	switch p := any(&v).(type) {
	case *float64:
		*p = math.Float64frombits(u)
	case *int:
		*p = int(int64(u))
	}
	return v
}

// checkShardMessage is the worker's validating scan of a MSG payload it
// holds whole: the decoder's verdict (FuzzScanMatchesDecode holds it to
// that) without the tuple. Past parseShardMessage only a CSR has
// structure left to check — what sparse.NewCSR requires, read off the
// wire words: row pointers monotone from 0 to nnz, each row's columns in
// range and ascending.
func checkShardMessage(b []byte) error {
	l, err := parseShardMessage(b, len(b))
	if err != nil || l.kind != payloadCSR {
		return err
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
		return fmt.Errorf("%w: invalid CSR structure", ErrBadFrame)
	}
	return nil
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

// maxShards bounds the shard a MSG or INBOX frame may name; far above
// any real topology. A worker indexes nothing by shard, and the
// coordinator's reader refuses an INBOX for a shard its peer does not
// host.
const maxShards = 1 << 16
