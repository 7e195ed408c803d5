package netfabric

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"matopt/internal/engine"
)

// seedFrames are the wire frames the fuzzer mutates from: one of every
// frame type, covering every payload kind the codec knows, and a frame of
// type 1, the retired OPEN, which no reader may take for a session. The
// same bytes are checked in under testdata/fuzz/FuzzFrame so `go test
// -fuzz=FuzzFrame` starts from a meaningful corpus.
func seedFrames(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	add := func(f []byte, err error) {
		seeds = append(seeds, mustFrame(tb)(f, err))
	}
	add(controlFrame(nil, 1), nil)
	for i, m := range sampleMessages() {
		add(shardMessageFrame(nil, frameMsg, i, m))
		add(shardMessageFrame(nil, frameInbox, i, m))
	}
	add(controlFrame(nil, frameFin), nil)
	add(controlFrame(nil, frameEOF), nil)
	// And one deliberately corrupt frame so the reject path is seeded.
	bad := append([]byte(nil), seeds[0]...)
	bad[len(bad)-1] ^= 0xff
	seeds = append(seeds, bad)
	return seeds
}

// FuzzFrame feeds arbitrary bytes through the full wire read path the
// coordinator's reader takes: the frame header, then the one decoder for
// MSG/INBOX frames and the payload's checksum for the others. The codec
// must never panic; failures must be the typed ErrBadFrame (or a plain
// io short-read error), and anything that decodes must re-encode to the
// exact bytes it came from — the codec is canonical, which is what lets
// the golden tests compare wire traffic bit for bit.
func FuzzFrame(f *testing.F) {
	for _, seed := range seedFrames(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typed := func(err error) {
			if !errors.Is(err, ErrBadFrame) && err != io.EOF && err != io.ErrUnexpectedEOF {
				t.Fatalf("untyped frame error: %v", err)
			}
		}
		fr := frameReader{r: bytes.NewReader(data)}
		typ, err := fr.header()
		if err != nil {
			typed(err)
			return
		}
		if typ == frameMsg || typ == frameInbox {
			shard, m, err := fr.message()
			if err != nil {
				typed(err)
				return
			}
			frame := data[:frameHeaderLen+fr.n+frameTrailerLen]
			if got := mustFrame(t)(shardMessageFrame(nil, typ, shard, m)); !bytes.Equal(got, frame) {
				t.Fatalf("message did not round-trip canonically:\n got %x\nwant %x", got, frame)
			}
			return
		}
		// Other frames carry no payload worth decoding; reading them must
		// simply not have panicked.
		if _, err := fr.body(); err != nil {
			typed(err)
		}
	})
}

// seedPayloads are the inputs FuzzScanMatchesDecode mutates from: the
// payload of every seed frame (valid MSG/INBOX payloads of every kind,
// and the others' empty ones), the seed frames themselves as raw bytes,
// and every hostile payload behind a shard word.
func seedPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, frame := range seedFrames(tb) {
		if _, payload, err := readFrame(bytes.NewReader(frame)); err == nil {
			seeds = append(seeds, payload)
		}
		seeds = append(seeds, frame)
	}
	hostile := hostilePayloads()
	names := make([]string, 0, len(hostile))
	for name := range hostile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		seeds = append(seeds, append(make([]byte, 8), hostile[name]...))
	}
	return seeds
}

// FuzzScanMatchesDecode holds the worker's validating scan to the
// decoder's verdict: on arbitrary payload bytes checkShardMessage
// returns nil exactly when decodeShardMessage does, and both failures
// are the typed ErrBadFrame — so a worker that relays a frame without
// building its tuple refuses exactly what one that built it would have.
func FuzzScanMatchesDecode(f *testing.F) {
	for _, seed := range seedPayloads(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		_, _, decodeErr := decodeShardMessage(payload)
		scanErr := checkShardMessage(payload)
		if (decodeErr == nil) != (scanErr == nil) {
			t.Fatalf("verdicts differ: decode %v, scan %v", decodeErr, scanErr)
		}
		if decodeErr != nil && (!errors.Is(decodeErr, ErrBadFrame) || !errors.Is(scanErr, ErrBadFrame)) {
			t.Fatalf("untyped rejection: decode %v, scan %v", decodeErr, scanErr)
		}
	})
}

// FuzzMessageRoundTrip drives the message codec from the structured
// side: any (key, seq, dense payload) the fabric could legally ship
// must survive encode→decode bit-identically.
func FuzzMessageRoundTrip(f *testing.F) {
	f.Add(int64(1), int64(2), int64(3), 2, 2, 1.5)
	f.Add(int64(-9), int64(0), int64(-1), 1, 4, -0.0)
	f.Fuzz(func(t *testing.T, ki, kj, seq int64, rows, cols int, fill float64) {
		if rows <= 0 || cols <= 0 || rows > 64 || cols > 64 {
			t.Skip()
		}
		m := Message{
			Key:   engine.Key{I: ki, J: kj},
			Seq:   seq,
			Tuple: denseTuple(engine.Key{I: ki, J: kj}, rows, cols, fill),
		}
		got, err := decodeMessage(encodeMessage(m))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !messagesEqual(got, m) {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, m)
		}
	})
}

// TestSeedCorpusInSync regenerates the checked-in seed corpora when
// NETFABRIC_WRITE_CORPUS=1 and otherwise verifies they match what
// seedFrames and seedPayloads produce, so the corpus under testdata/ can
// never rot.
func TestSeedCorpusInSync(t *testing.T) {
	syncCorpus(t, "FuzzFrame", seedFrames(t))
	syncCorpus(t, "FuzzScanMatchesDecode", seedPayloads(t))
}

func syncCorpus(t *testing.T, target string, seeds [][]byte) {
	dir := filepath.Join("testdata", "fuzz", target)
	if os.Getenv("NETFABRIC_WRITE_CORPUS") == "1" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
			name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for i, seed := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		body, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("seed corpus missing (regenerate with NETFABRIC_WRITE_CORPUS=1): %v", err)
		}
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
		if string(body) != want {
			t.Fatalf("seed corpus %s out of sync; regenerate with NETFABRIC_WRITE_CORPUS=1", name)
		}
	}
}
