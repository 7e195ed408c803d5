package format

import (
	"testing"
	"testing/quick"

	"matopt/internal/shape"
)

func TestSetCardinalities(t *testing.T) {
	// §8.4 of the paper fixes these counts: 19 total, 16 without the
	// sparse layouts, 10 with only single and block formats.
	if n := len(All()); n != 19 {
		t.Errorf("All() has %d formats, want 19", n)
	}
	if n := len(SingleStripBlock()); n != 16 {
		t.Errorf("SingleStripBlock() has %d formats, want 16", n)
	}
	if n := len(SingleBlock()); n != 10 {
		t.Errorf("SingleBlock() has %d formats, want 10", n)
	}
	seen := map[Format]bool{}
	for _, f := range All() {
		if seen[f] {
			t.Errorf("duplicate format %v", f)
		}
		seen[f] = true
	}
}

func TestConstructorsPanicOnBadBlock(t *testing.T) {
	for _, fn := range []func(){
		func() { NewTile(0) },
		func() { NewRowStrip(-1) },
		func() { NewColStrip(0) },
		func() { NewCSRRowStrip(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructor accepted non-positive block")
				}
			}()
			fn()
		}()
	}
}

func TestNumTuples(t *testing.T) {
	s := shape.New(2500, 3300)
	cases := []struct {
		f    Format
		want int64
	}{
		{NewSingle(), 1},
		{NewCSRSingle(), 1},
		{NewTile(1000), 3 * 4},
		{NewTile(100), 25 * 33},
		{NewRowStrip(1000), 3},
		{NewColStrip(1000), 4},
		{NewCSRRowStrip(1000), 3},
	}
	for _, c := range cases {
		if got := c.f.NumTuplesDensity(s, 1); got != c.want {
			t.Errorf("%v.NumTuplesDensity(%v, 1) = %d, want %d", c.f, s, got, c.want)
		}
	}
	// COO stores one tuple per non-zero.
	if got := NewCOO().NumTuplesDensity(s, 0.01); got != int64(0.01*2500*3300) {
		t.Errorf("COO tuples = %d", got)
	}
	if got := NewCOO().NumTuplesDensity(s, 0); got != 1 {
		t.Errorf("COO tuples at density 0 = %d, want 1 (floor)", got)
	}
}

func TestBytes(t *testing.T) {
	s := shape.New(1000, 1000)
	if got := NewSingle().Bytes(s, 1); got != 8e6 {
		t.Errorf("single bytes = %d", got)
	}
	if got := NewTile(100).Bytes(s, 1); got != 8e6 {
		t.Errorf("tile bytes = %d (dense formats materialize all entries)", got)
	}
	// Sparse formats shrink with density.
	dense := NewCSRSingle().Bytes(s, 1.0)
	sp := NewCSRSingle().Bytes(s, 0.01)
	if sp >= dense/10 {
		t.Errorf("CSR at 1%% density = %d bytes, dense = %d; want ≫10x smaller", sp, dense)
	}
	if got := NewCOO().Bytes(s, 0.5); got != 16*500000 {
		t.Errorf("COO bytes = %d", got)
	}
}

func TestMaxTupleBytes(t *testing.T) {
	s := shape.New(2500, 3300)
	if got := NewTile(1000).MaxTupleBytes(s, 1); got != 8e6 {
		t.Errorf("tile tuple = %d", got)
	}
	if got := NewRowStrip(1000).MaxTupleBytes(s, 1); got != 1000*3300*8 {
		t.Errorf("rowstrip tuple = %d", got)
	}
	if got := NewColStrip(1000).MaxTupleBytes(s, 1); got != 2500*1000*8 {
		t.Errorf("colstrip tuple = %d", got)
	}
	if got := NewCOO().MaxTupleBytes(s, 0.3); got != 16 {
		t.Errorf("COO tuple = %d", got)
	}
}

func TestValid(t *testing.T) {
	const maxTuple = 1 << 30
	big := shape.New(100000, 100000) // 80 GB dense
	if NewSingle().Valid(big, 1, maxTuple) {
		t.Error("an 80GB matrix must not fit a single tuple")
	}
	if !NewTile(1000).Valid(big, 1, maxTuple) {
		t.Error("tiling an 80GB matrix must be valid")
	}
	if !NewCSRSingle().Valid(big, 1e-6, maxTuple) {
		t.Error("a very sparse 100K×100K matrix fits a CSR single tuple")
	}
	// Strips can exceed the tuple bound even when tiles do not.
	if NewRowStrip(10000).Valid(big, 1, maxTuple) {
		t.Error("a 10000×100000 strip is 8GB and must be invalid")
	}
	// Block larger than the matrix in the relevant extent.
	small := shape.New(50, 500)
	if NewRowStrip(100).Valid(small, 1, maxTuple) {
		t.Error("row strip taller than the matrix must be invalid")
	}
	if !NewColStrip(100).Valid(small, 1, maxTuple) {
		t.Error("col strip of width 100 on 50x500 must be valid")
	}
	if NewTile(1000).Valid(small, 1, maxTuple) {
		t.Error("tile exceeding both extents must be invalid")
	}
	if !NewTile(100).Valid(small, 1, maxTuple) {
		t.Error("tile 100 on 50x500 must be valid (covers columns)")
	}
}

func TestStringForms(t *testing.T) {
	cases := map[string]Format{
		"single":             NewSingle(),
		"tile[1000]":         NewTile(1000),
		"rowstrip[100]":      NewRowStrip(100),
		"colstrip[10000]":    NewColStrip(10000),
		"coo":                NewCOO(),
		"csr-single":         NewCSRSingle(),
		"csr-rowstrip[1000]": NewCSRRowStrip(1000),
	}
	for want, f := range cases {
		if got := f.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestIsSparseIsChunked(t *testing.T) {
	if NewTile(1000).IsSparse() || !NewCOO().IsSparse() || !NewCSRRowStrip(1000).IsSparse() {
		t.Error("IsSparse misclassifies")
	}
}

func TestTuplesTimesTupleBytesCoversTotal(t *testing.T) {
	// For dense formats, tuple count × max tuple size must be at least
	// the dense payload (chunk padding makes it an upper bound).
	f := func(r16, c16 uint16, pick uint8) bool {
		s := shape.New(int64(r16)+1, int64(c16)+1)
		fs := SingleStripBlock()
		fm := fs[int(pick)%len(fs)]
		return fm.NumTuplesDensity(s, 1)*fm.MaxTupleBytes(s, 1) >= s.Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
