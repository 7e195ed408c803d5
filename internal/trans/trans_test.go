package trans

import (
	"testing"

	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/shape"
)

var cl = costmodel.EC2R5D(10)

func TestTwentyTransformations(t *testing.T) {
	if n := len(All()); n != 20 {
		t.Fatalf("registry has %d transformations, want 20 (paper §8.1)", n)
	}
	seen := map[string]bool{}
	for _, tr := range All() {
		if seen[tr.Name] {
			t.Errorf("duplicate transformation %q", tr.Name)
		}
		seen[tr.Name] = true
		if All()[tr.ID] != tr {
			t.Errorf("%s: ID does not index the registry", tr.Name)
		}
	}
	if !All()[0].Identity() {
		t.Error("first transformation must be the identity")
	}
}

func TestIdentityIsFree(t *testing.T) {
	s := shape.New(5000, 5000)
	out, ok := IdentityTransform.Apply(s, 1, format.NewTile(1000), cl)
	if !ok || out.Format != format.NewTile(1000) {
		t.Fatalf("identity apply = %+v, %v", out, ok)
	}
	if out.Features != (costmodel.Features{}) {
		t.Errorf("identity features = %+v", out.Features)
	}
	m := costmodel.NewModel(cl)
	if IdentityTransform.Cost(m, out) != 0 {
		t.Error("identity cost must be zero")
	}
}

// toFormat returns the non-identity transformation targeting f, or nil.
func toFormat(f format.Format) *Transform {
	for _, tr := range All()[1:] {
		if tr.target == f {
			return tr
		}
	}
	return nil
}

func TestNoOpRelayoutRejected(t *testing.T) {
	tr := toFormat(format.NewTile(1000))
	if tr == nil {
		t.Fatal("to-tile[1000] missing")
	}
	if _, ok := tr.Apply(shape.New(5000, 5000), 1, format.NewTile(1000), cl); ok {
		t.Error("re-layout to the current format must be ⊥ (use identity)")
	}
}

func TestGatherToSingleHasROWMATRIXShape(t *testing.T) {
	// A 1000×1000 matrix in 100 tiles gathered into one tuple, the
	// motivating example's matAB re-layout scaled to our tile sizes.
	s := shape.New(1000, 1000)
	tr := toFormat(format.NewSingle())
	out, ok := tr.Apply(s, 1, format.NewTile(100), cl)
	if !ok {
		t.Fatal("tile→single rejected")
	}
	if out.Format.Kind != format.Single {
		t.Fatalf("format = %v", out.Format)
	}
	if out.Features.NetBytes <= 0 || out.Features.InterBytes <= 0 {
		t.Errorf("gather must move data and materialize an intermediate pass: %+v", out.Features)
	}
}

func TestSingleTooBigRejected(t *testing.T) {
	big := shape.New(100000, 100000) // 80 GB
	tr := toFormat(format.NewSingle())
	if _, ok := tr.Apply(big, 1, format.NewTile(1000), cl); ok {
		t.Error("gathering 80GB into one tuple must be ⊥")
	}
	// But the sparse single-tuple CSR of a very sparse matrix fits.
	trc := toFormat(format.NewCSRSingle())
	if _, ok := trc.Apply(big, 1e-6, format.NewCOO(), cl); !ok {
		t.Error("COO→CSR-single of a very sparse matrix must be feasible")
	}
}

func TestScatterAndShuffleCosts(t *testing.T) {
	s := shape.New(10000, 10000) // 800 MB
	scatter, ok := toFormat(format.NewTile(1000)).Apply(s, 1, format.NewSingle(), cl)
	if !ok {
		t.Fatal("single→tile rejected")
	}
	if scatter.Features.NetBytes != float64(s.Bytes()) {
		t.Errorf("scatter net bytes = %v, want full payload", scatter.Features.NetBytes)
	}
	shuffle, ok := toFormat(format.NewRowStrip(1000)).Apply(s, 1, format.NewTile(1000), cl)
	if !ok {
		t.Fatal("tile→rowstrip rejected")
	}
	want := costmodel.ShuffleBytes(float64(s.Bytes()), cl.Workers)
	if shuffle.Features.NetBytes != want {
		t.Errorf("shuffle net bytes = %v, want %v", shuffle.Features.NetBytes, want)
	}
	if shuffle.Features.NetBytes >= scatter.Features.NetBytes {
		t.Error("a parallel shuffle must beat a single-node scatter per link")
	}
}

func TestDensifyAndSparsify(t *testing.T) {
	s := shape.New(20000, 20000)
	// Sparse→dense strips of a very sparse matrix: valid, and the cost
	// reflects the dense target size.
	out, ok := toFormat(format.NewRowStrip(1000)).Apply(s, 1e-4, format.NewCSRSingle(), cl)
	if !ok {
		t.Fatal("csr→rowstrip rejected")
	}
	if out.Format != format.NewRowStrip(1000) {
		t.Errorf("format = %v", out.Format)
	}
	// Dense→COO explodes the tuple count.
	cooOut, ok := toFormat(format.NewCOO()).Apply(s, 0.5, format.NewTile(1000), cl)
	if !ok {
		t.Fatal("tile→coo rejected")
	}
	if cooOut.Features.Tuples < 1e6 {
		t.Errorf("COO tuple feature = %v, want per-non-zero tuples", cooOut.Features.Tuples)
	}
}

func TestForFormatsRestriction(t *testing.T) {
	ts := ForFormats(format.SingleBlock())
	// identity + to-single + 9 tile targets.
	if len(ts) != 11 {
		t.Fatalf("ForFormats(SingleBlock) = %d transformations, want 11", len(ts))
	}
	for _, tr := range ts[1:] {
		if tr.Target().Kind != format.Single && tr.Target().Kind != format.Tile {
			t.Errorf("unexpected target %v", tr.Target())
		}
	}
}

func TestTransformCostPositive(t *testing.T) {
	m := costmodel.NewModel(cl)
	s := shape.New(10000, 10000)
	for _, tr := range All()[1:] {
		out, ok := tr.Apply(s, 0.01, format.NewTile(1000), cl)
		if !ok {
			continue
		}
		if c := tr.Cost(m, out); c <= 0 {
			t.Errorf("%s: cost = %v, want > 0", tr.Name, c)
		}
	}
}
