package impl

import (
	"testing"

	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/shape"
)

var cl10 = costmodel.EC2R5D(10)

func in(s shape.Shape, f format.Format) Input {
	return Input{Shape: s, Density: 1, Format: f}
}

func mustApply(t *testing.T, im *Impl, o op.Op, ins []Input) Out {
	t.Helper()
	outShape, ok := o.OutShape(shapesOf(ins))
	if !ok {
		t.Fatalf("%s: bad op shapes", im.Name)
	}
	outDen := o.OutDensity(shapesOf(ins), densOf(ins))
	out, ok := im.Apply(o, ins, outShape, outDen, cl10)
	if !ok {
		t.Fatalf("%s rejected inputs %v", im.Name, ins)
	}
	return out
}

func shapesOf(ins []Input) []shape.Shape {
	out := make([]shape.Shape, len(ins))
	for i, in := range ins {
		out[i] = in.Shape
	}
	return out
}

func densOf(ins []Input) []float64 {
	out := make([]float64, len(ins))
	for i, in := range ins {
		out[i] = in.Density
	}
	return out
}

func TestThirtyEightImplementations(t *testing.T) {
	if n := len(All()); n != 38 {
		t.Fatalf("registry has %d implementations, want 38 (paper §8.1)", n)
	}
	seen := map[string]bool{}
	for _, im := range All() {
		if seen[im.Name] {
			t.Errorf("duplicate implementation name %q", im.Name)
		}
		seen[im.Name] = true
		if All()[im.ID] != im || ByName(im.Name) != im {
			t.Errorf("%s: registry lookup broken", im.Name)
		}
	}
	// Every atomic computation has at least one implementation.
	for _, k := range op.Kinds() {
		if len(ForOp(k)) == 0 {
			t.Errorf("no implementation for %v", k)
		}
	}
	if len(ForOp(op.MatMul)) != 13 {
		t.Errorf("matmul implementations = %d, want 13", len(ForOp(op.MatMul)))
	}
}

func TestApplyRejectsWrongOpAndArity(t *testing.T) {
	s := shape.New(100, 100)
	ins := []Input{in(s, format.NewSingle()), in(s, format.NewSingle())}
	if _, ok := MMSingleSingle.Apply(op.Op{Kind: op.Add}, ins, s, 1, cl10); ok {
		t.Error("matmul impl accepted an add op")
	}
	if _, ok := MMSingleSingle.Apply(op.Op{Kind: op.MatMul}, ins[:1], s, 1, cl10); ok {
		t.Error("binary impl accepted one input")
	}
}

func TestMMSingleSingle(t *testing.T) {
	a := in(shape.New(100, 200), format.NewSingle())
	b := in(shape.New(200, 50), format.NewSingle())
	out := mustApply(t, MMSingleSingle, op.Op{Kind: op.MatMul}, []Input{a, b})
	if out.Format.Kind != format.Single {
		t.Errorf("output format %v", out.Format)
	}
	if want := 2.0 * 100 * 200 * 50; out.Features.FLOPs != want {
		t.Errorf("FLOPs = %v, want %v", out.Features.FLOPs, want)
	}
	// The smaller operand (b: 80KB) moves.
	if out.Features.NetBytes != 200*50*8 {
		t.Errorf("NetBytes = %v", out.Features.NetBytes)
	}
}

func TestMMRejectsMismatchedFormats(t *testing.T) {
	a := in(shape.New(100, 200), format.NewTile(100))
	b := in(shape.New(200, 50), format.NewSingle())
	o := op.Op{Kind: op.MatMul}
	if _, ok := MMSingleSingle.Apply(o, []Input{a, b}, shape.New(100, 50), 1, cl10); ok {
		t.Error("mm-single-single accepted a tiled input")
	}
	// Tile sizes must match for the tile×tile strategies.
	c := in(shape.New(100, 200), format.NewTile(100))
	d := in(shape.New(200, 50), format.NewTile(50))
	if _, ok := MMTileTileShuffle.Apply(o, []Input{c, d}, shape.New(100, 50), 1, cl10); ok {
		t.Error("tile shuffle accepted mismatched tile sizes")
	}
	// Strip extents must match for rowstrip×colstrip.
	e := in(shape.New(1000, 200), format.NewRowStrip(100))
	f := in(shape.New(200, 1000), format.NewColStrip(1000))
	if _, ok := MMRowStripColStrip.Apply(o, []Input{e, f}, shape.New(1000, 1000), 1, cl10); ok {
		t.Error("rowstrip×colstrip accepted mismatched extents")
	}
}

func TestMMRowStripColStripOutputsTiles(t *testing.T) {
	a := in(shape.New(1000, 5000), format.NewRowStrip(100))
	b := in(shape.New(5000, 1000), format.NewColStrip(100))
	out := mustApply(t, MMRowStripColStrip, op.Op{Kind: op.MatMul}, []Input{a, b})
	if out.Format != format.NewTile(100) {
		t.Errorf("output format = %v, want tile[100]", out.Format)
	}
}

func TestMMColStripRowStripAggOutputsSingle(t *testing.T) {
	a := in(shape.New(100, 10000), format.NewColStrip(1000))
	b := in(shape.New(10000, 100), format.NewRowStrip(1000))
	out := mustApply(t, MMColStripRowStripAgg, op.Op{Kind: op.MatMul}, []Input{a, b})
	if out.Format.Kind != format.Single {
		t.Errorf("output format = %v, want single", out.Format)
	}
	if out.Features.InterBytes <= 0 {
		t.Error("partial-product intermediate bytes must be positive")
	}
}

func TestTileShuffleIntermediateGrowsWithInnerDim(t *testing.T) {
	o := op.Op{Kind: op.MatMul}
	mk := func(k int64) Out {
		a := in(shape.New(10000, k), format.NewTile(1000))
		b := in(shape.New(k, 10000), format.NewTile(1000))
		return mustApply(t, MMTileTileShuffle, o, []Input{a, b})
	}
	small, large := mk(10000), mk(60000)
	if large.Features.InterBytes <= small.Features.InterBytes {
		t.Error("intermediate bytes must grow with the inner dimension")
	}
}

// The paper's Fail entries: the all-tile FFNN at hidden=160K dies from
// the shuffle join's materialized product tiles on small clusters but
// fits on larger ones (Figure 7). The per-operator scratch bound that
// enforces this lives in the simulator; here we check the intermediate
// volume straddles the bound at the paper's cluster sizes.
func TestTileShuffleIntermediateStraddlesScratchBound(t *testing.T) {
	o := op.Op{Kind: op.MatMul}
	a1 := shape.New(10000, 160000)
	w2 := shape.New(160000, 160000)
	inter := func(workers int) float64 {
		cl := costmodel.EC2R5D(workers)
		a := Input{Shape: a1, Density: 1, Format: format.NewTile(1000)}
		b := Input{Shape: w2, Density: 1, Format: format.NewTile(1000)}
		outShape, _ := o.OutShape([]shape.Shape{a1, w2})
		out, ok := MMTileTileShuffle.Apply(o, []Input{a, b}, outShape, 1, cl)
		if !ok {
			t.Fatalf("tile shuffle rejected at %d workers", workers)
		}
		return out.Features.InterBytes
	}
	scratch := float64(costmodel.EC2R5D(10).ScratchPerWorker)
	if inter(10) <= scratch {
		t.Error("at 10 workers the Z2 shuffle must overflow scratch (paper: Fail)")
	}
	if inter(20) > scratch {
		t.Error("at 20 workers the Z2 shuffle must fit scratch (paper: runs)")
	}
}

func TestBroadcastImplsChargeBroadcast(t *testing.T) {
	small := in(shape.New(100, 100), format.NewSingle())
	strips := in(shape.New(100, 1000000), format.NewColStrip(10000))
	out := mustApply(t, MMSingleColStripBcast, op.Op{Kind: op.MatMul}, []Input{small, strips})
	if out.Format != format.NewColStrip(10000) {
		t.Errorf("format = %v", out.Format)
	}
	wantNet := costmodel.BroadcastBytes(100*100*8, cl10.Workers)
	if out.Features.NetBytes != wantNet {
		t.Errorf("NetBytes = %v, want %v", out.Features.NetBytes, wantNet)
	}
}

func TestSparseMultipliesUseNNZFlops(t *testing.T) {
	s := shape.New(10000, 597540)
	w := shape.New(597540, 4000)
	a := Input{Shape: s, Density: 1.7e-4, Format: format.NewCSRSingle()}
	b := Input{Shape: w, Density: 1, Format: format.NewRowStrip(1000)}
	o := op.Op{Kind: op.MatMul}
	outShape, _ := o.OutShape([]shape.Shape{s, w})
	out, ok := MMCSRBcastRowStripAgg.Apply(o, []Input{a, b}, outShape, 1, cl10)
	if !ok {
		t.Fatal("sparse broadcast multiply rejected")
	}
	denseFlops := 2.0 * 10000 * 597540 * 4000
	if out.Features.FLOPs > denseFlops/100 {
		t.Errorf("sparse FLOPs %v not ≪ dense %v", out.Features.FLOPs, denseFlops)
	}
	// The network cost (sparse broadcast + output reduction) must be far
	// below moving the dense input matrix (≈48 GB).
	if out.Features.NetBytes > 2e9 {
		t.Errorf("sparse plan moves %v bytes", out.Features.NetBytes)
	}
	bcast := costmodel.BroadcastBytes(float64(a.Format.Bytes(a.Shape, a.Density)), cl10.Workers)
	if bcast > 1e8 {
		t.Errorf("broadcasting the sparse matrix costs %v bytes, want tiny", bcast)
	}
}

func TestElementwiseImpls(t *testing.T) {
	s := shape.New(2000, 2000)
	o := op.Op{Kind: op.Add}
	single := []Input{in(s, format.NewSingle()), in(s, format.NewSingle())}
	out := mustApply(t, AddSingle, o, single)
	if out.Format.Kind != format.Single || out.Features.FLOPs != float64(s.Elems()) {
		t.Errorf("add-single out = %+v", out)
	}
	tiles := []Input{in(s, format.NewTile(1000)), in(s, format.NewTile(1000))}
	out = mustApply(t, AddCoPart, o, tiles)
	if out.Format != format.NewTile(1000) {
		t.Errorf("add-copart format = %v", out.Format)
	}
	mixed := []Input{in(s, format.NewTile(1000)), in(s, format.NewTile(500))}
	if _, ok := AddCoPart.Apply(o, mixed, s, 1, cl10); ok {
		t.Error("co-partition add accepted mismatched formats")
	}
	if _, ok := AddCoPart.Apply(o, single, s, 1, cl10); ok {
		t.Error("co-partition add accepted single formats (use add-single)")
	}
}

func TestMapImplsPreserveFormat(t *testing.T) {
	s := shape.New(3000, 3000)
	for _, f := range []format.Format{format.NewSingle(), format.NewTile(1000), format.NewRowStrip(1000), format.NewColStrip(1000)} {
		out := mustApply(t, ReLUMap, op.Op{Kind: op.ReLU}, []Input{in(s, f)})
		if out.Format != f {
			t.Errorf("relu on %v changed format to %v", f, out.Format)
		}
	}
	// Zero-preserving maps accept sparse inputs; sigmoid must not.
	sp := Input{Shape: s, Density: 0.01, Format: format.NewCSRSingle()}
	if _, ok := ReLUMap.Apply(op.Op{Kind: op.ReLU}, []Input{sp}, s, 0.01, cl10); !ok {
		t.Error("relu rejected a sparse input")
	}
	if _, ok := SigmoidMap.Apply(op.Op{Kind: op.Sigmoid}, []Input{sp}, s, 1, cl10); ok {
		t.Error("sigmoid accepted a sparse input (its output is dense)")
	}
}

func TestSoftmaxNeedsWholeRows(t *testing.T) {
	s := shape.New(10000, 17)
	o := op.Op{Kind: op.Softmax}
	if _, ok := SoftmaxSingle.Apply(o, []Input{in(s, format.NewSingle())}, s, 1, cl10); !ok {
		t.Error("softmax-single rejected")
	}
	if _, ok := SoftmaxRowStrip.Apply(o, []Input{in(s, format.NewRowStrip(1000))}, s, 1, cl10); !ok {
		t.Error("softmax-rowstrip rejected")
	}
	if _, ok := SoftmaxRowStrip.Apply(o, []Input{in(shape.New(10000, 10000), format.NewColStrip(1000))}, shape.New(10000, 10000), 1, cl10); ok {
		t.Error("softmax accepted column strips (rows are split)")
	}
}

func TestTransposeImpls(t *testing.T) {
	s := shape.New(4000, 2000)
	o := op.Op{Kind: op.Transpose}
	out := mustApply(t, TransposeStripImpl, o, []Input{in(s, format.NewRowStrip(1000))})
	if out.Format != format.NewColStrip(1000) {
		t.Errorf("transpose rowstrip → %v, want colstrip[1000]", out.Format)
	}
	out = mustApply(t, TransposeStripImpl, o, []Input{in(s, format.NewColStrip(1000))})
	if out.Format != format.NewRowStrip(1000) {
		t.Errorf("transpose colstrip → %v, want rowstrip[1000]", out.Format)
	}
	out = mustApply(t, TransposeTileImpl, o, []Input{in(s, format.NewTile(1000))})
	if out.Format != format.NewTile(1000) {
		t.Errorf("transpose tile → %v", out.Format)
	}
	if out.Features.NetBytes == 0 {
		t.Error("tile transpose must shuffle")
	}
}

func TestReductionsAndInverse(t *testing.T) {
	s := shape.New(8000, 4000)
	out := mustApply(t, RowSumsRowStripImpl, op.Op{Kind: op.RowSums}, []Input{in(s, format.NewRowStrip(1000))})
	if out.Format != format.NewRowStrip(1000) {
		t.Errorf("rowsums format = %v", out.Format)
	}
	out = mustApply(t, ColSumsColStripImpl, op.Op{Kind: op.ColSums}, []Input{in(s, format.NewColStrip(1000))})
	if out.Format != format.NewColStrip(1000) {
		t.Errorf("colsums format = %v", out.Format)
	}
	sq := shape.New(2000, 2000)
	out = mustApply(t, InverseSingleImpl, op.Op{Kind: op.Inverse}, []Input{in(sq, format.NewSingle())})
	if want := 2.0 * 2000 * 2000 * 2000; out.Features.FLOPs != want {
		t.Errorf("inverse FLOPs = %v, want %v", out.Features.FLOPs, want)
	}
}

func TestOutputFormatValidityEnforced(t *testing.T) {
	// A single×single multiply whose output exceeds the tuple bound must
	// be rejected even though the inputs fit.
	a := in(shape.New(20000, 100), format.NewSingle())   // 16 MB
	b := in(shape.New(100, 1000000), format.NewSingle()) // 800 MB
	o := op.Op{Kind: op.MatMul}
	outShape, _ := o.OutShape([]shape.Shape{a.Shape, b.Shape}) // 20000×1e6 = 160 GB
	if _, ok := MMSingleSingle.Apply(o, []Input{a, b}, outShape, 1, cl10); ok {
		t.Error("a 160GB single-tuple output must be rejected")
	}
}

func TestCostUsesModel(t *testing.T) {
	m := costmodel.NewModel(cl10)
	a := in(shape.New(100, 100), format.NewSingle())
	b := in(shape.New(100, 100), format.NewSingle())
	out := mustApply(t, MMSingleSingle, op.Op{Kind: op.MatMul}, []Input{a, b})
	got := MMSingleSingle.Cost(m, out)
	if got <= 0 {
		t.Fatalf("cost = %v", got)
	}
	m.PerKey[MMSingleSingle.Name] = costmodel.Coeffs{Base: 7}
	if got := MMSingleSingle.Cost(m, out); got != 7 {
		t.Fatalf("per-key cost = %v", got)
	}
}
