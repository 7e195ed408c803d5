package plan_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/impl"
	"matopt/internal/op"
	"matopt/internal/plan"
	"matopt/internal/shape"
	"matopt/internal/trans"
	"matopt/internal/workload"
)

// payload is an Encode document opened up for editing: the tamper cases
// change one thing in it and marshal it back.
type payload struct {
	Version     int              `json:"version"`
	Fingerprint string           `json:"fingerprint"`
	Nodes       []map[string]any `json:"nodes"`
}

func tamper(t testing.TB, data []byte, edit func(*payload)) []byte {
	t.Helper()
	var doc payload
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	edit(&doc)
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// node returns the first listed node of the given kind.
func (p *payload) node(t testing.TB, kind string) (int, map[string]any) {
	t.Helper()
	for i, n := range p.Nodes {
		if n["kind"] == kind {
			return i, n
		}
	}
	t.Fatalf("payload lists no %s node", kind)
	return 0, nil
}

// rename gives the first listed node of the given kind another operator
// name.
func rename(kind, name string) func(testing.TB, *payload) {
	return func(t testing.TB, p *payload) {
		_, n := p.node(t, kind)
		n["name"] = name
	}
}

// tamperCases are edits of lowered(t)'s payload — X·W by a strip-broadcast
// matmul, a ReLU of that, an inverse behind a re-layout — that Decode
// must refuse: each leaves the fingerprint valid and changes a decision
// or the shape of the listing.
var tamperCases = []struct {
	name string
	edit func(testing.TB, *payload)
}{
	{"unknown implementation", rename("compute", "zz-rowstrip-bcast-single")},
	{"implementation of another op", rename("compute", impl.ReLUMap.Name)},
	{"implementation ⊥ on these formats", rename("compute", impl.MMTileTileShuffle.Name)},
	{"unknown transformation", rename("relayout", "teleport")},
	{"duplicated compute node", func(t testing.TB, p *payload) {
		i, n := p.node(t, "compute")
		p.Nodes = slices.Insert(p.Nodes, i, n)
	}},
	{"missing compute node", func(t testing.TB, p *payload) {
		i, _ := p.node(t, "compute")
		p.Nodes = slices.Delete(p.Nodes, i, i+1)
	}},
	{"second re-layout of one argument", func(t testing.TB, p *payload) {
		i, n := p.node(t, "relayout")
		p.Nodes = slices.Insert(p.Nodes, i, n)
	}},
	{"re-layout of an argument the vertex lacks", func(t testing.TB, p *payload) {
		_, n := p.node(t, "relayout")
		n["arg"] = 7
	}},
	{"compute node on a source", func(t testing.TB, p *payload) {
		_, n := p.node(t, "compute")
		n["vertex"] = 0
	}},
	{"compute node outside the graph", func(t testing.TB, p *payload) {
		_, n := p.node(t, "compute")
		n["vertex"] = 1 << 20
	}},
}

// TestDecodeRejectsTamperedDecisions: the listing is the payload, so an
// edited listing is an edited plan; every edit is refused with
// ErrInvalidPlan before anything is executed.
func TestDecodeRejectsTamperedDecisions(t *testing.T) {
	g, env, p := lowered(t)
	if first := p.Nodes[firstOfKind(t, p, plan.KindCompute)]; first.Name != impl.MMRowStripSingleBcast.Name {
		t.Fatalf("the cases assume the first compute node is the X·W matmul by %s, it is %s",
			impl.MMRowStripSingleBcast.Name, first.Name)
	}
	data, err := plan.Encode(p, env)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Decode(g, env, tamper(t, data, func(*payload) {})); err != nil {
		t.Fatalf("unedited payload rejected after a JSON round trip: %v", err)
	}
	for _, tc := range tamperCases {
		bad := tamper(t, data, func(p *payload) { tc.edit(t, p) })
		if _, err := plan.Decode(g, env, bad); !errors.Is(err, plan.ErrInvalidPlan) {
			t.Errorf("%s: %v does not wrap ErrInvalidPlan", tc.name, err)
		}
	}

	other := core.NewGraph()
	other.Input("x", shape.New(10, 10), 1, format.NewSingle())
	if _, err := plan.Decode(other, env, data); !errors.Is(err, plan.ErrInvalidPlan) {
		t.Errorf("payload decoded against another graph: %v", err)
	}
	var syntax *json.SyntaxError
	if _, err := plan.Decode(g, env, []byte("not json")); !errors.As(err, &syntax) {
		t.Errorf("garbage: %v is not a JSON syntax error", err)
	}
}

// TestDecodeRestoresAnnotation: a payload states decisions only — its
// top-level members are version, fingerprint and nodes — and Decode
// derives back every format and cost the optimizer's annotation held.
func TestDecodeRestoresAnnotation(t *testing.T) {
	g, env, p := lowered(t)
	data, err := plan.Encode(p, env)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 || top["version"] == nil || top["fingerprint"] == nil || top["nodes"] == nil {
		t.Fatalf("payload has top-level members other than version, fingerprint, nodes: %s", data)
	}
	p2, err := plan.Decode(g, env, data)
	if err != nil {
		t.Fatal(err)
	}
	want, got := p.Ann, p2.Ann
	if math.Float64bits(got.Total()) != math.Float64bits(want.Total()) {
		t.Errorf("decoded annotation totals %v, want %v", got.Total(), want.Total())
	}
	for _, v := range g.Vertices {
		if got.VertexImpl[v.ID] != want.VertexImpl[v.ID] || got.VertexFormat[v.ID] != want.VertexFormat[v.ID] ||
			got.VertexCost[v.ID] != want.VertexCost[v.ID] {
			t.Errorf("vertex %d: decoded (%v, %v, %v), want (%v, %v, %v)", v.ID,
				got.VertexImpl[v.ID], got.VertexFormat[v.ID], got.VertexCost[v.ID],
				want.VertexImpl[v.ID], want.VertexFormat[v.ID], want.VertexCost[v.ID])
		}
		for j := range v.Ins {
			ek := core.EdgeKey{To: v.ID, Arg: j}
			if got.EdgeTrans[ek] != want.EdgeTrans[ek] || got.EdgeCost[ek] != want.EdgeCost[ek] {
				t.Errorf("edge %v: decoded (%v, %v), want (%v, %v)", ek,
					got.EdgeTrans[ek], got.EdgeCost[ek], want.EdgeTrans[ek], want.EdgeCost[ek])
			}
		}
	}
}

// TestDecodeRejectsInfeasibleCluster re-binds a plan made on a large
// cluster to one whose tuple bound it violates: with the fingerprint out
// of the way, the chosen implementation being ⊥ there must stop it.
func TestDecodeRejectsInfeasibleCluster(t *testing.T) {
	g := core.NewGraph()
	a := g.Input("a", shape.New(5000, 5000), 1, format.NewSingle())
	b := g.Input("b", shape.New(5000, 5000), 1, format.NewSingle())
	g.MustApply(op.Op{Kind: op.MatMul}, a, b)
	env := core.NewEnv(costmodel.EC2R5D(5), format.All())
	ann, err := core.Optimize(g, env)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Lower(g, env, ann)
	if err != nil {
		t.Fatal(err)
	}
	data, err := plan.Encode(p, env)
	if err != nil {
		t.Fatal(err)
	}
	tiny := core.NewEnv(costmodel.EC2R5D(5), format.All())
	tiny.Cluster.MaxTupleBytes = 1 << 20 // 1 MB: 200 MB singles no longer fit
	rebound := tamper(t, data, func(p *payload) { p.Fingerprint = core.Fingerprint(g, tiny) })
	if _, err := plan.Decode(g, tiny, rebound); !errors.Is(err, plan.ErrInvalidPlan) {
		t.Errorf("infeasible plan: %v does not wrap ErrInvalidPlan", err)
	}
}

// TestDecodeRejectsFormatOutsideUniverse: the searches only keep an
// implementation whose output format is in env.Formats; Lower and Verify
// do not look. A payload lowered by hand around that rule is consistent
// in every other way, so Decode has to look.
func TestDecodeRejectsFormatOutsideUniverse(t *testing.T) {
	g := core.NewGraph()
	a := g.Input("a", shape.New(300, 300), 1, format.NewRowStrip(100))
	b := g.Input("b", shape.New(300, 300), 1, format.NewColStrip(100))
	mm := g.MustApply(op.Op{Kind: op.MatMul}, a, b)
	ann := core.NewAnnotation(g)
	identity := core.EdgeChoice{Trans: trans.IdentityTransform}
	ann.Decide(mm, core.Decision{Impl: impl.MMRowStripColStrip, Format: format.NewTile(100),
		Edges: []core.EdgeChoice{identity, identity}})

	universes := map[bool][]format.Format{
		true:  format.All(),
		false: {format.NewSingle(), format.NewRowStrip(100), format.NewColStrip(100)},
	}
	for accepted, formats := range universes {
		env := core.NewEnv(costmodel.LocalTest(3), formats)
		p, err := plan.Lower(g, env, ann)
		if err != nil {
			t.Fatal(err)
		}
		data, err := plan.Encode(p, env)
		if err != nil {
			t.Fatal(err)
		}
		_, err = plan.Decode(g, env, data)
		if accepted && err != nil {
			t.Errorf("tile[100] inside the universe: %v", err)
		}
		if !accepted && !errors.Is(err, plan.ErrInvalidPlan) {
			t.Errorf("tile[100] outside the universe: %v does not wrap ErrInvalidPlan", err)
		}
	}
}

// chainFixture is the computation the checked-in payloads under testdata/
// were made for: the paper-scale matmul chain on the CLI's default
// ten-worker cluster and dense formats (matopt -workload chain
// -plan-out). Its plan has two re-layouts.
func chainFixture(t testing.TB) (*core.Graph, *core.Env, *plan.Plan) {
	t.Helper()
	g, err := workload.Spec{Workload: "chain"}.Normalized().PaperGraph()
	if err != nil {
		t.Fatal(err)
	}
	env := core.NewEnv(costmodel.EC2R5D(10), format.DenseOnly())
	ann, err := core.Optimize(g, env)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Lower(g, env, ann)
	if err != nil {
		t.Fatal(err)
	}
	return g, env, p
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestGoldenPlanBytes pins version 5: the fixture's plan must encode to
// exactly the checked-in bytes. A change that moves them has changed the
// plan document (or the plan) and must be deliberate: bump encodeVersion
// if old payloads stop decoding, and rewrite testdata/chain.v5.json.
func TestGoldenPlanBytes(t *testing.T) {
	_, env, p := chainFixture(t)
	got, err := plan.Encode(p, env)
	if err != nil {
		t.Fatal(err)
	}
	if want := readFixture(t, "chain.v5.json"); !bytes.Equal(got, want) {
		t.Errorf("version 5 bytes moved; Encode now writes\n%s", got)
	}
}

// TestDecodeRefusesVersion3: version 3 differed from 4 only by a node
// mark nothing reads any more, 4 from 5 by the free nodes it listed, and
// 5 is the floor, so the golden listing relabelled as version 3 is
// refused rather than decoded.
func TestDecodeRefusesVersion3(t *testing.T) {
	g, env, _ := chainFixture(t)
	v3 := tamper(t, readFixture(t, "chain.v5.json"), func(p *payload) { p.Version = 3 })
	if _, err := plan.Decode(g, env, v3); !errors.Is(err, plan.ErrInvalidPlan) {
		t.Errorf("version 3: %v does not wrap ErrInvalidPlan", err)
	}
}

// TestLowerIsBitReproducible lowers one annotation twenty times: every
// node's predicted cost must be the same bits each time, not the same up
// to rounding — Simulate sums them.
func TestLowerIsBitReproducible(t *testing.T) {
	g, err := workload.Spec{Workload: "ffnn3", Scale: 200}.Normalized().Graph()
	if err != nil {
		t.Fatal(err)
	}
	env := core.NewEnv(costmodel.EC2R5D(10), format.All())
	ann, err := core.Optimize(g, env)
	if err != nil {
		t.Fatal(err)
	}
	first, err := plan.Lower(g, env, ann)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		p, err := plan.Lower(g, env, ann)
		if err != nil {
			t.Fatal(err)
		}
		for j, n := range p.Nodes {
			if f := first.Nodes[j]; n.Name != f.Name || math.Float64bits(n.Cost) != math.Float64bits(f.Cost) {
				t.Fatalf("lowering %d node %d: %s cost %x, the first lowering %s cost %x", i, j,
					n.Name, math.Float64bits(n.Cost), f.Name, math.Float64bits(f.Cost))
			}
		}
	}
}

// FuzzDecode feeds Decode arbitrary bytes for the fixture computation
// (the seed corpus holds payloads of versions 1–5 and edits of them). It
// must never panic; what it does not refuse — with ErrInvalidPlan or a
// JSON error — must be a valid plan that encodes to a payload decoding
// to the same plan.
func FuzzDecode(f *testing.F) {
	g, env, _ := chainFixture(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := plan.Decode(g, env, data)
		if err != nil {
			var syntax *json.SyntaxError
			var mistyped *json.UnmarshalTypeError
			if !errors.Is(err, plan.ErrInvalidPlan) && !errors.As(err, &syntax) && !errors.As(err, &mistyped) {
				t.Fatalf("Decode failed with an untyped error: %v", err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Decode accepted a plan that does not validate: %v", err)
		}
		again, err := plan.Encode(p, env)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := plan.Decode(g, env, again)
		if err != nil {
			t.Fatalf("re-encoded plan rejected: %v", err)
		}
		if p.Explain() != p2.Explain() {
			t.Fatalf("re-encoded plan decodes differently:\n%s\nvs\n%s", p.Explain(), p2.Explain())
		}
	})
}
