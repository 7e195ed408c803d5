package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"

	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/shape"
)

// Fingerprint returns a canonical digest of everything the optimizer's
// answer depends on: the graph's structure (vertex ops, argument wiring,
// shapes, densities, input names and formats) and the environment (the
// format universe, the cluster profile, the cost-model coefficients and
// the beam limit). Equal fingerprints, same plan byte for byte from
// Optimize: the root package's plan cache rests on it
// (TestPlanBytesStableOnTrees). Densities are part of the key because the
// adaptive executor re-optimizes remainder graphs with measured
// densities substituted in — those must not collide with the original
// estimate's plan.
//
// Every served request fingerprints its graph, so the environment's
// lines — the same bytes call after call — are rendered once per Env
// (envText) and the per-vertex lines are appended without fmt; the
// digests are the ones the fmt.Fprintf rendering produced
// (TestFingerprintDigests).
func Fingerprint(g *Graph, env *Env) string {
	b := append(make([]byte, 0, 2048), env.envText()...)
	for _, v := range g.Vertices {
		if v.IsSource { // src|%d|%s|%v|%v|%.17g\n
			b = append(b, "src|"...)
			b = strconv.AppendInt(b, int64(v.ID), 10)
			b = append(append(b, '|'), v.Name...)
			b = appendShape(append(b, '|'), v.Shape)
			b = append(append(b, '|'), v.SrcFormat.String()...)
			b = strconv.AppendFloat(append(b, '|'), v.Density, 'g', 17, 64)
			b = append(b, '\n')
			continue
		}
		// op|%d|%d|%.17g|%v|%.17g| then "%d," per argument
		b = append(b, "op|"...)
		b = strconv.AppendInt(b, int64(v.ID), 10)
		b = strconv.AppendInt(append(b, '|'), int64(v.Op.Kind), 10)
		b = strconv.AppendFloat(append(b, '|'), v.Op.Scalar, 'g', 17, 64)
		b = appendShape(append(b, '|'), v.Shape)
		b = strconv.AppendFloat(append(b, '|'), v.Density, 'g', 17, 64)
		b = append(b, '|')
		for _, in := range v.Ins {
			b = append(strconv.AppendInt(b, int64(in.ID), 10), ',')
		}
		b = append(b, '\n')
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// appendShape appends s as shape.Shape.String renders it.
func appendShape(b []byte, s shape.Shape) []byte {
	b = strconv.AppendInt(b, s.Rows, 10)
	return strconv.AppendInt(append(b, 'x'), s.Cols, 10)
}

// envRender is the environment's part of Fingerprint's input together
// with the field values it was rendered from. Env's fields are exported
// and callers do set them after NewEnv (a calibrated Model, a test's
// beam), so a rendering is reused only while every one of them still
// compares equal — a few dozen word compares against a dozen Fprintf
// calls.
type envRender struct {
	cluster costmodel.Cluster
	beam    int
	formats []format.Format
	model   *costmodel.Model // a copy; nil when the Env had none
	text    []byte
}

func (r *envRender) current(env *Env) bool {
	if r.cluster != env.Cluster || r.beam != env.MaxClassEntries ||
		!slices.Equal(r.formats, env.Formats) || (r.model == nil) != (env.Model == nil) {
		return false
	}
	return r.model == nil || r.model.Default == env.Model.Default && maps.Equal(r.model.PerKey, env.Model.PerKey)
}

// envText returns the cluster, beam, format and model lines of the
// fingerprint, rendering them only when the environment has changed
// since the last call.
func (env *Env) envText() []byte {
	if env.fp != nil {
		if r := env.fp.Load(); r != nil && r.current(env) {
			return r.text
		}
	}
	r := &envRender{cluster: env.Cluster, beam: env.MaxClassEntries, formats: slices.Clone(env.Formats)}
	b := fmt.Appendf(nil, "cluster|%+v\nbeam|%d\n", env.Cluster, env.MaxClassEntries)
	for _, f := range env.Formats {
		b = fmt.Appendf(b, "fmt|%v\n", f)
	}
	if env.Model != nil {
		r.model = &costmodel.Model{Default: env.Model.Default, PerKey: maps.Clone(env.Model.PerKey)}
		b = fmt.Appendf(b, "model|%+v\n", env.Model.Default)
		keys := make([]string, 0, len(env.Model.PerKey))
		for k := range env.Model.PerKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = fmt.Appendf(b, "model|%s|%+v\n", k, env.Model.PerKey[k])
		}
	}
	r.text = b
	if env.fp != nil {
		env.fp.Store(r)
	}
	return b
}
