package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
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
func Fingerprint(g *Graph, env *Env) string {
	h := sha256.New()
	fmt.Fprintf(h, "cluster|%+v\n", env.Cluster)
	fmt.Fprintf(h, "beam|%d\n", env.MaxClassEntries)
	for _, f := range env.Formats {
		fmt.Fprintf(h, "fmt|%v\n", f)
	}
	if env.Model != nil {
		fmt.Fprintf(h, "model|%+v\n", env.Model.Default)
		keys := make([]string, 0, len(env.Model.PerKey))
		for k := range env.Model.PerKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "model|%s|%+v\n", k, env.Model.PerKey[k])
		}
	}
	for _, v := range g.Vertices {
		if v.IsSource {
			fmt.Fprintf(h, "src|%d|%s|%v|%v|%.17g\n", v.ID, v.Name, v.Shape, v.SrcFormat, v.Density)
			continue
		}
		fmt.Fprintf(h, "op|%d|%d|%.17g|%v|%.17g|", v.ID, v.Op.Kind, v.Op.Scalar, v.Shape, v.Density)
		for _, in := range v.Ins {
			fmt.Fprintf(h, "%d,", in.ID)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}
