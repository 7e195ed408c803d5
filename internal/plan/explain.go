package plan

import (
	"fmt"
	"strings"
)

// Explain pretty-prints the physical plan: one line per operator with
// its strategy class, formats, and model-predicted cost. This is the
// CLI's -explain output, complementing core.Annotation.Describe (the
// logical plan listing) with the fully resolved physical view.
func (p *Plan) Explain() string {
	var b strings.Builder
	scans, relayouts, computes := p.Counts()
	fmt.Fprintf(&b, "physical plan: %d nodes (%d scans, %d re-layouts, %d computes), predicted %.2fs\n",
		len(p.Nodes), scans, relayouts, computes, p.PredictedSeconds())
	for _, n := range p.Nodes {
		switch n.Kind {
		case KindScan:
			fmt.Fprintf(&b, "  n%-3d scan     v%-3d %-28s → %v\n",
				n.ID, n.Vertex, n.Source, n.OutFormat)
		case KindRelayout:
			fmt.Fprintf(&b, "  n%-3d relayout v%d#%d %-27s %v → %v [%.3fs]\n",
				n.ID, n.Vertex, n.Arg, n.Name, n.InFormats[0], n.OutFormat, n.Cost)
		case KindCompute:
			fmt.Fprintf(&b, "  n%-3d compute  v%-3d %-28s (%s) %v → %v [%.3fs]\n",
				n.ID, n.Vertex, n.Name, n.Strategy, joinFormats(n.InFormats), n.OutFormat, n.Cost)
		}
	}
	return b.String()
}

// joinFormats renders a format list as "[a b ...]".
func joinFormats[F fmt.Stringer](fs []F) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}
