package impl

// strategyByName classifies each physical implementation by its dominant
// data-movement pattern — the paper's taxonomy, rendered by the plan's
// Explain listing and attached to execution spans.
var strategyByName = map[string]string{
	"mm-single-single":             "local",
	"mm-csr-single-single":         "local",
	"add-single":                   "local",
	"sub-single":                   "local",
	"hadamard-single":              "local",
	"softmax-single":               "local",
	"transpose-single":             "local",
	"transpose-csr-single":         "local",
	"inverse-single":               "local",
	"addbias-single":               "local",
	"rowsums-single":               "local",
	"colsums-single":               "local",
	"mm-bcast-single-colstrip":     "broadcast-join",
	"mm-rowstrip-bcast-single":     "broadcast-join",
	"mm-rowstrip-colstrip":         "broadcast-join",
	"mm-tile-tile-bcast":           "broadcast-join",
	"mm-bcast-single-tile":         "broadcast-join",
	"mm-tile-bcast-single":         "broadcast-join",
	"mm-csr-rowstrip-bcast-single": "broadcast-join",
	"addbias-rowstrip-bcast":       "broadcast-join",
	"mm-tile-tile-shuffle":         "shuffle-join",
	"transpose-tile":               "shuffle-join",
	"transpose-strip":              "shuffle-join",
	"mm-colstrip-rowstrip-agg":     "group-by-sum",
	"mm-bcast-csr-rowstrip-agg":    "group-by-sum",
	"mm-bcast-coo-single":          "group-by-sum",
	"add-copart":                   "co-partition-join",
	"sub-copart":                   "co-partition-join",
	"hadamard-copart":              "co-partition-join",
}

// Strategy returns the implementation's strategy class; element-wise and
// reduction kernels default to "map".
func (im *Impl) Strategy() string {
	if s, ok := strategyByName[im.Name]; ok {
		return s
	}
	return "map"
}
