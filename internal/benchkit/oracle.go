package benchkit

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"matopt/internal/core"
	"matopt/internal/op"
)

// Mat is the oracle's own dense row-major matrix. It deliberately is
// not tensor.Dense: the oracle shares no code with the kernels whose
// results it judges.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMat returns a zeroed rows×cols matrix.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatFromRows builds a matrix from equal-length row slices.
func MatFromRows(rows [][]float64) *Mat {
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// Eval evaluates every vertex of g over whole matrices with plain
// loops — no physical format, no chunking, no kernel of internal/tensor
// or internal/sparse — and returns the sinks' values by vertex ID.
// It is the reference the engines' outputs are checked against; it is
// written for obviousness, not speed (only the matrix product is spread
// over the processors, by rows).
func Eval(g *core.Graph, inputs map[string]*Mat) (map[int]*Mat, error) {
	vals := make(map[int]*Mat, len(g.Vertices))
	for _, v := range g.Vertices {
		if v.IsSource {
			m := inputs[v.Name]
			if m == nil {
				return nil, fmt.Errorf("oracle: no input named %q", v.Name)
			}
			if int64(m.Rows) != v.Shape.Rows || int64(m.Cols) != v.Shape.Cols {
				return nil, fmt.Errorf("oracle: input %q is %d×%d, graph wants %d×%d",
					v.Name, m.Rows, m.Cols, v.Shape.Rows, v.Shape.Cols)
			}
			vals[v.ID] = m
			continue
		}
		ins := make([]*Mat, len(v.Ins))
		for i, in := range v.Ins {
			ins[i] = vals[in.ID]
		}
		out, err := apply(v.Op, ins)
		if err != nil {
			return nil, fmt.Errorf("oracle: vertex %d (%v): %w", v.ID, v.Op, err)
		}
		vals[v.ID] = out
	}
	outs := map[int]*Mat{}
	for _, s := range g.Sinks() {
		outs[s.ID] = vals[s.ID]
	}
	return outs, nil
}

func apply(o op.Op, in []*Mat) (*Mat, error) {
	switch o.Kind {
	case op.MatMul:
		return matMul(in[0], in[1])
	case op.Add:
		return zip(in[0], in[1], func(x, y float64) float64 { return x + y })
	case op.Sub:
		return zip(in[0], in[1], func(x, y float64) float64 { return x - y })
	case op.Hadamard:
		return zip(in[0], in[1], func(x, y float64) float64 { return x * y })
	case op.Transpose:
		a := in[0]
		t := NewMat(a.Cols, a.Rows)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				t.Data[j*t.Cols+i] = a.Data[i*a.Cols+j]
			}
		}
		return t, nil
	case op.ScalarMul:
		return each(in[0], func(x float64) float64 { return o.Scalar * x }), nil
	case op.Neg:
		return each(in[0], func(x float64) float64 { return -x }), nil
	case op.ReLU:
		return each(in[0], func(x float64) float64 { return math.Max(x, 0) }), nil
	case op.ReLUGrad:
		return each(in[0], func(x float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		}), nil
	case op.Sigmoid:
		return each(in[0], func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }), nil
	case op.Exp:
		return each(in[0], math.Exp), nil
	case op.Softmax:
		return softmax(in[0]), nil
	case op.RowSums:
		a := in[0]
		s := NewMat(a.Rows, 1)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				s.Data[i] += a.Data[i*a.Cols+j]
			}
		}
		return s, nil
	case op.ColSums:
		a := in[0]
		s := NewMat(1, a.Cols)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				s.Data[j] += a.Data[i*a.Cols+j]
			}
		}
		return s, nil
	case op.AddBias:
		a, bias := in[0], in[1]
		if bias.Rows != 1 || bias.Cols != a.Cols {
			return nil, fmt.Errorf("bias is %d×%d for a %d×%d matrix", bias.Rows, bias.Cols, a.Rows, a.Cols)
		}
		out := NewMat(a.Rows, a.Cols)
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < a.Cols; j++ {
				out.Data[i*a.Cols+j] = a.Data[i*a.Cols+j] + bias.Data[j]
			}
		}
		return out, nil
	case op.Inverse:
		return inverse(in[0])
	}
	return nil, fmt.Errorf("no oracle rule for %v", o.Kind)
}

func each(a *Mat, f func(float64) float64) *Mat {
	out := NewMat(a.Rows, a.Cols)
	for i, x := range a.Data {
		out.Data[i] = f(x)
	}
	return out
}

func zip(a, b *Mat, f func(x, y float64) float64) (*Mat, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("shapes %d×%d and %d×%d differ", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := NewMat(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = f(a.Data[i], b.Data[i])
	}
	return out, nil
}

// matMul is the textbook product, i-k-j so the inner loop walks rows of
// b and c; output rows are split over the processors because each row
// is independent and summed in the same ascending-k order either way.
func matMul(a, b *Mat) (*Mat, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("inner dimensions %d and %d differ", a.Cols, b.Rows)
	}
	c := NewMat(a.Rows, b.Cols)
	workers := runtime.GOMAXPROCS(0)
	if workers > a.Rows {
		workers = a.Rows
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*a.Rows/workers, (w+1)*a.Rows/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				ci := c.Data[i*c.Cols : (i+1)*c.Cols]
				for k := 0; k < a.Cols; k++ {
					aik := a.Data[i*a.Cols+k]
					bk := b.Data[k*b.Cols : (k+1)*b.Cols]
					for j, bkj := range bk {
						ci[j] += aik * bkj
					}
				}
			}
		}()
	}
	wg.Wait()
	return c, nil
}

// softmax is row-wise, shifted by the row maximum so exp cannot overflow.
func softmax(a *Mat) *Mat {
	out := NewMat(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		max := math.Inf(-1)
		for _, x := range row {
			max = math.Max(max, x)
		}
		var sum float64
		for j, x := range row {
			e := math.Exp(x - max)
			out.Data[i*a.Cols+j] = e
			sum += e
		}
		for j := range row {
			out.Data[i*a.Cols+j] /= sum
		}
	}
	return out
}

// inverse is Gauss–Jordan elimination with partial pivoting on [a | I].
func inverse(a *Mat) (*Mat, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("cannot invert a %d×%d matrix", a.Rows, a.Cols)
	}
	n := a.Rows
	w := 2 * n
	aug := make([]float64, n*w)
	for i := 0; i < n; i++ {
		copy(aug[i*w:], a.Data[i*n:(i+1)*n])
		aug[i*w+n+i] = 1
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(aug[r*w+col]) > math.Abs(aug[piv*w+col]) {
				piv = r
			}
		}
		if aug[piv*w+col] == 0 {
			return nil, fmt.Errorf("matrix is singular at column %d", col)
		}
		if piv != col {
			for j := 0; j < w; j++ {
				aug[col*w+j], aug[piv*w+j] = aug[piv*w+j], aug[col*w+j]
			}
		}
		d := aug[col*w+col]
		for j := 0; j < w; j++ {
			aug[col*w+j] /= d
		}
		for r := 0; r < n; r++ {
			f := aug[r*w+col]
			if r == col || f == 0 {
				continue
			}
			for j := 0; j < w; j++ {
				aug[r*w+j] -= f * aug[col*w+j]
			}
		}
	}
	inv := NewMat(n, n)
	for i := 0; i < n; i++ {
		copy(inv.Data[i*n:(i+1)*n], aug[i*w+n:(i+1)*w])
	}
	return inv, nil
}

// RelErr returns the largest entrywise |got−want| as a share of the
// largest |want| (of 1 when want is all zero) — the "max-abs error,
// relative" an engine output must keep below 1e-7. A shape mismatch or
// a NaN on either side returns +Inf.
func RelErr(got, want *Mat) float64 {
	if got == nil || want == nil || got.Rows != want.Rows || got.Cols != want.Cols {
		return math.Inf(1)
	}
	var diff, scale float64
	for i, w := range want.Data {
		d := math.Abs(got.Data[i] - w)
		if math.IsNaN(d) {
			return math.Inf(1)
		}
		diff = math.Max(diff, d)
		scale = math.Max(scale, math.Abs(w))
	}
	if scale == 0 {
		scale = 1
	}
	return diff / scale
}
