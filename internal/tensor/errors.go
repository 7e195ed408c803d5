package tensor

import (
	"fmt"
	"strings"
)

// ShapeError reports a kernel invoked with incompatible operand shapes.
// Kernels panic with *ShapeError rather than returning it: a shape
// mismatch inside a kernel means the planner emitted an inconsistent
// physical plan (shapes are decided at optimize time and validated by
// plan.Validate), so by the time execution reaches a kernel it is a
// programming error, not an input error. The typed panic value lets the
// engines' recover paths and the table tests distinguish a real shape
// bug from an arbitrary panic string.
type ShapeError struct {
	Kernel string   // qualified kernel name, e.g. "tensor.MatMul" or "sparse.MulDense"
	Want   string   // the constraint that was violated
	Dims   []string // operand shapes as "rows×cols" strings, in argument order
}

// Error formats the kernel, the violated constraint and every operand
// shape, e.g. `tensor.MatMul: inner dimensions must agree (a.Cols ==
// b.Rows): a 3×5, b 6×4`.
func (e *ShapeError) Error() string {
	return fmt.Sprintf("%s: %s: %s", e.Kernel, e.Want, strings.Join(e.Dims, ", "))
}

// Dim formats one named operand shape for a ShapeError.
func Dim(name string, rows, cols int) string {
	return fmt.Sprintf("%s %d×%d", name, rows, cols)
}

// shapePanic builds and panics with a *ShapeError.
func shapePanic(kernel, want string, dims ...string) {
	panic(&ShapeError{Kernel: "tensor." + kernel, Want: want, Dims: dims})
}
