package tensor

import "sync"

// minPooled is the shortest array the free list keeps, in elements: 32 KiB
// of float64. Shorter arrays cost the allocator less than the pool would.
const minPooled = 32 << 10 / 8

// freeLists maps an array length to the *sync.Pool of released arrays of
// exactly that length. A length's pool is created on its first release,
// and a sync.Pool hands idle arrays back to the garbage collector, so the
// list needs no byte budget.
var freeLists sync.Map

// poison, when set (only under the matopt_poison build tag), overwrites
// every array drawn and every array released, so that a read of an
// element no kernel wrote or cleared, or of released storage, shows up
// as NaN in every golden.
var poison func([]float64)

// draw returns an array of n elements — a released array of exactly that
// length when the free list holds one, a fresh one otherwise — and
// whether it is dirty: a fresh array is already zero, a recycled (or
// poisoned) one holds whatever was last written to it.
func draw(n int) (d []float64, dirty bool) {
	if n >= minPooled {
		if p, ok := freeLists.Load(n); ok {
			if v, _ := p.(*sync.Pool).Get().(*[]float64); v != nil {
				d, dirty = *v, true
			}
		}
	}
	if d == nil {
		d = make([]float64, n)
	}
	if poison != nil {
		poison(d)
		dirty = true
	}
	return d, dirty
}

// release puts d on the free list. Only a whole array of at least
// minPooled elements is kept: a subslice of a larger one (cap ≠ len)
// never is.
func release(d []float64) {
	if poison != nil {
		poison(d)
	}
	if len(d) < minPooled || cap(d) != len(d) {
		return
	}
	p, ok := freeLists.Load(len(d))
	if !ok {
		p, _ = freeLists.LoadOrStore(len(d), new(sync.Pool))
	}
	p.(*sync.Pool).Put(&d)
}

// Draw returns an r×c matrix whose elements are unspecified: storage
// from the free list when it holds an array of exactly r·c elements, a
// fresh array otherwise. The caller writes every element before any is
// read.
func Draw(r, c int) *Dense {
	checkDims(r, c)
	d, _ := draw(r * c)
	return &Dense{Rows: r, Cols: c, Data: d}
}

// DrawAccumulator is Draw for a kernel that adds into the matrix: with
// dirty, the kernel clears each of its rows right before it first adds
// into them; without, the array is fresh and already zero.
func DrawAccumulator(r, c int) (m *Dense, dirty bool) {
	checkDims(r, c)
	d, dirty := draw(r * c)
	return &Dense{Rows: r, Cols: c, Data: d}, dirty
}

// Release returns m's storage to the free list and sets m.Data to nil,
// so that a later use of m panics instead of reading reused bytes. The
// caller must hold the only reference to the storage and must not
// release it twice: the next Draw of the same length may hand it out.
func Release(m *Dense) {
	release(m.Data)
	m.Data = nil
}
