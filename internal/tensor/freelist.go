package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

// classBits splits every power-of-two octave of lengths into 1<<classBits
// capacity classes, so a drawn array is at most 1/(1<<classBits) longer
// than asked for.
const classBits = 2

// classOf returns the free-list slot and the capacity of the smallest
// class that holds n > 0 elements: n rounded up to a multiple of
// 2^shift, where shift leaves 1<<classBits multiples in n's octave.
// Lengths up to 2<<classBits are classes of their own. A slot is fixed
// by (shift, capacity>>shift), so there are at most 64<<(classBits+1)
// of them, whatever lengths are ever drawn.
func classOf(n int) (slot, capacity int) {
	shift := max(bits.Len(uint(n-1))-1-classBits, 0)
	capacity = ((n-1)>>shift + 1) << shift
	return shift<<(classBits+1) | (capacity>>shift - 1), capacity
}

// freeList keeps released arrays of element type T by capacity class.
// Each class is a sync.Pool holding a pointer to an array's first
// element (pointer-shaped, so a release allocates nothing); a pool hands
// idle arrays back to the garbage collector, so the list needs no byte
// budget, and the number of pools is bounded by the number of classes.
type freeList[T any] struct {
	pools [64 << (classBits + 1)]sync.Pool
	live  atomic.Int64 // arrays drawn and not yet released
	// poison, when set (only under the matopt_poison build tag),
	// overwrites every array drawn and every array released, so that a
	// read of an element no kernel wrote, or of released storage, shows.
	poison func([]T)
}

var (
	floats  freeList[float64]
	indices freeList[int]
)

// draw returns an array of n elements in an array of n's class
// capacity — a released one when the class holds one, a fresh one
// otherwise — and whether it is dirty: a fresh array is already zero, a
// recycled (or poisoned) one holds whatever was last written to it.
func (f *freeList[T]) draw(n int) (d []T, dirty bool) {
	if n <= 0 {
		return nil, false
	}
	slot, capacity := classOf(n)
	if p, _ := f.pools[slot].Get().(*T); p != nil {
		d, dirty = unsafe.Slice(p, capacity)[:n], true
	} else {
		d = make([]T, n, capacity)
	}
	f.live.Add(1)
	if f.poison != nil {
		f.poison(d)
		dirty = true
	}
	return d, dirty
}

// release puts d's whole array back on the free list when d is what a
// draw of len(d) elements returns: an array whose capacity is the
// capacity of len(d)'s class. Anything else — a subslice of a larger
// array, a fresh array of another capacity — is left to the collector.
func (f *freeList[T]) release(d []T) {
	if len(d) == 0 {
		return
	}
	slot, capacity := classOf(len(d))
	if cap(d) != capacity {
		return
	}
	d = d[:capacity]
	if f.poison != nil {
		f.poison(d)
	}
	f.live.Add(-1)
	f.pools[slot].Put(&d[0])
}

// Outstanding is the number of arrays, float and index, drawn from the
// free list and not yet released to it: a run that returns everything it
// draws leaves it where it found it, less the outputs it hands back.
func Outstanding() int64 { return floats.live.Load() + indices.live.Load() }

// draw returns an array of n float64s from the free list (see
// freeList.draw).
func draw(n int) ([]float64, bool) { return floats.draw(n) }

// Draw returns an r×c matrix whose elements are unspecified: storage
// from the free list when it holds an array of r·c's class, a fresh
// array otherwise. The caller writes every element before any is read.
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
// release it twice: the next draw of the same class may hand it out.
func Release(m *Dense) {
	ReleaseFloats(m.Data)
	m.Data = nil
}

// DrawFloats returns n float64s, unspecified, from the free list: the
// value array of a sparse matrix. The caller writes every element.
func DrawFloats(n int) []float64 {
	d, _ := floats.draw(n)
	return d
}

// ReleaseFloats returns a float array the free list handed out — by
// DrawFloats, or as a matrix's or a kernel's scratch storage; the caller
// holds the only reference to it.
func ReleaseFloats(d []float64) { floats.release(d) }

// DrawInts returns n ints, unspecified, from the index free list: the
// row pointers or column indices of a sparse matrix. The caller writes
// every element.
func DrawInts(n int) []int {
	d, _ := indices.draw(n)
	return d
}

// ReleaseInts returns an array DrawInts handed out; the caller holds the
// only reference to it.
func ReleaseInts(d []int) { indices.release(d) }
