package tensor

import (
	"runtime"
	"sync"
	"testing"
)

// sameArray reports whether a and b begin at the same element.
func sameArray(a, b []float64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestFreeList pins what the free list keeps and hands back: an array
// whose capacity is its length's class capacity, short or long, to a
// draw of any length in that class, and nothing else. A sync.Pool may
// drop what it is given (the race detector drops a quarter of all puts
// on purpose), so "is handed back" is asserted as "is handed back within
// a few tries"; "is never handed back" is exact.
func TestFreeList(t *testing.T) {
	const n = 20480 // a class capacity no other test draws
	if _, c := classOf(n); c != n {
		t.Fatalf("%d is not a class capacity (%d)", n, c)
	}
	for _, c := range []struct {
		name     string
		released func() []float64  // the array to release; its first element identifies it
		put      func(d []float64) // how it is released
		draw     int
		reused   bool
	}{
		{"same length", func() []float64 { return make([]float64, n) }, ReleaseFloats, n, true},
		{"same class, another length", func() []float64 { return make([]float64, n) }, ReleaseFloats, n - 100, true},
		{"another length", func() []float64 { return make([]float64, n) }, ReleaseFloats, n + 1, false},
		{"a short array", func() []float64 { d, _ := draw(5); return d }, ReleaseFloats, 5, true},
		{"cap ≠ len", func() []float64 { return make([]float64, n, n+8) }, ReleaseFloats, n, false},
		{"head of a larger array", func() []float64 { return make([]float64, 2*n)[:n] }, ReleaseFloats, n, false},
		{"middle of a larger array", func() []float64 { return make([]float64, 2*n)[1 : n+1] }, ReleaseFloats, n, false},
		{"a Dense over a subslice", func() []float64 { return make([]float64, 2*n)[:n] },
			func(d []float64) { Release(&Dense{Rows: 1, Cols: n, Data: d}) }, n, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var d []float64
			got := false
			for try := 0; try < 20 && !got; try++ {
				d = c.released()
				c.put(d)
				got = sameArray(Draw(1, c.draw).Data, d)
			}
			if got != c.reused {
				t.Fatalf("draw of %d after releasing a len %d cap %d array: reused = %v, want %v",
					c.draw, len(d), cap(d), got, c.reused)
			}
		})
	}
}

func TestReleaseNilsData(t *testing.T) {
	for _, cols := range []int{1, 4096, 8192} {
		m := Draw(1, cols)
		Release(m)
		if m.Data != nil {
			t.Fatalf("Release of a 1×%d matrix left its Data", cols)
		}
	}
}

// TestDrawAccumulatorDirty checks the promise a kernel that accumulates
// relies on: a draw that is not dirty is all +0.
func TestDrawAccumulatorDirty(t *testing.T) {
	const n = 5*4096 + 1
	for try := 0; try < 4; try++ {
		m, dirty := DrawAccumulator(1, n)
		if !dirty {
			for i, v := range m.Data {
				if v != 0 {
					t.Fatalf("a clean draw holds %v at %d", v, i)
				}
			}
		}
		for i := range m.Data {
			m.Data[i] = 1
		}
		Release(m)
		if z := NewDense(1, n); z.Data[0] != 0 || z.Data[n-1] != 0 {
			t.Fatal("NewDense over recycled storage is not zero")
		}
	}
}

// TestFreeListConcurrent draws and releases from 8 goroutines at once:
// each writes its own mark over what it drew and checks the mark is
// still whole before releasing, so an array handed to two holders at
// the same time fails here, and under -race is reported as a race.
// `make race` runs it ten times.
func TestFreeListConcurrent(t *testing.T) {
	const goroutines, rounds = 8, 200
	lengths := []int{1, 4096, 4097, 8192}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(mark float64) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				m := Draw(1, lengths[r%len(lengths)])
				for i := range m.Data {
					m.Data[i] = mark
				}
				runtime.Gosched()
				for _, v := range m.Data {
					if v != mark {
						errs <- "an array was handed to two holders at once"
						return
					}
				}
				Release(m)
			}
		}(float64(g + 1))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestClassesBounded checks the capacity classes: every length gets the
// smallest class that holds it, at most a quarter longer than asked for
// past the first eight lengths, each class has one slot of its own, and
// drawing every length up to 2^16 and a spread of long ones touches
// fewer slots than the list has — a fixed number, whatever lengths a
// server is ever asked for.
func TestClassesBounded(t *testing.T) {
	slots := make(map[int]int) // slot → capacity
	check := func(n int) {
		slot, c := classOf(n)
		if c < n || (n > 8 && 4*(c-n) >= n) {
			t.Fatalf("length %d gets capacity %d", n, c)
		}
		if n > 1 {
			if _, prev := classOf(n - 1); prev != c && prev != n-1 {
				t.Fatalf("length %d gets capacity %d, but %d is a class below it", n, c, prev)
			}
		}
		if slot < 0 || slot >= len(floats.pools) {
			t.Fatalf("length %d maps to slot %d of %d", n, slot, len(floats.pools))
		}
		if was, ok := slots[slot]; ok && was != c {
			t.Fatalf("slot %d holds capacities %d and %d", slot, was, c)
		}
		slots[slot] = c
	}
	for n := 1; n <= 1<<16; n++ {
		check(n)
	}
	if len(slots) > 8+4*13 {
		t.Fatalf("lengths 1..2^16 use %d classes, want at most %d", len(slots), 8+4*13)
	}
	for n := 1 << 16; n < 1<<40; n = n*3/2 + 7 {
		check(n)
	}
	before := Outstanding()
	for n := 1; n <= 3000; n++ {
		m := Draw(1, n)
		m.Data[n-1] = 1
		Release(m)
	}
	if got := Outstanding(); got != before {
		t.Fatalf("drawing and releasing 3000 lengths moved Outstanding from %d to %d", before, got)
	}
}

// TestIndexFreeList checks the index list follows the float list's rule:
// a drawn array comes back to a draw of its class, a subslice never does,
// and Outstanding counts both lists.
func TestIndexFreeList(t *testing.T) {
	const n = 6144 // a class capacity
	before := Outstanding()
	got := false
	for try := 0; try < 20 && !got; try++ {
		d := DrawInts(n - 1)
		if Outstanding() != before+1 {
			t.Fatal("a drawn index array is not outstanding")
		}
		ReleaseInts(d)
		e := DrawInts(n)
		got = &e[0] == &d[0]
		ReleaseInts(e)
	}
	if !got {
		t.Fatal("a released index array is never handed back to its class")
	}
	if Outstanding() != before {
		t.Fatalf("Outstanding moved from %d to %d", before, Outstanding())
	}
	big := make([]int, 2*n)
	ReleaseInts(big[:n])
	for try := 0; try < 20; try++ {
		d := DrawInts(n)
		if &d[0] == &big[0] {
			t.Fatal("the head of a larger index array was handed out")
		}
		ReleaseInts(d)
	}
}
