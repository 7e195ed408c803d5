package tensor

import (
	"runtime"
	"sync"
	"testing"
)

// sameArray reports whether a and b begin at the same element.
func sameArray(a, b []float64) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// TestFreeList pins what the free list keeps and hands back: a whole
// array of at least 32 KiB, to a draw of exactly its length, and nothing
// else. A sync.Pool may drop what it is given (the race detector drops a
// quarter of all puts on purpose), so "is handed back" is asserted as
// "is handed back within a few tries"; "is never handed back" is exact.
func TestFreeList(t *testing.T) {
	const n = 3*minPooled + 5 // a length no other test draws
	for _, c := range []struct {
		name     string
		released func() []float64  // the array to release; its first element identifies it
		put      func(d []float64) // how it is released
		draw     int
		reused   bool
	}{
		{"same length", func() []float64 { return make([]float64, n) }, release, n, true},
		{"another length", func() []float64 { return make([]float64, n) }, release, n + 1, false},
		{"under 32 KiB", func() []float64 { return make([]float64, minPooled-1) }, release, minPooled - 1, false},
		{"cap ≠ len", func() []float64 { return make([]float64, n, n+8) }, release, n, false},
		{"head of a larger array", func() []float64 { return make([]float64, 2*n)[:n] }, release, n, false},
		{"middle of a larger array", func() []float64 { return make([]float64, 2*n)[1 : n+1] }, release, n, false},
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
	for _, cols := range []int{1, minPooled, 2 * minPooled} {
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
	const n = 5*minPooled + 1
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
	lengths := []int{minPooled, minPooled + 1, 2 * minPooled}
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
