package benchkit

import (
	"sync"
	"time"
)

// sink keeps the probes' results live so the compiler cannot drop the
// loops that produced them.
var sink float64

// PeakGFLOPS measures what plain Go arithmetic can reach on this
// machine: threads goroutines each run a register-resident loop of
// eight independent multiply-add chains for about d, and the result is
// total floating-point operations (two per multiply-add) per nanosecond.
// It is the denominator of the GEMM roofline fraction, measured in the
// same run as the numerator; it is a scalar-Go peak, not the SIMD peak
// of the silicon.
func PeakGFLOPS(threads int, d time.Duration) float64 {
	const batch = 1 << 16 // multiply-adds per chain between clock reads
	var wg sync.WaitGroup
	flops := make([]float64, threads)
	secs := make([]float64, threads)
	keep := make([]float64, threads)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a0, a1, a2, a3, a4, a5, a6, a7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
			m, c := 0.999999, 1e-6
			start := time.Now()
			var n float64
			for time.Since(start) < d {
				for i := 0; i < batch; i++ {
					a0 = a0*m + c
					a1 = a1*m + c
					a2 = a2*m + c
					a3 = a3*m + c
					a4 = a4*m + c
					a5 = a5*m + c
					a6 = a6*m + c
					a7 = a7*m + c
				}
				n += 8 * 2 * batch
			}
			secs[t] = time.Since(start).Seconds()
			flops[t] = n
			keep[t] = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
		}()
	}
	wg.Wait()
	var total float64
	for t := range flops {
		total += flops[t] / secs[t]
		sink += keep[t]
	}
	return total / 1e9
}

// TriadGBs measures sustainable memory bandwidth with the STREAM triad
// a[i] = b[i] + s·c[i] over three arrays of n float64 each, split over
// threads goroutines, repeated for about d; it returns the best pass in
// GB/s (24 bytes moved per element). Choose n so the arrays exceed the
// caches that would otherwise serve them, and state both sizes.
func TriadGBs(n, threads int, d time.Duration) float64 {
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i), float64(n-i)
	}
	var best float64
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < d; pass++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			lo, hi := t*n/threads, (t+1)*n/threads
			wg.Add(1)
			go func() {
				defer wg.Done()
				as, bs, cs := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range as {
					as[i] = bs[i] + 3*cs[i]
				}
			}()
		}
		wg.Wait()
		if gbs := 24 * float64(n) / time.Since(t0).Seconds() / 1e9; gbs > best {
			best = gbs
		}
	}
	sink += a[n/2]
	return best
}

// Ref is the reference kernel the benchmark reads the host's speed with:
// a fixed amount of plain-loop work whose duration, on a shared host,
// rises and falls with the phases every cache-resident, throughput-bound
// loop of the program goes through. It is the oracle's kind of code —
// none of the program's kernels — so a change to the program cannot
// change it.
type Ref struct {
	mats [][3][]float64 // per thread: a, b and the product
}

const (
	refN    = 64  // the matrices are refN×refN: 96 KB a thread, L2-resident
	refReps = 200 // products per reading, about 25 ms on the reference box
)

// NewRef returns a reference kernel that runs on threads goroutines at
// once, one per processor the workload keeps busy.
func NewRef(threads int) *Ref {
	r := &Ref{mats: make([][3][]float64, threads)}
	for t := range r.mats {
		for m := range r.mats[t] {
			r.mats[t][m] = make([]float64, refN*refN)
		}
		for i := 0; i < refN*refN; i++ {
			r.mats[t][0][i], r.mats[t][1][i] = float64(i%7)/8, float64(i%5)/8
		}
	}
	return r
}

// Seconds runs the kernel once — every thread multiplies its two
// matrices refReps times with the plain i-k-j loop — and returns how long
// the slowest thread took.
func (r *Ref) Seconds() float64 {
	var wg sync.WaitGroup
	start := time.Now()
	for t := range r.mats {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refProducts(r.mats[t][0], r.mats[t][1], r.mats[t][2])
		}()
	}
	wg.Wait()
	d := time.Since(start).Seconds()
	sink += r.mats[0][2][refN+1]
	return d
}

// refProducts sets c = a·b, refReps times over.
func refProducts(a, b, c []float64) {
	for rep := 0; rep < refReps; rep++ {
		for i := range c {
			c[i] = 0
		}
		for i := 0; i < refN; i++ {
			ci := c[i*refN : (i+1)*refN]
			for k := 0; k < refN; k++ {
				aik, bk := a[i*refN+k], b[k*refN:(k+1)*refN]
				for j := range ci {
					ci[j] += aik * bk[j]
				}
			}
		}
	}
}
