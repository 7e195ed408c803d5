package dist

import (
	"testing"
	"time"
)

// TestJitterFracDeterministic: the jitter a (seed, vertex, attempt)
// draws is a pure function in [0, 1) — chaos runs replay the same
// backoffs under the same fault seed regardless of scheduling order.
func TestJitterFracDeterministic(t *testing.T) {
	seen := make(map[float64]int)
	for seed := int64(0); seed < 4; seed++ {
		for vertex := 0; vertex < 8; vertex++ {
			for attempt := 0; attempt < 4; attempt++ {
				f := jitterFrac(seed, vertex, attempt)
				if f < 0 || f >= 1 {
					t.Fatalf("jitterFrac(%d, %d, %d) = %v, want [0, 1)", seed, vertex, attempt, f)
				}
				if f != jitterFrac(seed, vertex, attempt) {
					t.Fatalf("jitterFrac(%d, %d, %d) is not deterministic", seed, vertex, attempt)
				}
				seen[f]++
			}
		}
	}
	// 128 draws over distinct inputs: a healthy mixer produces no
	// collisions in a 53-bit space.
	for f, n := range seen {
		if n > 1 {
			t.Fatalf("jitter fraction %v drawn %d times across distinct (seed, vertex, attempt)", f, n)
		}
	}
}

// TestBackoffDelayBounds: each attempt's delay doubles from the base,
// caps at the configured ceiling, and equal jitter keeps every wait in
// [d/2, d) of the nominal delay d.
func TestBackoffDelayBounds(t *testing.T) {
	rt := &Config{BackoffBase: time.Millisecond, BackoffCap: 8 * time.Millisecond, FaultPlan: &FaultPlan{seed: 42}}
	for attempt := 0; attempt < 8; attempt++ {
		nominal := time.Millisecond << uint(attempt)
		if nominal > rt.BackoffCap {
			nominal = rt.BackoffCap
		}
		for vertex := 0; vertex < 16; vertex++ {
			d := rt.backoffDelay(vertex, attempt)
			if d < nominal/2 || d >= nominal {
				t.Fatalf("backoffDelay(v%d, attempt %d) = %v, want [%v, %v)", vertex, attempt, d, nominal/2, nominal)
			}
		}
	}
}

// TestBackoffDelaySeedSensitive: different retry seeds decorrelate the
// jitter while the same seed reproduces it exactly.
func TestBackoffDelaySeedSensitive(t *testing.T) {
	a := &Config{BackoffBase: time.Second, BackoffCap: time.Second, FaultPlan: &FaultPlan{seed: 1}}
	b := &Config{BackoffBase: time.Second, BackoffCap: time.Second, FaultPlan: &FaultPlan{seed: 2}}
	c := &Config{BackoffBase: time.Second, BackoffCap: time.Second, FaultPlan: &FaultPlan{seed: 1}}
	var differs bool
	for vertex := 0; vertex < 8; vertex++ {
		if a.backoffDelay(vertex, 0) != c.backoffDelay(vertex, 0) {
			t.Fatalf("same seed drew different backoffs for vertex %d", vertex)
		}
		if a.backoffDelay(vertex, 0) != b.backoffDelay(vertex, 0) {
			differs = true
		}
	}
	if !differs {
		t.Fatal("seeds 1 and 2 drew identical backoffs for every vertex")
	}
}

// TestBackoffDelayZeroCap: a zero cap disables the wait entirely rather
// than sleeping a garbage duration.
func TestBackoffDelayZeroCap(t *testing.T) {
	rt := &Config{FaultPlan: &FaultPlan{seed: 3}}
	if d := rt.backoffDelay(0, 0); d != 0 {
		t.Fatalf("backoffDelay with zero base and cap = %v, want 0", d)
	}
}
