package matopt

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"matopt/internal/obs"
	"matopt/internal/plan"
)

// TestOptimizeCoalescesConcurrentMisses is the thundering-herd
// regression: N concurrent Optimize calls for the same computation that
// all miss the cold cache must run exactly one Frontier search — one
// leader, N−1 waiters sharing its plan through the cache's singleflight
// boundary.
func TestOptimizeCoalescesConcurrentMisses(t *testing.T) {
	const n = 16
	o := NewOptimizer(ClusterR5D(5))
	missesBefore := obs.Default().Counter("matopt.plancache.misses").Value()

	start := make(chan struct{})
	plans := make([]*Plan, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			plans[i], errs[i] = o.OptimizeCtx(context.Background(), motivatingBuilder(1))
		}(i)
	}
	close(start)
	wg.Wait()

	var leaders, followers int
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !plans[i].Cached() && !plans[i].Coalesced() {
			leaders++
		} else {
			followers++
		}
		if plans[i].Describe() != plans[0].Describe() {
			t.Fatalf("request %d produced a different plan", i)
		}
	}
	if leaders != 1 {
		t.Fatalf("%d requests ran a search, want exactly 1 (%d coalesced/cached)", leaders, followers)
	}
	if d := obs.Default().Counter("matopt.plancache.misses").Value() - missesBefore; d != 1 {
		t.Fatalf("plan cache recorded %d misses for %d concurrent identical requests, want 1", d, n)
	}

	// Every request — leader, waiter, or late cache hit — must share the
	// one lowered physical plan.
	pp0, err := plans[0].Physical()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		if pp, _ := plans[i].Physical(); pp != pp0 {
			t.Fatalf("request %d lowered its own physical plan instead of sharing the leader's", i)
		}
	}
}

// TestFlightGroupSharesLeaderError: a leader failing with a
// non-context error releases its waiters with that same error.
func TestFlightGroupSharesLeaderError(t *testing.T) {
	g := newFlightGroup()
	started := make(chan struct{})
	gate := make(chan struct{})
	sentinel := errors.New("search blew up")

	var waitErr error
	var leaderRole bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, err := g.do(context.Background(), "k", func() (*plan.Plan, error) {
			close(started)
			<-gate
			return nil, sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("leader error = %v, want sentinel", err)
		}
	}()
	go func() {
		defer wg.Done()
		<-started
		_, leaderRole, waitErr = g.do(context.Background(), "k", func() (*plan.Plan, error) {
			t.Error("waiter ran the search despite an in-flight leader")
			return nil, nil
		})
	}()
	<-started
	time.Sleep(10 * time.Millisecond) // let the waiter park on the call
	close(gate)
	wg.Wait()
	if leaderRole {
		t.Fatal("second caller reported itself leader")
	}
	if !errors.Is(waitErr, sentinel) {
		t.Fatalf("waiter error = %v, want the leader's error", waitErr)
	}
}

// TestFlightGroupAbandonedLeader: a waiter whose own context is live
// must not inherit a leader's cancellation — it retries and runs the
// search itself.
func TestFlightGroupAbandonedLeader(t *testing.T) {
	g := newFlightGroup()
	started := make(chan struct{})
	gate := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := g.do(context.Background(), "k", func() (*plan.Plan, error) {
			close(started)
			<-gate
			return nil, context.Canceled
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader error = %v, want context.Canceled", err)
		}
	}()
	<-started

	done := make(chan struct{})
	var retried bool
	var leaderRole bool
	var err error
	go func() {
		defer close(done)
		_, leaderRole, err = g.do(context.Background(), "k", func() (*plan.Plan, error) {
			retried = true
			return nil, nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // park the waiter on the doomed leader
	close(gate)
	<-done
	wg.Wait()
	if err != nil {
		t.Fatalf("retrying waiter returned %v", err)
	}
	if !retried || !leaderRole {
		t.Fatalf("waiter did not take over after the leader was abandoned (retried=%v leader=%v)", retried, leaderRole)
	}
}

// TestFlightGroupWaiterCancellation: a waiter whose own deadline
// expires while parked reports ErrTimeout without waiting the leader
// out.
func TestFlightGroupWaiterCancellation(t *testing.T) {
	g := newFlightGroup()
	started := make(chan struct{})
	gate := make(chan struct{})
	defer close(gate)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g.do(context.Background(), "k", func() (*plan.Plan, error) {
			close(started)
			<-gate
			return nil, nil
		})
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, _, err := g.do(ctx, "k", func() (*plan.Plan, error) {
		t.Error("expired waiter ran the search")
		return nil, nil
	})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("expired waiter returned %v, want ErrTimeout", err)
	}
}
