package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"matopt/internal/obs"
	"matopt/internal/testutil"
)

// testConfig returns a config with a private registry so counter
// assertions never see another test's traffic.
func testConfig(workers, queue int) Config {
	return Config{
		Workers:  workers,
		MaxQueue: queue,
		Registry: obs.NewRegistry(),
	}
}

func rejected(s *Server, reason string) int64 {
	return s.reg.Counter("serve.rejected", obs.L("reason", reason)).Value()
}

// blockingJob submits a job that parks until release is closed,
// reporting on started once a worker picks it up.
func blockingJob(s *Server, started, release chan struct{}, result chan error) {
	_, err := s.submit(context.Background(), time.Minute, func(ctx context.Context) (any, error) {
		close(started)
		select {
		case <-release:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	result <- err
}

func TestSubmitRunsJobs(t *testing.T) {
	testutil.CheckGoroutines(t, func() {
		s := New(testConfig(2, 4))
		defer s.Drain(context.Background())
		got, err := s.submit(context.Background(), 0, func(ctx context.Context) (any, error) {
			return 41 + 1, nil
		})
		if err != nil || got != 42 {
			t.Fatalf("submit = %v, %v; want 42, nil", got, err)
		}
		wantErr := errors.New("boom")
		if _, err := s.submit(context.Background(), 0, func(ctx context.Context) (any, error) {
			return nil, wantErr
		}); !errors.Is(err, wantErr) {
			t.Fatalf("submit error = %v, want %v", err, wantErr)
		}
	})
}

// TestOverloadRejectsImmediately pins the load-shedding contract: with
// the single worker busy and the queue full, a new request is rejected
// with ErrOverloaded without waiting.
func TestOverloadRejectsImmediately(t *testing.T) {
	testutil.CheckGoroutines(t, func() {
		s := New(testConfig(1, 1))
		defer s.Drain(context.Background())

		started, release := make(chan struct{}), make(chan struct{})
		results := make(chan error, 2)
		go blockingJob(s, started, release, results)
		<-started // the worker is now busy

		// Fill the one queue slot.
		queued := make(chan error, 1)
		go func() {
			_, err := s.submit(context.Background(), time.Minute, func(ctx context.Context) (any, error) {
				return nil, nil
			})
			queued <- err
		}()
		waitFor(t, func() bool { return s.waiting.Load() == 1 })

		begin := time.Now()
		_, err := s.submit(context.Background(), time.Minute, func(ctx context.Context) (any, error) {
			return nil, nil
		})
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("full-queue submit error = %v, want ErrOverloaded", err)
		}
		if d := time.Since(begin); d > time.Second {
			t.Fatalf("overload rejection took %v, want immediate", d)
		}
		if n := rejected(s, "overloaded"); n != 1 {
			t.Fatalf("serve.rejected{reason=overloaded} = %d, want 1", n)
		}

		close(release)
		if err := <-queued; err != nil {
			t.Fatalf("queued job failed: %v", err)
		}
		if err := <-results; err != nil {
			t.Fatalf("blocking job failed: %v", err)
		}
	})
}

// TestFullHouseAdmitsOldestWaiter pins both bounds at once: with
// Workers requests running and MaxQueue waiting the next arrival is
// shed, and a freed slot goes to the waiter that has waited longest.
func TestFullHouseAdmitsOldestWaiter(t *testing.T) {
	testutil.CheckGoroutines(t, func() {
		const workers, queue = 2, 2
		s := New(testConfig(workers, queue))
		defer s.Drain(context.Background())

		var releases [workers]chan struct{}
		results := make(chan error, workers)
		for i := range releases {
			started := make(chan struct{})
			releases[i] = make(chan struct{})
			go blockingJob(s, started, releases[i], results)
			<-started
		}
		admitted := make(chan int, queue)
		finish := make(chan struct{})
		for i := 0; i < queue; i++ {
			go func() {
				s.submit(context.Background(), time.Minute, func(ctx context.Context) (any, error) {
					admitted <- i
					<-finish
					return nil, nil
				})
			}()
			waitFor(t, func() bool { return s.waiting.Load() == int64(i+1) })
			time.Sleep(5 * time.Millisecond) // counted, then parked: let waiter i block before i+1 arrives
		}

		if _, err := s.submit(context.Background(), time.Minute, func(ctx context.Context) (any, error) {
			return nil, nil
		}); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("submit at %d running + %d waiting = %v, want ErrOverloaded", workers, queue, err)
		}

		close(releases[0])
		if got := <-admitted; got != 0 {
			t.Fatalf("freed slot admitted waiter %d, want the oldest (0)", got)
		}
		waitFor(t, func() bool { return s.waiting.Load() == queue-1 })
		select {
		case got := <-admitted:
			t.Fatalf("one freed slot also admitted waiter %d", got)
		default:
		}

		close(releases[1])
		close(finish)
		for range releases {
			if err := <-results; err != nil {
				t.Fatalf("blocking job failed: %v", err)
			}
		}
	})
}

// TestQueueTimeout pins the second admission bound: a request may sit
// in the queue only QueueTimeout before it is bounced with
// ErrQueueTimeout.
func TestQueueTimeout(t *testing.T) {
	testutil.CheckGoroutines(t, func() {
		cfg := testConfig(1, 4)
		cfg.QueueTimeout = 30 * time.Millisecond
		s := New(cfg)
		defer s.Drain(context.Background())

		started, release := make(chan struct{}), make(chan struct{})
		results := make(chan error, 1)
		go blockingJob(s, started, release, results)
		<-started

		_, err := s.submit(context.Background(), time.Minute, func(ctx context.Context) (any, error) {
			return nil, nil
		})
		if !errors.Is(err, ErrQueueTimeout) {
			t.Fatalf("queued submit error = %v, want ErrQueueTimeout", err)
		}
		if n := rejected(s, "queue_timeout"); n != 1 {
			t.Fatalf("serve.rejected{reason=queue_timeout} = %d, want 1", n)
		}

		close(release)
		if err := <-results; err != nil {
			t.Fatalf("blocking job failed: %v", err)
		}
	})
}

// TestRequestDeadline covers both deadline paths: a request that
// expires while queued is aborted before any worker touches it, and one
// that expires mid-execution has its context cancelled.
func TestRequestDeadline(t *testing.T) {
	testutil.CheckGoroutines(t, func() {
		cfg := testConfig(1, 4)
		cfg.QueueTimeout = time.Minute // only the deadline may fire
		s := New(cfg)
		defer s.Drain(context.Background())

		// Expire mid-execution: the job's context is cancelled.
		_, err := s.submit(context.Background(), 30*time.Millisecond, func(ctx context.Context) (any, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("running-job deadline error = %v, want DeadlineExceeded", err)
		}

		// Expire while queued: park the worker, then submit with a
		// deadline shorter than the park.
		started, release := make(chan struct{}), make(chan struct{})
		results := make(chan error, 1)
		go blockingJob(s, started, release, results)
		<-started
		_, err = s.submit(context.Background(), 30*time.Millisecond, func(ctx context.Context) (any, error) {
			return nil, nil
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("queued-job deadline error = %v, want DeadlineExceeded", err)
		}
		if n := rejected(s, "deadline"); n != 1 {
			t.Fatalf("serve.rejected{reason=deadline} = %d, want 1", n)
		}

		close(release)
		if err := <-results; err != nil {
			t.Fatalf("blocking job failed: %v", err)
		}
	})
}

// TestDrainCompletesInflight pins the drain contract: after Drain
// begins, new requests are rejected with ErrDraining while every
// already-admitted request — executing or queued — still returns its
// result.
func TestDrainCompletesInflight(t *testing.T) {
	testutil.CheckGoroutines(t, func() {
		s := New(testConfig(2, 8))

		const executing, queuedN = 2, 3
		release := make(chan struct{})
		var startedWG sync.WaitGroup
		results := make(chan any, executing+queuedN)
		runOne := func(i int) {
			v, err := s.submit(context.Background(), time.Minute, func(ctx context.Context) (any, error) {
				<-release
				return i, nil
			})
			if err != nil {
				results <- err
				return
			}
			results <- v
		}
		// Two jobs occupy the workers...
		startedWG.Add(executing)
		for i := 0; i < executing; i++ {
			go func(i int) { startedWG.Done(); runOne(i) }(i)
		}
		startedWG.Wait()
		waitFor(t, func() bool { return s.reg.Gauge("serve.inflight").Value() >= executing })
		// ...and three more wait in the queue.
		for i := executing; i < executing+queuedN; i++ {
			go runOne(i)
		}
		waitFor(t, func() bool { return s.waiting.Load() == queuedN })

		drained := make(chan error, 1)
		go func() { drained <- s.Drain(context.Background()) }()
		waitFor(t, s.Draining)

		if _, err := s.submit(context.Background(), time.Minute, func(ctx context.Context) (any, error) {
			return nil, nil
		}); !errors.Is(err, ErrDraining) {
			t.Fatalf("post-drain submit error = %v, want ErrDraining", err)
		}
		if n := rejected(s, "draining"); n != 1 {
			t.Fatalf("serve.rejected{reason=draining} = %d, want 1", n)
		}

		close(release)
		if err := <-drained; err != nil {
			t.Fatalf("Drain = %v, want nil", err)
		}
		seen := map[int]bool{}
		for i := 0; i < executing+queuedN; i++ {
			switch v := (<-results).(type) {
			case int:
				seen[v] = true
			default:
				t.Fatalf("in-flight request lost its result: %v", v)
			}
		}
		if len(seen) != executing+queuedN {
			t.Fatalf("got %d distinct results, want %d", len(seen), executing+queuedN)
		}
	})
}

// TestDrainDeadlineCancelsStragglers: when the drain context expires
// first, in-flight requests are cancelled (they get context errors, not
// silence) and Drain reports the deadline.
func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	testutil.CheckGoroutines(t, func() {
		cfg := testConfig(1, 2)
		cfg.DrainTimeout = 40 * time.Millisecond
		s := New(cfg)

		started := make(chan struct{})
		errs := make(chan error, 1)
		go func() {
			_, err := s.submit(context.Background(), time.Minute, func(ctx context.Context) (any, error) {
				close(started)
				<-ctx.Done() // never finishes voluntarily
				return nil, ctx.Err()
			})
			errs <- err
		}()
		<-started

		if err := s.Drain(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Drain = %v, want DeadlineExceeded", err)
		}
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("straggler error = %v, want Canceled", err)
		}
		// Idempotent: a second Drain returns the same verdict instantly.
		if err := s.Drain(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("second Drain = %v, want the recorded DeadlineExceeded", err)
		}
	})
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
