package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// Batch formation: requests for the same key admitted within the linger
// window ride one micro-batch, and a batch reaching MaxBatch dispatches
// without waiting out the linger.
func TestSchedulerBatchFormation(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, MaxQueue: 64, MaxBatch: 4, Linger: 2 * time.Second})
	defer s.Close()

	var wg sync.WaitGroup
	sizes := make([]int, 4)
	start := time.Now()
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, info, err := s.Submit(context.Background(), nil, "net=Mini", func(context.Context, BatchInfo) (any, error) {
				return nil, nil
			})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
			sizes[i] = info.Size
		}()
	}
	wg.Wait()
	// MaxBatch dispatch must beat the 2s linger by a wide margin.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("full batch waited out the linger (%v)", elapsed)
	}
	for i, sz := range sizes {
		if sz != 4 {
			t.Fatalf("request %d rode a batch of %d, want 4 (sizes %v)", i, sz, sizes)
		}
	}
}

// A short-handed batch dispatches when its linger expires.
func TestSchedulerLingerFlush(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 64, MaxBatch: 100, Linger: 20 * time.Millisecond})
	defer s.Close()

	var wg sync.WaitGroup
	sizes := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, info, err := s.Submit(context.Background(), nil, "k", func(context.Context, BatchInfo) (any, error) {
				return nil, nil
			})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
			sizes[i] = info.Size
		}()
	}
	wg.Wait()
	if sizes[0] != 2 || sizes[1] != 2 {
		t.Fatalf("linger flush sizes %v, want [2 2]", sizes)
	}
}

// A batch never serialises its items: item 0 blocks until item 1 of the
// same batch has run, which only completes if the two overlap.
func TestSchedulerBatchItemsOverlap(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, MaxQueue: 8, MaxBatch: 2, Linger: 2 * time.Second})
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ran1 := make(chan struct{})
	errs := make(chan error, 2)
	submit := func(task Task) {
		_, info, err := s.Submit(ctx, nil, "k", task)
		if err == nil && info.Size != 2 {
			err = errors.New("the two requests did not share a batch")
		}
		errs <- err
	}
	go submit(func(ctx context.Context, _ BatchInfo) (any, error) {
		select {
		case <-ran1:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	waitFor(t, "item 0 admitted", func() bool { return s.Depth() == 1 })
	go submit(func(context.Context, BatchInfo) (any, error) {
		close(ran1)
		return nil, nil
	})
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("batch of two with item 0 waiting on item 1: %v", err)
		}
	}
}

// Requests under different keys never share a batch.
func TestSchedulerKeysDoNotMix(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, MaxQueue: 64, MaxBatch: 8, Linger: 10 * time.Millisecond})
	defer s.Close()

	var wg sync.WaitGroup
	var bad atomic.Int32
	for i := 0; i < 6; i++ {
		key := "a"
		if i%2 == 1 {
			key = "b"
		}
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			_, info, err := s.Submit(context.Background(), nil, key, func(context.Context, BatchInfo) (any, error) {
				return nil, nil
			})
			if err != nil || info.Size > 3 {
				bad.Add(1)
			}
		}(key)
	}
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatal("a batch mixed keys or a submit failed")
	}
}

// Admission control: submissions beyond MaxQueue fail fast with
// ErrQueueFull while earlier work is still queued or executing.
func TestSchedulerQueueFull(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 2, MaxBatch: 1, Linger: 0})
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 2)
	go func() {
		_, _, err := s.Submit(context.Background(), nil, "k", func(context.Context, BatchInfo) (any, error) {
			close(started)
			<-release
			return nil, nil
		})
		done <- err
	}()
	<-started // worker busy; depth 1
	go func() {
		_, _, err := s.Submit(context.Background(), nil, "k", func(context.Context, BatchInfo) (any, error) {
			return nil, nil
		})
		done <- err
	}()
	waitFor(t, "queue depth 2", func() bool { return s.Depth() == 2 })

	_, _, err := s.Submit(context.Background(), nil, "k", func(context.Context, BatchInfo) (any, error) {
		return nil, nil
	})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("admitted request %d failed: %v", i, err)
		}
	}
}

// A deadline expiring while queued returns the context error and the
// abandoned task never executes.
func TestSchedulerDeadlineWhileQueued(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 8, MaxBatch: 1, Linger: 0})
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	go s.Submit(context.Background(), nil, "k", func(context.Context, BatchInfo) (any, error) {
		close(started)
		<-release
		return nil, nil
	})
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	var ran atomic.Bool
	_, _, err := s.Submit(ctx, nil, "k", func(context.Context, BatchInfo) (any, error) {
		ran.Store(true)
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued-past-deadline submit: %v, want DeadlineExceeded", err)
	}
	close(release)
	waitFor(t, "abandoned slot reclaimed", func() bool { return s.Depth() == 0 })
	if ran.Load() {
		t.Fatal("abandoned request executed anyway")
	}
}

// Drain on shutdown: Close dispatches forming batches, finishes every
// admitted request, and rejects new work with ErrShuttingDown.
func TestSchedulerDrainOnShutdown(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 64, MaxBatch: 100, Linger: 10 * time.Second})

	const n = 3
	var wg sync.WaitGroup
	var completed atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := s.Submit(context.Background(), nil, "k", func(context.Context, BatchInfo) (any, error) {
				completed.Add(1)
				return nil, nil
			})
			if err != nil {
				t.Errorf("admitted request failed during drain: %v", err)
			}
		}()
	}
	waitFor(t, "3 admitted", func() bool { return s.Depth() == n })

	// Close must flush the forming batch immediately (not wait out the
	// 10s linger) and deliver all three.
	start := time.Now()
	s.Close()
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain waited out the linger (%v)", elapsed)
	}
	if completed.Load() != n {
		t.Fatalf("drain completed %d of %d admitted requests", completed.Load(), n)
	}

	_, _, err := s.Submit(context.Background(), nil, "k", func(context.Context, BatchInfo) (any, error) {
		return nil, nil
	})
	if !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-close submit: %v, want ErrShuttingDown", err)
	}
}

// counts reads the two admission counters under the scheduler lock.
func (s *Scheduler) counts() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued, s.running
}

// A request cancelled while still in its tenant sub-queue returns at once,
// is dropped by the dispatcher without ever being granted, and gives its
// slot back: the queue, full before, admits again.
func TestSchedulerCancelInSubQueue(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 2, MaxBatch: 1, Linger: 0})
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	blocker := make(chan error, 1)
	go func() {
		_, _, err := s.Submit(context.Background(), nil, "k", func(context.Context, BatchInfo) (any, error) {
			close(started)
			<-release
			return nil, nil
		})
		blocker <- err
	}()
	<-started // the one window slot is taken

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	victim := make(chan error, 1)
	go func() {
		_, _, err := s.Submit(ctx, nil, "k", func(context.Context, BatchInfo) (any, error) {
			ran.Store(true)
			return nil, nil
		})
		victim <- err
	}()
	waitFor(t, "victim parked in its sub-queue", func() bool {
		q, r := s.counts()
		return q == 1 && r == 1
	})
	cancel()
	if err := <-victim; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: %v, want context.Canceled", err)
	}

	close(release)
	if err := <-blocker; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	waitFor(t, "cancelled slot freed", func() bool { return s.Depth() == 0 })
	if ran.Load() {
		t.Fatal("request cancelled in its sub-queue executed anyway")
	}
	for i := 0; i < 2; i++ {
		if _, _, err := s.Submit(context.Background(), nil, "k", func(context.Context, BatchInfo) (any, error) {
			return nil, nil
		}); err != nil {
			t.Fatalf("submit %d after the cancelled slot was freed: %v", i, err)
		}
	}
}

// Close with requests in tenant sub-queues AND in lingering batches
// delivers every one of them without waiting out the linger.
func TestSchedulerCloseDrainsSubQueuesAndLingeringBatches(t *testing.T) {
	// Window = min(1*2, 64) = 2: two grants under different keys sit in
	// two half-full lingering batches, three more wait in sub-queues.
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 64, MaxBatch: 2, Linger: 10 * time.Second})
	tenants := NewTenantRegistry([]TenantConfig{{Key: "a"}, {Key: "b"}}, QuarantineConfig{}, nil).All()

	var wg sync.WaitGroup
	var completed atomic.Int32
	submit := func(ten *Tenant, key string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := s.Submit(context.Background(), ten, key, func(context.Context, BatchInfo) (any, error) {
				completed.Add(1)
				return nil, nil
			})
			if err != nil {
				t.Errorf("admitted request failed during drain: %v", err)
			}
		}()
	}
	submit(tenants[0], "k0")
	waitFor(t, "first grant lingering", func() bool { _, r := s.counts(); return r == 1 })
	submit(tenants[1], "k1")
	waitFor(t, "second grant lingering", func() bool { _, r := s.counts(); return r == 2 })
	submit(tenants[0], "k0")
	submit(tenants[1], "k1")
	submit(tenants[1], "k2")
	waitFor(t, "three parked in sub-queues", func() bool {
		q, r := s.counts()
		return q == 3 && r == 2
	})

	start := time.Now()
	s.Close()
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain waited out the linger (%v)", elapsed)
	}
	if completed.Load() != 5 {
		t.Fatalf("drain completed %d of 5 admitted requests", completed.Load())
	}
	if d := s.Depth(); d != 0 {
		t.Fatalf("depth %d after Close, want 0", d)
	}
	if _, _, err := s.Submit(context.Background(), nil, "k", func(context.Context, BatchInfo) (any, error) {
		return nil, nil
	}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-close submit: %v, want ErrShuttingDown", err)
	}
}

// MaxQueue is enforced once. With the queue filled to the bound, a
// finished request's slot is free by the time its Submit returns, so a
// closed loop of exactly MaxQueue clients is never shed — the PR 12
// cascade, where a second counter behind the first still held the slot.
func TestSchedulerMaxQueueEnforcedOnce(t *testing.T) {
	const bound = 4
	s := NewScheduler(SchedulerConfig{Workers: 2, MaxQueue: bound, MaxBatch: 1, Linger: 0})
	defer s.Close()

	release := make(chan struct{})
	done := make(chan error, bound)
	for i := 0; i < bound; i++ {
		go func() {
			_, _, err := s.Submit(context.Background(), nil, "k", func(context.Context, BatchInfo) (any, error) {
				<-release
				return nil, nil
			})
			done <- err
		}()
	}
	waitFor(t, "queue at its bound", func() bool { return s.Depth() == bound })
	noop := func(context.Context, BatchInfo) (any, error) { return nil, nil }
	if _, _, err := s.Submit(context.Background(), nil, "k", noop); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit past the bound: %v, want ErrQueueFull", err)
	}
	release <- struct{}{} // finish exactly one
	if err := <-done; err != nil {
		t.Fatalf("finished request: %v", err)
	}
	// Its slot is free the moment its Submit returned; the other bound-1
	// still block, so the next request is admitted and waits its turn.
	go func() {
		_, _, err := s.Submit(context.Background(), nil, "k", noop)
		done <- err
	}()
	waitFor(t, "queue back at its bound", func() bool { return s.Depth() == bound })
	close(release)
	for i := 0; i < bound; i++ {
		if err := <-done; err != nil {
			t.Fatalf("request admitted at the bound: %v", err)
		}
	}

	// Closed loop at the bound: every client resubmits the moment it is
	// answered; none may ever see ErrQueueFull.
	var wg sync.WaitGroup
	errs := make(chan error, bound)
	for c := 0; c < bound; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if _, _, err := s.Submit(context.Background(), nil, "k", noop); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("closed loop of MaxQueue clients was shed: %v", err)
	}
}

// resolveNetwork supports shrunk benchmark names ("ResNet18/8").
func TestResolveNetworkShrunk(t *testing.T) {
	s, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close(context.Background())
	n, err := s.resolveNetwork("ResNet18/8")
	if err != nil {
		t.Fatal(err)
	}
	if n.Name != "ResNet18/8" || len(n.Layers) == 0 {
		t.Fatalf("shrunk network %q with %d layers", n.Name, len(n.Layers))
	}
	if _, err := s.resolveNetwork("NoSuchNet"); err == nil {
		t.Fatal("unknown network resolved")
	}
	if _, err := s.resolveNetwork("ResNet18/x"); err == nil {
		t.Fatal("malformed shrink divisor resolved")
	}
}
