package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
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

func noop(context.Context) (any, error) { return nil, nil }

// counts reads the two admission counters under the scheduler lock.
func (s *Scheduler) counts() (queued, running int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued, s.running
}

// holdWorker submits a task that occupies one worker until the returned
// release function is called, and returns once it is running; done carries
// its Submit error.
func holdWorker(t *testing.T, s *Scheduler, ten *Tenant) (release func(), done <-chan error) {
	t.Helper()
	started := make(chan struct{})
	gate := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Submit(context.Background(), ten, func(context.Context) (any, error) {
			close(started)
			<-gate
			return nil, nil
		})
		errc <- err
	}()
	<-started
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }, errc
}

// Workers requests run at once: request 0 blocks until request 1 has run,
// which only completes if the two overlap.
func TestSchedulerBatchItemsOverlap(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 2, MaxQueue: 8})
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ran1 := make(chan struct{})
	errs := make(chan error, 2)
	submit := func(task Task) {
		_, _, err := s.Submit(ctx, nil, task)
		errs <- err
	}
	go submit(func(ctx context.Context) (any, error) {
		select {
		case <-ran1:
			return nil, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	waitFor(t, "request 0 admitted", func() bool { return s.Depth() == 1 })
	go submit(func(context.Context) (any, error) {
		close(ran1)
		return nil, nil
	})
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("two workers with request 0 waiting on request 1: %v", err)
		}
	}
}

// Admission control: submissions beyond MaxQueue fail fast with
// ErrQueueFull while earlier work is still queued or executing.
func TestSchedulerQueueFull(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 2})
	defer s.Close()

	release, blocker := holdWorker(t, s, nil) // worker busy; depth 1
	defer release()
	queued := make(chan error, 1)
	go func() {
		_, _, err := s.Submit(context.Background(), nil, noop)
		queued <- err
	}()
	waitFor(t, "queue depth 2", func() bool { return s.Depth() == 2 })

	if _, _, err := s.Submit(context.Background(), nil, noop); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	release()
	for i, c := range []<-chan error{blocker, queued} {
		if err := <-c; err != nil {
			t.Fatalf("admitted request %d failed: %v", i, err)
		}
	}
}

// A deadline expiring while queued returns the context error and the
// abandoned task never executes.
func TestSchedulerDeadlineWhileQueued(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 8})
	defer s.Close()

	release, _ := holdWorker(t, s, nil)
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	var ran atomic.Bool
	_, _, err := s.Submit(ctx, nil, func(context.Context) (any, error) {
		ran.Store(true)
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued-past-deadline submit: %v, want DeadlineExceeded", err)
	}
	release()
	waitFor(t, "abandoned slot reclaimed", func() bool { return s.Depth() == 0 })
	if ran.Load() {
		t.Fatal("abandoned request executed anyway")
	}
}

// closeWhileHeld calls Close with one worker still held, checks that new
// work is refused at once while admitted work is still pending, then
// releases the worker and waits for Close to return.
func closeWhileHeld(t *testing.T, s *Scheduler, release func()) {
	t.Helper()
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	waitFor(t, "Close to begin", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.closed
	})
	if _, _, err := s.Submit(context.Background(), nil, noop); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit during drain: %v, want ErrShuttingDown", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with admitted requests undelivered")
	default:
	}
	release()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the admitted requests could finish")
	}
}

// Drain on shutdown: Close finishes every admitted request and rejects new
// work with ErrShuttingDown.
func TestSchedulerDrainOnShutdown(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 64})
	release, blocker := holdWorker(t, s, nil)
	defer release()

	const n = 3
	var wg sync.WaitGroup
	var completed atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := s.Submit(context.Background(), nil, func(context.Context) (any, error) {
				completed.Add(1)
				return nil, nil
			})
			if err != nil {
				t.Errorf("admitted request failed during drain: %v", err)
			}
		}()
	}
	waitFor(t, "3 admitted behind the held worker", func() bool { return s.Depth() == n+1 })

	closeWhileHeld(t, s, release)
	wg.Wait()
	if err := <-blocker; err != nil {
		t.Fatalf("request running at Close: %v", err)
	}
	if completed.Load() != n {
		t.Fatalf("drain completed %d of %d admitted requests", completed.Load(), n)
	}
	if _, _, err := s.Submit(context.Background(), nil, noop); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-close submit: %v, want ErrShuttingDown", err)
	}
}

// A request cancelled while still in its tenant sub-queue returns at once,
// is dropped at dequeue without ever running, and gives its slot back: the
// queue, full before, admits again.
func TestSchedulerCancelInSubQueue(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 2})
	defer s.Close()

	release, blocker := holdWorker(t, s, nil) // the one worker is taken
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Bool
	victim := make(chan error, 1)
	go func() {
		_, _, err := s.Submit(ctx, nil, func(context.Context) (any, error) {
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

	release()
	if err := <-blocker; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	waitFor(t, "cancelled slot freed", func() bool { return s.Depth() == 0 })
	if ran.Load() {
		t.Fatal("request cancelled in its sub-queue executed anyway")
	}
	for i := 0; i < 2; i++ {
		if _, _, err := s.Submit(context.Background(), nil, noop); err != nil {
			t.Fatalf("submit %d after the cancelled slot was freed: %v", i, err)
		}
	}
}

// Close with one request running and more waiting in two tenants'
// sub-queues delivers every one of them.
func TestSchedulerCloseDrainsSubQueuesAndLingeringBatches(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 64})
	tenants := NewTenantRegistry([]TenantConfig{{Key: "a"}, {Key: "b"}}, QuarantineConfig{}, nil).All()

	var wg sync.WaitGroup
	var completed atomic.Int32
	submit := func(ten *Tenant) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := s.Submit(context.Background(), ten, func(context.Context) (any, error) {
				completed.Add(1)
				return nil, nil
			})
			if err != nil {
				t.Errorf("admitted request failed during drain: %v", err)
			}
		}()
	}
	release, blocker := holdWorker(t, s, tenants[0])
	defer release()
	submit(tenants[0])
	submit(tenants[1])
	submit(tenants[0])
	submit(tenants[1])
	waitFor(t, "four parked in sub-queues behind one running", func() bool {
		q, r := s.counts()
		return q == 4 && r == 1
	})

	closeWhileHeld(t, s, release)
	wg.Wait()
	if err := <-blocker; err != nil {
		t.Fatalf("request running at Close: %v", err)
	}
	if completed.Load() != 4 {
		t.Fatalf("drain completed %d of 4 queued requests", completed.Load())
	}
	if d := s.Depth(); d != 0 {
		t.Fatalf("depth %d after Close, want 0", d)
	}
	if _, _, err := s.Submit(context.Background(), nil, noop); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-close submit: %v, want ErrShuttingDown", err)
	}
}

// MaxQueue is enforced once. With the queue filled to the bound, a
// finished request's slot is free by the time its Submit returns, so a
// closed loop of exactly MaxQueue clients is never shed — the PR 12
// cascade, where a second counter behind the first still held the slot.
func TestSchedulerMaxQueueEnforcedOnce(t *testing.T) {
	const bound = 4
	s := NewScheduler(SchedulerConfig{Workers: 2, MaxQueue: bound})
	defer s.Close()

	release := make(chan struct{})
	done := make(chan error, bound)
	for i := 0; i < bound; i++ {
		go func() {
			_, _, err := s.Submit(context.Background(), nil, func(context.Context) (any, error) {
				<-release
				return nil, nil
			})
			done <- err
		}()
	}
	waitFor(t, "queue at its bound", func() bool { return s.Depth() == bound })
	if _, _, err := s.Submit(context.Background(), nil, noop); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit past the bound: %v, want ErrQueueFull", err)
	}
	release <- struct{}{} // finish exactly one
	if err := <-done; err != nil {
		t.Fatalf("finished request: %v", err)
	}
	// Its slot is free the moment its Submit returned; the other bound-1
	// still block, so the next request is admitted and waits its turn.
	go func() {
		_, _, err := s.Submit(context.Background(), nil, noop)
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
				if _, _, err := s.Submit(context.Background(), nil, noop); err != nil {
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

// Under a burst ten times MaxQueue, with some requests on deadlines short
// enough to expire while queued, never more than Workers tasks execute at
// once, Depth never exceeds MaxQueue, every submission is answered with its
// own result, ErrQueueFull or its context's error, and the depth drains to
// zero.
func TestSchedulerOversubscribedBurst(t *testing.T) {
	const (
		workers  = 4
		maxQueue = 32
		burst    = 10 * maxQueue
	)
	s := NewScheduler(SchedulerConfig{Workers: workers, MaxQueue: maxQueue})
	defer s.Close()

	var inflight, executed, shed, expired atomic.Int32
	errs := make(chan error, burst)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(want int) {
			defer wg.Done()
			ctx := context.Background()
			if want%5 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(want%3)*50*time.Microsecond)
				defer cancel()
			}
			<-start
			res, _, err := s.Submit(ctx, nil, func(context.Context) (any, error) {
				if n := inflight.Add(1); n > workers {
					errs <- fmt.Errorf("%d tasks executing at once, Workers is %d", n, workers)
				}
				if d := s.Depth(); d > maxQueue {
					errs <- fmt.Errorf("depth %d exceeds MaxQueue %d", d, maxQueue)
				}
				runtime.Gosched() // let the other workers overlap this task
				executed.Add(1)
				inflight.Add(-1)
				return want, nil
			})
			switch {
			case errors.Is(err, ErrQueueFull):
				shed.Add(1)
			case errors.Is(err, context.DeadlineExceeded):
				expired.Add(1)
			case err != nil:
				errs <- fmt.Errorf("submit %d: %w", want, err)
			case res != want:
				errs <- fmt.Errorf("submit %d: got result %v", want, res)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	waitFor(t, "expired requests reaped", func() bool { return s.Depth() == 0 })
	// A request that expired after a worker took it executed although its
	// submitter counted it expired; everything else is counted once.
	if e, sh, ex := executed.Load(), shed.Load(), expired.Load(); e+sh < burst-ex || e+sh > burst {
		t.Fatalf("executed %d + shed %d + expired %d do not account for %d submissions", e, sh, ex, burst)
	}
}

// With one worker, weights 3:1 and both tenants backlogged, the pull
// dequeue is exact: every 40 consecutive dequeues serve the weight-3 tenant
// 30 times, give or take one.
func TestSchedulerDRRExactRatio(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 256})
	defer s.Close()
	tenants := NewTenantRegistry([]TenantConfig{
		{Key: "a", Weight: 3}, {Key: "b", Weight: 1},
	}, QuarantineConfig{}, nil).All()
	a, b := tenants[0], tenants[1]

	release, _ := holdWorker(t, s, nil)
	defer release()
	const perB = 30    // and 3*perB for a: both stay backlogged to the end
	var order []string // appended by the one worker only
	var wg sync.WaitGroup
	submit := func(ten *Tenant, n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, err := s.Submit(context.Background(), ten, func(context.Context) (any, error) {
					order = append(order, ten.Name())
					return nil, nil
				}); err != nil {
					t.Errorf("submit %s: %v", ten.Name(), err)
				}
			}()
		}
	}
	submit(a, 3*perB)
	submit(b, perB)
	waitFor(t, "both tenants backlogged", func() bool { q, _ := s.counts(); return q == 4*perB })
	release()
	wg.Wait()

	const window = 40
	for lo := 0; lo+window <= len(order); lo++ {
		countA := 0
		for _, name := range order[lo : lo+window] {
			if name == a.Name() {
				countA++
			}
		}
		if countA < 29 || countA > 31 {
			t.Fatalf("dequeues %d..%d served the weight-3 tenant %d times, want 30±1 (order %v)",
				lo, lo+window-1, countA, order)
		}
	}
}

// A request cancelled while queued does not consume its tenant's deficit:
// the tenant's next live requests are served in the same visit, ahead of
// the tenant the cursor reaches next.
func TestSchedulerCancelledDoesNotSpendDeficit(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Workers: 1, MaxQueue: 16})
	defer s.Close()
	tenants := NewTenantRegistry([]TenantConfig{
		{Key: "a", Weight: 2}, {Key: "b", Weight: 1},
	}, QuarantineConfig{}, nil).All()
	a, b := tenants[0], tenants[1]

	release, _ := holdWorker(t, s, nil)
	defer release()
	var order []string // appended by the one worker only
	var wg sync.WaitGroup
	enqueue := func(ctx context.Context, ten *Tenant, name string) <-chan error {
		errc := make(chan error, 1)
		q, _ := s.counts()
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := s.Submit(ctx, ten, func(context.Context) (any, error) {
				order = append(order, name)
				return nil, nil
			})
			errc <- err
		}()
		waitFor(t, name+" queued", func() bool { now, _ := s.counts(); return now == q+1 })
		return errc
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	victim := enqueue(ctx, a, "a1")
	enqueue(context.Background(), a, "a2")
	enqueue(context.Background(), a, "a3")
	enqueue(context.Background(), b, "b1")
	cancel()
	if err := <-victim; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: %v, want context.Canceled", err)
	}
	release()
	wg.Wait()

	// Weight 2 buys a two requests per visit. Had the dropped a1 spent one,
	// b1 would run between a2 and a3.
	if got := strings.Join(order, " "); got != "a2 a3 b1" {
		t.Fatalf("execution order %q, want %q", got, "a2 a3 b1")
	}
}

// schedulerWorkers counts the live scheduler worker goroutines.
func schedulerWorkers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*Scheduler).work(")
}

// A scheduler that never saw a request closes at once and leaves no
// goroutine behind.
func TestSchedulerCloseIdle(t *testing.T) {
	before := schedulerWorkers()
	NewScheduler(SchedulerConfig{Workers: 4}).Close()
	waitFor(t, "workers gone", func() bool { return schedulerWorkers() <= before })
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
