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
			_, info, err := s.Submit(context.Background(), "net=Mini", func(context.Context, BatchInfo) (any, error) {
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
			_, info, err := s.Submit(context.Background(), "k", func(context.Context, BatchInfo) (any, error) {
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
		_, info, err := s.Submit(ctx, "k", task)
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
			_, info, err := s.Submit(context.Background(), key, func(context.Context, BatchInfo) (any, error) {
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
		_, _, err := s.Submit(context.Background(), "k", func(context.Context, BatchInfo) (any, error) {
			close(started)
			<-release
			return nil, nil
		})
		done <- err
	}()
	<-started // worker busy; depth 1
	go func() {
		_, _, err := s.Submit(context.Background(), "k", func(context.Context, BatchInfo) (any, error) {
			return nil, nil
		})
		done <- err
	}()
	waitFor(t, "queue depth 2", func() bool { return s.Depth() == 2 })

	_, _, err := s.Submit(context.Background(), "k", func(context.Context, BatchInfo) (any, error) {
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
	go s.Submit(context.Background(), "k", func(context.Context, BatchInfo) (any, error) {
		close(started)
		<-release
		return nil, nil
	})
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	var ran atomic.Bool
	_, _, err := s.Submit(ctx, "k", func(context.Context, BatchInfo) (any, error) {
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
			_, _, err := s.Submit(context.Background(), "k", func(context.Context, BatchInfo) (any, error) {
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

	_, _, err := s.Submit(context.Background(), "k", func(context.Context, BatchInfo) (any, error) {
		return nil, nil
	})
	if !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-close submit: %v, want ErrShuttingDown", err)
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
