package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The PR 9 batch-header pool recycles batch structs while stale linger
// timers may still hold pointers to them: releaseBatch scrubs under the
// scheduler lock precisely so a timer flush that lost the detach race
// observes a cleanly reset header and walks away. This test targets that
// interaction: a linger window short enough that timers fire constantly, a
// MaxBatch small enough that full-batch dispatches constantly detach the
// same headers the timers are racing for, and enough submitters that
// recycled headers are immediately reused under new keys. Run under -race
// (CI does), and verify integrity end to end — every submission gets its
// own result back, never a neighbour's from a scrambled batch.
func TestSchedulerLingerPoolRace(t *testing.T) {
	s := NewScheduler(SchedulerConfig{
		Workers:  4,
		MaxQueue: 4096,
		MaxBatch: 3,
		Linger:   50 * time.Microsecond,
	})
	defer s.Close()

	const (
		goroutines = 8
		perG       = 250
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	var executed atomic.Int64
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				// Two hot keys: collisions form shared batches (full-batch
				// dispatch path) while stragglers ride the linger timer.
				key := fmt.Sprintf("net=k%d", rng.Intn(2))
				want := g*perG + i
				res, info, err := s.Submit(ctx, nil, key, func(ctx context.Context, b BatchInfo) (any, error) {
					if d := rng.Intn(3); d > 0 {
						// Occasional stalls keep batches in flight while their
						// headers' previous incarnations are being flushed.
						time.Sleep(time.Duration(d) * 10 * time.Microsecond)
					}
					executed.Add(1)
					return want, nil
				})
				if err != nil {
					errs <- fmt.Errorf("submit %d/%d: %w", g, i, err)
					return
				}
				if got, ok := res.(int); !ok || got != want {
					errs <- fmt.Errorf("submit %d/%d: got result %v, want %d (batch of %d)", g, i, res, want, info.Size)
					return
				}
				if info.Size < 1 || info.Size > 3 {
					errs <- fmt.Errorf("submit %d/%d: batch size %d out of range", g, i, info.Size)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := executed.Load(); got != goroutines*perG {
		t.Fatalf("executed %d tasks, want %d", got, goroutines*perG)
	}
	if d := s.Depth(); d != 0 {
		t.Fatalf("scheduler depth %d after drain, want 0", d)
	}
}

// The same flood while some requests expire mid-queue: expired items must
// be skipped with their context error and the depth accounting must still
// drain to zero — the stale-timer path and the context-expiry path share
// the batch headers being recycled.
func TestSchedulerLingerPoolRaceWithExpiry(t *testing.T) {
	s := NewScheduler(SchedulerConfig{
		Workers:  2,
		MaxQueue: 4096,
		MaxBatch: 2,
		Linger:   30 * time.Microsecond,
	})
	defer s.Close()

	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if i%5 == 0 {
					// A sliver of a deadline: some of these expire while
					// queued, some while their batch is dispatching.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(i%3)*25*time.Microsecond)
				}
				_, _, err := s.Submit(ctx, nil, "net=hot", func(ctx context.Context, b BatchInfo) (any, error) {
					return nil, nil
				})
				if cancel != nil {
					cancel()
				}
				if err != nil && err != context.DeadlineExceeded {
					// Only context expiry is an acceptable failure here.
					panic(fmt.Sprintf("unexpected submit error: %v", err))
				}
			}
		}(g)
	}
	wg.Wait()

	// The scheduler keeps expired slots admitted until the executor skips
	// them; give in-flight batches a moment to deliver, then the depth must
	// be exactly zero.
	deadline := time.Now().Add(5 * time.Second)
	for s.Depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("scheduler depth %d never drained", s.Depth())
		}
		time.Sleep(time.Millisecond)
	}
}
