package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapDeterministicOrdering: outputs land by item index regardless of
// worker count or completion order. Run under -race this also exercises
// the pool's synchronization.
func TestMapDeterministicOrdering(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	fn := func(_ context.Context, v int) (int, error) {
		if v%7 == 0 {
			runtime.Gosched() // perturb completion order
		}
		return v*v + 1, nil
	}
	want, err := Map(context.Background(), 1, items, fn)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16, 150} {
		got, err := Map(context.Background(), workers, items, fn)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestMapFirstErrorWins: an error cancels the fan-out, is the returned
// error, and stops remaining work promptly.
func TestMapFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	items := make([]int, 1000)
	for i := range items {
		items[i] = i
	}
	var started atomic.Int64
	_, err := Map(context.Background(), 4, items, func(ctx context.Context, v int) (int, error) {
		started.Add(1)
		if v == 5 {
			return 0, boom
		}
		return v, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Cancellation prevents the un-started tail from running: with 4
	// workers failing around item 5, nowhere near all 1000 items start.
	if n := started.Load(); n >= int64(len(items)) {
		t.Fatalf("all %d items ran despite early error", n)
	}
}

// TestMapErrorSerial: the serial fast path propagates errors identically.
func TestMapErrorSerial(t *testing.T) {
	boom := errors.New("boom")
	var ran int
	_, err := Map(context.Background(), 1, []int{1, 2, 3, 4}, func(_ context.Context, v int) (int, error) {
		ran++
		if v == 2 {
			return 0, boom
		}
		return v, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if ran != 2 {
		t.Fatalf("ran %d items after error, want 2", ran)
	}
}

// TestMapCancellation: cancelling the parent context mid-fan-out returns
// ctx.Err() promptly even with items blocked on the context.
func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 64)
	var entered atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Map(ctx, 4, items, func(ctx context.Context, _ int) (int, error) {
			if entered.Add(1) == 1 {
				cancel() // first call pulls the plug on everyone
			}
			<-ctx.Done()
			return 0, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Map did not return promptly after cancellation")
	}
}

// TestMapPreCancelled: a context cancelled before the call runs nothing.
func TestMapPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	_, err := Map(ctx, 4, []int{1, 2, 3}, func(context.Context, int) (int, error) {
		ran.Add(1)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d items ran under a pre-cancelled context", ran.Load())
	}
}

// TestMapEmptyAndWorkerClamp: zero items is a no-op; absurd worker counts
// clamp to the item count.
func TestMapEmptyAndWorkerClamp(t *testing.T) {
	out, err := Map(context.Background(), 8, nil, func(context.Context, int) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	})
	if err != nil || out != nil {
		t.Fatalf("empty Map = (%v, %v), want (nil, nil)", out, err)
	}
	got, err := Map(context.Background(), 1000, []int{7}, func(_ context.Context, v int) (int, error) {
		return v, nil
	})
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("clamped Map = (%v, %v)", got, err)
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	items := []int{1, 2, 3, 4, 5}
	if err := ForEach(context.Background(), 3, items, func(_ context.Context, v int) error {
		sum.Add(int64(v))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 15 {
		t.Fatalf("sum = %d, want 15", sum.Load())
	}
}

func TestSetWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(0)
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS", Workers())
	}
}

// TestMemoSingleflight: concurrent Do calls on one key compute exactly
// once and agree on the result; counters add up.
func TestMemoSingleflight(t *testing.T) {
	m := NewMemo[string, int]()
	var computes atomic.Int64
	const callers = 16
	results, err := Map(context.Background(), callers, make([]int, callers), func(context.Context, int) (int, error) {
		return m.Do("key", func() (int, error) {
			computes.Add(1)
			return 42, nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r != 42 {
			t.Fatalf("cached result = %d, want 42", r)
		}
	}
	if computes.Load() != 1 {
		t.Fatalf("computed %d times, want 1 (singleflight)", computes.Load())
	}
	s := m.Stats()
	if s.Misses != 1 || s.Hits != callers-1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss, %d hits, 1 entry", s, callers-1)
	}
	if got := s.HitRate(); got <= 0.9 {
		t.Fatalf("hit rate %.2f too low", got)
	}
}

// TestMemoColdWarmIdentity: a warm hit returns the identical value of the
// cold computation, and errors are cached alongside values.
func TestMemoColdWarmIdentity(t *testing.T) {
	m := NewMemo[int, string]()
	cold, err := m.Do(1, func() (string, error) { return "v1", nil })
	if err != nil {
		t.Fatal(err)
	}
	warm, err := m.Do(1, func() (string, error) {
		t.Fatal("recomputed a cached key")
		return "", nil
	})
	if err != nil || warm != cold {
		t.Fatalf("warm = (%q, %v), want (%q, nil)", warm, err, cold)
	}

	boom := errors.New("boom")
	if _, err := m.Do(2, func() (string, error) { return "", boom }); !errors.Is(err, boom) {
		t.Fatalf("cold error = %v, want boom", err)
	}
	if _, err := m.Do(2, func() (string, error) { return "fine", nil }); !errors.Is(err, boom) {
		t.Fatalf("warm error = %v, want cached boom", err)
	}

	m.Forget(2)
	if v, err := m.Do(2, func() (string, error) { return "fine", nil }); err != nil || v != "fine" {
		t.Fatalf("after Forget: (%q, %v), want (fine, nil)", v, err)
	}

	m.Reset()
	if s := m.Stats(); s.Entries != 0 || s.Hits != 0 || s.Misses != 0 {
		t.Fatalf("stats after Reset = %+v", s)
	}
}

// TestMemoDistinctKeys: different keys do not collide.
func TestMemoDistinctKeys(t *testing.T) {
	m := NewMemo[string, string]()
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("k%d", i)
		want := fmt.Sprintf("v%d", i)
		got, err := m.Do(key, func() (string, error) { return want, nil })
		if err != nil || got != want {
			t.Fatalf("Do(%s) = (%q, %v)", key, got, err)
		}
	}
	if s := m.Stats(); s.Entries != 10 || s.Misses != 10 {
		t.Fatalf("stats = %+v, want 10 entries / 10 misses", s)
	}
}

// TestMemoBounded: the table never holds more than memoCap entries, a
// compute in flight when the table clears still delivers its value, and a
// key computed after the clear hits when repeated.
func TestMemoBounded(t *testing.T) {
	m := NewMemo[int, int]()
	started, finish := make(chan struct{}), make(chan struct{})
	inflight := make(chan int, 1)
	go func() {
		v, _ := m.Do(-1, func() (int, error) {
			close(started)
			<-finish
			return 7, nil
		})
		inflight <- v
	}()
	<-started

	for i := 0; i < memoCap+10; i++ {
		if _, err := m.Do(i, func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		if n := m.Stats().Entries; n > memoCap {
			t.Fatalf("%d entries after %d distinct keys, bound is %d", n, i+2, memoCap)
		}
	}
	close(finish)
	if v := <-inflight; v != 7 {
		t.Fatalf("compute in flight across the clear returned %d, want 7", v)
	}

	last := memoCap + 9
	before := m.Stats()
	v, err := m.Do(last, func() (int, error) {
		t.Error("recomputed a key cached after the clear")
		return 0, nil
	})
	if err != nil || v != last {
		t.Fatalf("repeat of key %d = (%d, %v)", last, v, err)
	}
	if after := m.Stats(); after.Hits != before.Hits+1 {
		t.Fatalf("repeat of a cached key: %+v -> %+v, want one more hit", before, after)
	}
}
