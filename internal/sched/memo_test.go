package sched

import (
	"sync"
	"testing"

	"seculator/internal/workload"
)

func memoLayer() workload.Layer {
	return workload.Layer{Name: "conv", Type: workload.Conv, C: 64, H: 56, W: 56, K: 64, R: 3, S: 3, Stride: 1}
}

// A hit returns the Choice Map computes, and the memo's one shared copy of
// it: the second call finds the first call's *Mapping.
func TestMapCachedHitReturnsMapChoice(t *testing.T) {
	mapMemo.Reset()
	l := memoLayer()
	want, err := Map(l, cfg(), dcfg())
	if err != nil {
		t.Fatal(err)
	}
	first, err := MapCached(l, cfg(), dcfg())
	if err != nil {
		t.Fatal(err)
	}
	hit, err := MapCached(l, cfg(), dcfg())
	if err != nil {
		t.Fatal(err)
	}
	if hit.Mapping != first.Mapping {
		t.Fatal("a hit returned a fresh mapping, not the cached one")
	}
	hit.Mapping, want.Mapping = nil, nil
	if hit != want {
		t.Fatalf("hit %+v, Map %+v", hit, want)
	}
	if s := mapMemo.Stats(); s.Misses != 1 || s.Hits != 1 || s.Entries != 1 {
		t.Fatalf("stats %+v, want 1 miss, 1 hit, 1 entry", s)
	}
}

// A search with no feasible mapping errors on every call and is never
// cached: the memo is left without an entry for it.
func TestMapCachedInfeasibleLeavesNoEntry(t *testing.T) {
	mapMemo.Reset()
	tiny := cfg()
	tiny.GlobalBufferBytes = 64
	if _, err := Map(memoLayer(), tiny, dcfg()); err == nil {
		t.Fatal("a 64-byte global buffer mapped a 64x56x56 convolution")
	}
	for i := 0; i < 3; i++ {
		if _, err := MapCached(memoLayer(), tiny, dcfg()); err == nil {
			t.Fatalf("call %d: infeasible layer mapped", i)
		}
		if s := mapMemo.Stats(); s.Entries != 0 {
			t.Fatalf("call %d: %d entries after a failed search", i, s.Entries)
		}
	}
}

// Concurrent misses on one key run Map once: every caller shares the one
// *Mapping a single search built.
func TestMapCachedConcurrentMissesSearchOnce(t *testing.T) {
	mapMemo.Reset()
	const callers = 8
	start := make(chan struct{})
	got := make([]Choice, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			c, err := MapCached(memoLayer(), cfg(), dcfg())
			if err != nil {
				t.Error(err)
			}
			got[i] = c
		}()
	}
	close(start)
	wg.Wait()
	for i, c := range got {
		if c.Mapping == nil || c.Mapping != got[0].Mapping {
			t.Fatalf("caller %d got mapping %p, caller 0 %p", i, c.Mapping, got[0].Mapping)
		}
	}
	if s := mapMemo.Stats(); s.Misses != 1 || s.Hits != callers-1 {
		t.Fatalf("stats %+v, want 1 miss and %d hits", s, callers-1)
	}
}

// On a warm memo, planning a network allocates only the result slice.
func TestMapNetworkCachedWarmAllocs(t *testing.T) {
	net, err := workload.ResolveShape("MobileNet/8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MapNetworkCached(net, cfg(), dcfg()); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := MapNetworkCached(net, cfg(), dcfg()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("warm MapNetworkCached: %v allocs, want 1 (the result slice)", allocs)
	}
}
