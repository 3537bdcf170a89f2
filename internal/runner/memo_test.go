package runner

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"seculator/internal/protect"
	"seculator/internal/sim"
	"seculator/internal/tensor"
	"seculator/internal/workload"
)

func memoNet(name string) workload.Network {
	return workload.Network{
		Name: name,
		Layers: []workload.Layer{
			{Name: "c1", Type: workload.Conv, C: 3, H: 16, W: 16, K: 8, R: 3, S: 3, Stride: 1},
			{Name: "c2", Type: workload.Conv, C: 8, H: 16, W: 16, K: 8, R: 3, S: 3, Stride: 1},
		},
	}
}

// TestRunCachedIdentity: a warm cache hit returns exactly the cold run's
// result, and the counters record the reuse.
func TestRunCachedIdentity(t *testing.T) {
	ResetCache()
	defer ResetCache()
	net := memoNet("memo-identity")
	cfg := DefaultConfig()

	cold, err := RunCached(context.Background(), net, protect.Seculator, cfg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Run(context.Background(), net, protect.Seculator, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, direct) {
		t.Fatal("cached cold run differs from a direct Run")
	}
	warm, err := RunCached(context.Background(), net, protect.Seculator, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm cache hit differs from cold run")
	}
	s := CacheStats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss + 1 hit", s)
	}
}

// TestRunCachedKeySensitivity: distinct designs, configs and layer shapes
// produce distinct cache entries even when the network name matches.
func TestRunCachedKeySensitivity(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfg := DefaultConfig()
	net := memoNet("memo-keys")

	a, err := RunCached(context.Background(), net, protect.Seculator, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCached(context.Background(), net, protect.TNPU, cfg); err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg
	cfg2.DRAM.BlocksPerCycle *= 2
	b, err := RunCached(context.Background(), net, protect.Seculator, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles == b.Cycles {
		t.Fatal("bandwidth change did not change the cached result — key too weak")
	}
	// Same name, different layers: must not collide.
	other := memoNet("memo-keys")
	other.Layers[1].K = 16
	c, err := RunCached(context.Background(), other, protect.Seculator, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Layers, c.Layers) {
		t.Fatal("networks sharing a name collided in the cache")
	}
	if s := CacheStats(); s.Misses != 4 {
		t.Fatalf("cache stats = %+v, want 4 distinct misses", s)
	}
}

// TestRunCachedTraceBypass: runs with a TraceFn must re-simulate every
// time — the trace callback is the product.
func TestRunCachedTraceBypass(t *testing.T) {
	ResetCache()
	defer ResetCache()
	net := memoNet("memo-trace")
	cfg := DefaultConfig()
	events := 0
	cfg.TraceFn = func(int, sim.AccessKind, tensor.Kind, uint64, int) { events++ }
	for i := 0; i < 2; i++ {
		if _, err := RunCached(context.Background(), net, protect.Baseline, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if events == 0 {
		t.Fatal("trace callback never fired")
	}
	if s := CacheStats(); s.Misses != 0 && s.Hits != 0 {
		t.Fatalf("traced runs touched the cache: %+v", s)
	}
}

// TestRunAllParallelMatchesSerial: RunAll produces identical results in
// designs order at any worker count.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	ResetCache()
	defer ResetCache()
	net := memoNet("runall-par")
	cfg := DefaultConfig()
	designs := protect.Designs()

	var want []Result
	for _, d := range designs {
		r, err := Run(context.Background(), net, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	got, err := RunAll(context.Background(), net, designs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("parallel RunAll differs from serial per-design Run")
	}
	for i, d := range designs {
		if got[i].Design != d {
			t.Fatalf("result %d is design %v, want %v — ordering lost", i, got[i].Design, d)
		}
	}
}

// TestRunCachedBounded: network names are caller-chosen on the serving
// path ("Name/div"), so the cache must not keep one entry per distinct name
// for ever (parallel's tests pin the bound itself) — and a point simulated
// after an overflow still hits when repeated.
func TestRunCachedBounded(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfg := DefaultConfig()
	ctx := context.Background()
	net := workload.Network{
		Layers: []workload.Layer{{Name: "c1", Type: workload.Conv, C: 1, H: 3, W: 3, K: 1, R: 3, S: 3, Stride: 1}},
	}
	const names = 6000
	for i := 0; i < names; i++ {
		net.Name = fmt.Sprintf("bounded/%d", i)
		if _, err := RunCached(ctx, net, protect.Seculator, cfg); err != nil {
			t.Fatal(err)
		}
	}
	before := CacheStats()
	if before.Entries >= names {
		t.Fatalf("%d entries after %d distinct names: the cache is unbounded", before.Entries, names)
	}
	if _, err := RunCached(ctx, net, protect.Seculator, cfg); err != nil {
		t.Fatal(err)
	}
	if after := CacheStats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Fatalf("repeating the last point: %+v -> %+v, want one more hit", before, after)
	}
}
