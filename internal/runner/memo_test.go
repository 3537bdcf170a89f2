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

// TestRunCachedKeyCoversEveryField changes, one at a time, every field of
// the simulation input — each layer's fields, the network's name and note,
// the design, and every field of Config but TraceFn, found by reflection —
// and requires each change to miss the cached base point: a field left out
// of the key would hit and fail here. A Config field of a kind the test
// cannot change fails it too, so a new field cannot slip past.
func TestRunCachedKeyCoversEveryField(t *testing.T) {
	ResetCache()
	defer ResetCache()
	ctx := context.Background()
	net := memoNet("memo-fields")
	net.Note = "note"
	d := protect.Seculator
	cfg := DefaultConfig()
	run := func() { _, _ = RunCached(ctx, net, d, cfg) } // an error is a cached point too
	run()
	misses := CacheStats().Misses
	run()
	if got := CacheStats().Misses; got != misses {
		t.Fatal("repeating the base point missed the cache")
	}
	mustMiss := func(field string) {
		before := CacheStats().Misses
		run()
		if CacheStats().Misses != before+1 {
			t.Errorf("changing %s hit the cached base point: the key leaves it out", field)
		}
	}
	eachLeaf(t, reflect.ValueOf(&net.Name).Elem(), "Network.Name", mustMiss)
	eachLeaf(t, reflect.ValueOf(&net.Note).Elem(), "Network.Note", mustMiss)
	for i := range net.Layers {
		eachLeaf(t, reflect.ValueOf(&net.Layers[i]).Elem(), fmt.Sprintf("Layers[%d]", i), mustMiss)
	}
	eachLeaf(t, reflect.ValueOf(&d).Elem(), "design", mustMiss)
	c := reflect.ValueOf(&cfg).Elem()
	for i := 0; i < c.NumField(); i++ {
		if name := c.Type().Field(i).Name; name != "TraceFn" {
			eachLeaf(t, c.Field(i), "Config."+name, mustMiss)
		}
	}

	// Names are length-prefixed: one layer named with the first layer's
	// whole encoding plus the second's name, and shaped like the second,
	// spells the two-layer network's bytes but for the prefixes.
	merged := net.Layers[1]
	merged.Name = layersKey(net.Layers[:1]) + merged.Name
	net.Layers = []workload.Layer{merged}
	mustMiss("the layer boundary")
}

// eachLeaf changes each leaf field under v (a settable value) to a different
// value, one at a time, calls f with its path, and restores it.
func eachLeaf(t *testing.T, v reflect.Value, path string, f func(path string)) {
	t.Helper()
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			eachLeaf(t, v.Field(i), path+"."+v.Type().Field(i).Name, f)
		}
		return
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float()*2 + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "'")
	default:
		t.Fatalf("%s: the key test cannot change a %v field", path, v.Kind())
	}
	f(path)
	v.Set(old)
}

// TestRunCachedHitAllocations pins what a cache hit costs — every stateless
// and every session request pays one: the key's layer encoding is its one
// allocation, on the small model and the deep one alike.
func TestRunCachedHitAllocations(t *testing.T) {
	ResetCache()
	defer ResetCache()
	cfg := DefaultConfig()
	for _, name := range []string{"Mini", "MobileNet/8"} {
		net, err := workload.ResolveShape(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunCached(context.Background(), net, protect.Seculator, cfg); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := RunCached(context.Background(), net, protect.Seculator, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%s: a cache hit makes %.0f allocations, want at most 1", name, allocs)
		}
	}
}
