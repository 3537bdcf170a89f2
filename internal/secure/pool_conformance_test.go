package secure

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/npu"
	"seculator/internal/protect"
	"seculator/internal/tensor"
	"seculator/internal/workload"
)

// pool_conformance_test.go — the oracle for cross-request run-state reuse
// (parallel.go). A pooled runtime that leaks one request's state into the
// next would not crash; it would silently skew activations, MAC registers,
// or the keystream. So the conformance harness runs the same request
// sequence twice — once on fresh state per run (pooling off), once reusing
// one pooled state across consecutive runs — and demands bit-identical
// outputs AND bit-identical final MAC registers, at one P and at several.

// conformanceCase is one request in the reuse sequence: deliberately
// different networks and seeds back to back, so any stale geometry,
// stale slab contents, or stale digest from the previous run shows up.
type conformanceCase struct {
	net  workload.Network
	seed int64
}

func conformanceSequence() []conformanceCase {
	strided := workload.Network{
		Name: "strided",
		Layers: []workload.Layer{
			{Name: "c1", Type: workload.Conv, C: 2, H: 11, W: 11, K: 4, R: 5, S: 5, Stride: 2, Valid: true},
			{Name: "c2", Type: workload.Conv, C: 4, H: 4, W: 4, K: 6, R: 3, S: 3, Stride: 2},
		},
	}
	deepER := workload.Network{
		Name: "two",
		Layers: []workload.Layer{
			{Name: "c1", Type: workload.Conv, C: 2, H: 8, W: 8, K: 4, R: 3, S: 3, Stride: 1},
			{Name: "c2", Type: workload.Conv, C: 4, H: 8, W: 8, K: 4, R: 3, S: 3, Stride: 1},
		},
	}
	return []conformanceCase{
		{miniNet(), 42},   // every layer type
		{strided, 7},      // different geometry, valid + strided convs
		{deepER, 3},       // different depth and seed
		{miniNet(), 1000}, // back to the first geometry with new weights
	}
}

// runCase executes one case on x and returns the output plus the final
// layer's MAC register snapshot.
func runCase(t *testing.T, x *Executor, c conformanceCase) (*nn.Tensor, protect.RegisterState) {
	t.Helper()
	in, ws := nn.RandomModel(c.net, c.seed)
	var last protect.RegisterState
	x.OnLayerMACs = func(phase int, regs protect.RegisterState) { last = regs }
	res, err := x.Run(context.Background(), c.net, in, ws)
	if err != nil {
		t.Fatalf("%s/seed=%d: %v", c.net.Name, c.seed, err)
	}
	return res.Output, last
}

// TestPooledRuntimeConformance is the reuse oracle: one executor serving
// the whole sequence with pooling on (every run after the first rides the
// recycled state) must match fresh-state baselines bit for bit — outputs
// and all four XOR-MAC registers with their fold counts. Workers is
// GOMAXPROCS: at one the layer loop claims and provisions every layer
// itself, at four the weight loader claims layers beside it.
func TestPooledRuntimeConformance(t *testing.T) {
	seq := conformanceSequence()
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			// Fresh-state baselines: pooling off, a new executor per run.
			runPoolingOff.Store(true)
			defer runPoolingOff.Store(false)
			baselines := make([]*nn.Tensor, len(seq))
			baseRegs := make([]protect.RegisterState, len(seq))
			for i, c := range seq {
				baselines[i], baseRegs[i] = runCase(t, NewExecutor(), c)
			}

			// Pooled: one executor, consecutive runs, state recycled
			// between them.
			runPoolingOff.Store(false)
			x := NewExecutor()
			for i, c := range seq {
				out, regs := runCase(t, x, c)
				if !out.Equal(baselines[i]) {
					t.Fatalf("run %d (%s/seed=%d): pooled output diverged from fresh-state baseline",
						i, c.net.Name, c.seed)
				}
				if regs != baseRegs[i] {
					t.Fatalf("run %d (%s/seed=%d): pooled MAC registers diverged:\npooled %+v\nfresh  %+v",
						i, c.net.Name, c.seed, regs, baseRegs[i])
				}
			}
		})
	}
}

// TestPooledRuntimeIdentityMismatch: a pooled state keyed to one crypto
// identity must never serve a run under another. The second executor uses
// a different secret; its run must still match its own fresh reference.
func TestPooledRuntimeIdentityMismatch(t *testing.T) {
	c := conformanceSequence()[0]
	in, ws := nn.RandomModel(c.net, c.seed)

	x1 := NewExecutor()
	res1, err := x1.Run(context.Background(), c.net, in, ws)
	if err != nil {
		t.Fatal(err)
	}

	x2 := NewExecutor()
	x2.Secret = DefaultSecret ^ 0xdead
	x2.Random = DefaultRandom ^ 0xbeef
	res2, err := x2.Run(context.Background(), c.net, in, ws)
	if err != nil {
		t.Fatalf("different-identity run after pooled run: %v", err)
	}
	if !res1.Output.Equal(res2.Output) {
		t.Fatal("crypto identity must not change functional output")
	}
}

// TestRunPoolHammer floods the run-state pool from many goroutines with
// mixed networks and seeds — the shape of a busy serving tier, with more
// runs in flight than GOMAXPROCS. Under -race it is the data-race detector's
// view of the pool (acquire/scrub/release, the preload hand-off);
// functionally every result must match its golden reference.
func TestRunPoolHammer(t *testing.T) {

	seq := conformanceSequence()
	goldens := make([]*nn.Tensor, len(seq))
	for i, c := range seq {
		in, ws := nn.RandomModel(c.net, c.seed)
		g, err := nn.ForwardNetwork(c.net, in, ws)
		if err != nil {
			t.Fatal(err)
		}
		goldens[i] = g
	}

	const goroutines = 8
	iters := 6
	if testing.Short() {
		iters = 2
	}
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(seq)
				c := seq[i]
				x := NewExecutor()
				in, ws := nn.RandomModel(c.net, c.seed)
				res, err := x.Run(context.Background(), c.net, in, ws)
				if err != nil {
					errc <- fmt.Errorf("g%d it%d %s: %v", g, it, c.net.Name, err)
					return
				}
				if !res.Output.Equal(goldens[i]) {
					errc <- fmt.Errorf("g%d it%d %s: pooled output diverged under contention", g, it, c.net.Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPooledStateNotResurrectedByReserve pins the mem.DRAM contract the
// pool depends on: after Reset, re-Reserving the same range must observe
// zeroed, unwritten lines — not the previous run's ciphertext.
func TestPooledStateNotResurrectedByReserve(t *testing.T) {
	d, err := mem.New(mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.Reserve(8)
	var line [tensor.BlockBytes]byte
	line[0] = 0xAA
	d.WriteBlockQuiet(3, line[:])
	d.Reset()
	d.Reserve(8)
	if got := d.Lines(); got != 0 {
		t.Fatalf("Reserve after Reset resurrected %d written lines", got)
	}
}

// TestScrubClearsGenerator: a parked run state keeps the capacity of the
// tile-event generator's bookkeeping, never its contents — every element of
// every slice the generator retains reads zero after scrub — and its bound
// layer callbacks survive the scrub.
func TestScrubClearsGenerator(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled run states at random under the race detector")
	}
	net, err := workload.ResolveShape("MobileNet/8")
	if err != nil {
		t.Fatal(err)
	}
	in, ws := nn.RandomModel(net, 1)
	for try := 0; try < 10; try++ {
		if _, err := NewExecutor().Run(context.Background(), net, in, ws); err != nil {
			t.Fatal(err)
		}
		v := runPool.Get()
		if v == nil {
			continue // dropped by a GC between park and take
		}
		rt := v.(*runState).rt
		if rt.onEvent == nil || rt.onCompute == nil {
			t.Fatal("scrub dropped the bound layer callbacks")
		}
		g := reflect.ValueOf(&rt.gen).Elem()
		held := 0
		for i := 0; i < g.NumField(); i++ {
			f := g.Field(i)
			if f.Kind() != reflect.Slice {
				if !f.IsZero() {
					t.Fatalf("parked generator field %s is not zero", g.Type().Field(i).Name)
				}
				continue
			}
			all := f.Slice(0, f.Cap())
			held += all.Len()
			for j := 0; j < all.Len(); j++ {
				if !all.Index(j).IsZero() {
					t.Fatalf("parked generator field %s[%d] is not zero", g.Type().Field(i).Name, j)
				}
			}
		}
		if held == 0 {
			t.Fatal("the parked generator retained no bookkeeping: the run did not walk through it")
		}
		return
	}
	t.Fatal("no run state was parked in 10 runs")
}

// runBuffers names the inferRuntime fields that hold a run's values: the
// decoded input, output and weight tensors and the first-read bitmaps. No
// other field may: the shards encode from and decode into these, so the
// runtime stages no block.
var runBuffers = []string{"inTouched", "wTouched", "inData", "outData", "wData"}

// nonZeroArray returns the path of the first array field under v, following
// no pointer, that is not all zero, or "".
func nonZeroArray(v reflect.Value, path string) string {
	switch v.Kind() {
	case reflect.Array:
		if !v.IsZero() {
			return path
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := nonZeroArray(v.Field(i), path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestScrubLeavesNoRunBuffer: a parked runtime holds no run data. Every
// field of inferRuntime that can hold a slab of values is one of
// runBuffers, and scrub leaves each zero to its capacity; and the weight
// loader's shard, which encodes every weight block of the run, leaves no
// scratch line, lane or digest set.
func TestScrubLeavesNoRunBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled run states at random under the race detector")
	}
	net, err := workload.ResolveShape("MobileNet/8")
	if err != nil {
		t.Fatal(err)
	}
	in, ws := nn.RandomModel(net, 1)
	for try := 0; try < 10; try++ {
		if _, err := NewExecutor().Run(context.Background(), net, in, ws); err != nil {
			t.Fatal(err)
		}
		v := runPool.Get()
		if v == nil {
			continue // dropped by a GC between park and take
		}
		rt := v.(*runState).rt
		r := reflect.ValueOf(rt).Elem()
		var buffers []string
		held := 0
		for i := 0; i < r.NumField(); i++ {
			f, name := r.Field(i), r.Type().Field(i).Name
			var slabs []reflect.Value
			switch {
			case f.Kind() == reflect.Slice:
				slabs = []reflect.Value{f}
			case f.Kind() == reflect.Array && f.Type().Elem().Kind() == reflect.Slice:
				for j := 0; j < f.Len(); j++ {
					slabs = append(slabs, f.Index(j))
				}
			case f.Kind() == reflect.Array && f.Type().Elem().Kind() <= reflect.Complex128:
				t.Fatalf("runtime field %s is an array of values: a run buffer scrub does not know", name)
			}
			if slabs == nil {
				continue
			}
			buffers = append(buffers, name)
			for _, sl := range slabs {
				all := sl.Slice(0, sl.Cap())
				held += all.Len()
				for j := 0; j < all.Len(); j++ {
					if !all.Index(j).IsZero() {
						t.Fatalf("parked runtime field %s[%d] is not zero", name, j)
					}
				}
			}
		}
		if !slices.Equal(buffers, runBuffers) {
			t.Fatalf("the runtime's slab fields are %v, want only %v", buffers, runBuffers)
		}
		if held == 0 {
			t.Fatal("the parked runtime holds no slab: the run did not use it")
		}
		if p := nonZeroArray(reflect.ValueOf(rt.preload.sh).Elem(), "loader shard"); p != "" {
			t.Fatalf("scrub left %s set", p)
		}
		return
	}
	t.Fatal("no run state was parked in 10 runs")
}

// TestPooledRunByteBudget holds the steady state to its memory budget: once
// a pooled run state has been through the deep benchmark model, another
// serial run allocates bookkeeping only (< 64 KiB), never a DRAM image — the
// 512 KiB slab a re-Reserve used to cost every run is 8x over this bound —
// and makes at most 8 allocations, pooled or attached to a residency: the
// layer plan, the readout tensor and the run's closures, never anything per
// layer (the tile-event generator and the layer callbacks live in the
// pooled runtime). The budget binds the median of 20 runs, not their mean:
// sync.Pool may drop the parked state at any GC, and the one run that then
// rebuilds it (about one window in 70) is the pool's contract, not a leak.
func TestPooledRunByteBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled run states at random under the race detector")
	}
	net, err := workload.ResolveShape("MobileNet/8")
	if err != nil {
		t.Fatal(err)
	}
	in, ws := nn.RandomModel(net, 1)
	res, err := BuildWeightResidency(context.Background(), net, npu.DefaultConfig(), mem.DefaultConfig(),
		DefaultSecret, DefaultRandom, ws)
	if err != nil {
		t.Fatal(err)
	}
	resident := NewExecutor()
	resident.Residency = res
	for _, c := range []struct {
		name string
		x    *Executor
	}{{"pooled", NewExecutor()}, {"resident", resident}} {
		run := func() {
			if _, err := c.x.Run(context.Background(), net, in, ws); err != nil {
				t.Fatal(err)
			}
		}
		run() // builds the run state and grows its slabs
		run()
		bytes := make([]uint64, 20)
		mallocs := make([]uint64, len(bytes))
		var before, after runtime.MemStats
		for i := range bytes {
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			bytes[i] = after.TotalAlloc - before.TotalAlloc
			mallocs[i] = after.Mallocs - before.Mallocs
		}
		slices.Sort(bytes)
		slices.Sort(mallocs)
		t.Logf("%s: median %d B, %d allocations per run", c.name, bytes[len(bytes)/2], mallocs[len(mallocs)/2])
		if median := bytes[len(bytes)/2]; median >= 64<<10 {
			t.Errorf("%s: steady-state run allocates %d B (median of %d; all: %v), budget is 64 KiB",
				c.name, median, len(bytes), bytes)
		}
		if median := mallocs[len(mallocs)/2]; median > 8 {
			t.Errorf("%s: steady-state run makes %d allocations (median of %d; all: %v), budget is 8",
				c.name, median, len(mallocs), mallocs)
		}
	}
}
