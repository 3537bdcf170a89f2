package secure

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/resilience"
	"seculator/internal/workload"
)

// The claim that splits a loader run's provisioning between the layer loop
// and the weight loader: whichever side provisions a layer, the run is the
// same.

// forceSplit makes x's runs split at k: the loader tries no claim until the
// loop has claimed layers 0..k-1, and the loop, on reaching layer k, waits
// until the loader has claimed every layer left. The loop's tap also
// records in *off whether it found a layer claimed other than the split
// says: one below k already taken, or one at or past k still free.
func forceSplit(x *Executor, k, layers int, off *atomic.Bool) {
	wait := func(next *atomic.Int32, want int) {
		for deadline := time.Now().Add(10 * time.Second); int(next.Load()) < want; runtime.Gosched() {
			if time.Now().After(deadline) {
				panic(fmt.Sprintf("split %d: the claim counter stuck at %d, waiting for %d", k, next.Load(), want))
			}
		}
	}
	x.claimTap = func(loop bool, layer int, next *atomic.Int32) {
		switch {
		case !loop:
			wait(next, k)
		case layer == k:
			wait(next, layers)
		}
		if free := int(next.Load()) == layer; loop && free != (layer < k) {
			off.Store(true)
		}
	}
}

// TestClaimSplitsMatchUpFront: for Mini and MobileNet/8, at every split k —
// the loop provisions layers below k, the loader the rest — a run equals
// the hooked (up-front) run on output, OutputMAC, every per-layer register
// snapshot, Counts, Hashing and the pad totals, and pads as many lines
// ahead as an unforced loader run does.
func TestClaimSplitsMatchUpFront(t *testing.T) {
	for _, net := range []workload.Network{resolveShape(t, "Mini"), resolveShape(t, "MobileNet/8")} {
		in, ws := nn.RandomModel(net, 9)
		hooked := NewExecutor()
		hooked.AfterPhase = func(int, *mem.DRAM) {}
		base := runStages(t, hooked, net, in, ws)
		ahead := runStages(t, NewExecutor(), net, in, ws).pads.Ahead
		if ahead == 0 || base.pads.Ahead != 0 {
			t.Fatalf("%s: pads ahead %d on a loader run, %d hooked: want some, and none", net.Name, ahead, base.pads.Ahead)
		}
		n := len(net.Layers)
		for k := 0; k <= n; k++ {
			x := NewExecutor()
			var off atomic.Bool
			forceSplit(x, k, n, &off)
			tag := fmt.Sprintf("%s split %d of %d", net.Name, k, n)
			r := runStages(t, x, net, in, ws)
			if off.Load() {
				t.Fatalf("%s: a layer was claimed by the other side", tag)
			}
			r.mustEqual(t, base, tag)
			if r.pads.Ahead != ahead {
				t.Fatalf("%s: %d pads ahead, an unforced loader run %d", tag, r.pads.Ahead, ahead)
			}
		}
	}
}

// TestOneProcLoopClaimsEveryLayer: on one P the loop never blocks on the
// loader, so the loader — started beside it but never scheduled before
// drain — claims no layer, and the loop provisions every one. Only a
// preemption hands the loader the P early, so the collector is off, and
// each run starts on a fresh time slice (runtime.Gosched): the scheduler
// preempts a goroutine whose slice is 10 ms old, and a goroutine woken
// straight onto its P inherits the slice of the one that woke it — after
// a long chain of such hand-offs, as between tests, one may end in any
// run.
func TestOneProcLoopClaimsEveryLayer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	net := resolveShape(t, "Mini")
	in, ws := nn.RandomModel(net, 1)
	x := NewExecutor()
	for pass := 0; pass < 2; pass++ { // the second rides pooled state
		var loop, loader int
		x.claimTap = func(isLoop bool, layer int, next *atomic.Int32) {
			switch {
			case !isLoop:
				loader++ // read after Run: drain joined the loader
			case int(next.Load()) == layer:
				loop++
			}
		}
		runtime.Gosched()
		if _, err := x.Run(context.Background(), net, in, ws); err != nil {
			t.Fatal(err)
		}
		if loop != len(net.Layers) || loader != 0 {
			t.Fatalf("pass %d: the loop found %d of %d layers unclaimed, the loader tried %d claims",
				pass, loop, len(net.Layers), loader)
		}
	}
}

// TestLoaderPanicSurfacesEitherSide: a panic provisioning the last layer —
// its weights unreadable — leaves Run as a typed InternalError whether the
// loader claimed that layer (its panic crosses to the loop at the token) or
// the loop did (it panics inline), and a clean run follows on the same
// executor.
func TestLoaderPanicSurfacesEitherSide(t *testing.T) {
	net := preloadNet()
	in, ws := nn.RandomModel(net, 9)
	bad := append([]*nn.Weights(nil), ws...)
	last := *ws[len(ws)-1]
	last.Data = nil
	bad[len(bad)-1] = &last
	n := len(net.Layers)
	for _, k := range []int{0, n - 1, n} {
		x := NewExecutor()
		var off atomic.Bool
		forceSplit(x, k, n, &off)
		_, err := x.Run(context.Background(), net, in, bad)
		var ie *resilience.InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("split %d: err = %v, want *resilience.InternalError", k, err)
		}
		if off.Load() {
			t.Fatalf("split %d: a layer was claimed by the other side", k)
		}
		if _, err := x.Run(context.Background(), net, in, ws); err != nil {
			t.Fatalf("split %d: clean run after the panic: %v", k, err)
		}
	}
}
