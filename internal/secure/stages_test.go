package secure

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/protect"
	"seculator/internal/resilience"
	"seculator/internal/workload"
)

// Partial-sum spills (the MAC_R term of Equation 1), which no other tier-1
// test reaches at the default configuration, and the weight loader's
// equivalence and life cycle.

// stageRun is everything about one run that must not depend on when its
// weights load.
type stageRun struct {
	out       *nn.Tensor
	outputMAC mac.Digest
	blocks    int
	regs      []protect.RegisterState // per layer, then the readout epoch
	counts    protect.BlockCounts
	pads      protect.Keystreams
	hashing   protect.Hashing
}

func runStages(t *testing.T, x *Executor, net workload.Network, in *nn.Tensor, ws []*nn.Weights) stageRun {
	t.Helper()
	var r stageRun
	x.OnLayerMACs = func(_ int, regs protect.RegisterState) { r.regs = append(r.regs, regs) }
	res, err := x.Run(context.Background(), net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	r.out, r.outputMAC, r.blocks = res.Output, res.OutputMAC, res.Blocks
	r.counts, r.pads, r.hashing = res.Counts, res.Keystream, res.Hashing
	return r
}

func (r stageRun) mustEqual(t *testing.T, base stageRun, tag string) {
	t.Helper()
	if !r.out.Equal(base.out) {
		t.Fatalf("%s: output differs", tag)
	}
	if r.outputMAC != base.outputMAC {
		t.Fatalf("%s: OutputMAC differs", tag)
	}
	if r.blocks != base.blocks {
		t.Fatalf("%s: %d DRAM lines, want %d", tag, r.blocks, base.blocks)
	}
	if r.counts != base.counts || r.hashing != base.hashing {
		t.Fatalf("%s: counts %+v, hashing %+v; want %+v, %+v", tag, r.counts, r.hashing, base.counts, base.hashing)
	}
	// Pads computed ahead are a loader run's own (hooked runs pad none):
	// the totals must match.
	if r.pads.Computed != base.pads.Computed || r.pads.Reused != base.pads.Reused {
		t.Fatalf("%s: pads %+v, want %+v", tag, r.pads, base.pads)
	}
	if len(r.regs) != len(base.regs) {
		t.Fatalf("%s: %d register snapshots, want %d", tag, len(r.regs), len(base.regs))
	}
	for i := range r.regs {
		if r.regs[i] != base.regs[i] {
			t.Fatalf("%s: layer %d registers differ:\n got %+v\nwant %+v", tag, i, r.regs[i], base.regs[i])
		}
	}
}

// spillNet is one 7x7 convolution that a 2 KiB global buffer cannot hold
// the partial sums of: sched.Map falls to an input-reuse mapping that
// writes partial ofmap tiles and reads them back.
func spillNet() workload.Network {
	return workload.Network{Name: "spill", Layers: []workload.Layer{
		{Name: "c1", Type: workload.Conv, C: 3, H: 12, W: 12, K: 2, R: 7, S: 7, Stride: 1},
	}}
}

func spillExecutor() *Executor {
	x := NewExecutor()
	x.NPU.GlobalBufferBytes = 2048
	return x
}

// partialReadTap watches the layer's own output region between model load
// and the layer's end: a read there is a partial-sum re-read. It counts
// them and, when flip is set, corrupts the first one in flight.
type partialReadTap struct {
	region  Region
	inLayer bool
	flip    bool
	reads   int
}

func (p *partialReadTap) OnRead(addr uint64, data []byte) {
	if !p.inLayer || !p.region.Contains(addr) {
		return
	}
	if p.reads == 0 && p.flip {
		data[5] ^= 0x10
	}
	p.reads++
}

func (p *partialReadTap) OnWrite(uint64, []byte) {}

func (p *partialReadTap) attach(x *Executor) {
	x.Injector = p
	x.OnPlan = func(pi PlanInfo) { p.region = pi.Acts[0] }
	x.AfterPhase = func(phase int, _ *mem.DRAM) { p.inLayer = phase == -1 }
}

// TestPartialSumSpill: with partial sums spilling to DRAM the run still
// equals the plaintext reference.
func TestPartialSumSpill(t *testing.T) {
	net := spillNet()
	in, ws := nn.RandomModel(net, 5)
	golden, err := nn.ForwardNetwork(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}

	tap := &partialReadTap{}
	x := spillExecutor()
	tap.attach(x)
	if _, err := x.Run(context.Background(), net, in, ws); err != nil {
		t.Fatal(err)
	}
	if tap.reads == 0 {
		t.Fatal("the mapping never re-read a partial sum; the test exercises nothing")
	}
	if !runStages(t, spillExecutor(), net, in, ws).out.Equal(golden) {
		t.Fatal("spilling run diverged from the reference")
	}
}

// TestPartialSumTamperDetected: one bit flipped in a partial block between
// its write and its re-read lands in MAC_R and breaks Equation 1, at one
// worker (GOMAXPROCS) and at eight: the verdict may not depend on how many
// Ps the run's goroutines are scheduled over.
func TestPartialSumTamperDetected(t *testing.T) {
	net := spillNet()
	in, ws := nn.RandomModel(net, 5)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			tap := &partialReadTap{flip: true}
			x := spillExecutor()
			x.Retry = resilience.Policy{}
			tap.attach(x)
			_, err := x.Run(context.Background(), net, in, ws)
			if tap.reads == 0 {
				t.Fatal("no partial read to tamper with")
			}
			if !errors.Is(err, mac.ErrIntegrity) {
				t.Fatalf("tampered partial sum: err = %v, want an integrity violation", err)
			}
		})
	}
}

// preloadNet's second layer carries 36 KiB of weights and its third 1 KiB:
// a loader that is still writing the former when the layer loop reaches it,
// and one that finished the latter long before.
func preloadNet() workload.Network {
	return workload.Network{Name: "preload", Layers: []workload.Layer{
		{Name: "c1", Type: workload.Conv, C: 3, H: 6, W: 6, K: 32, R: 3, S: 3, Stride: 1},
		{Name: "c2", Type: workload.Conv, C: 32, H: 6, W: 6, K: 32, R: 3, S: 3, Stride: 1},
		{Name: "pw", Type: workload.Pointwise, C: 32, H: 6, W: 6, K: 8, R: 1, S: 1, Stride: 1},
	}}
}

func resolveShape(t *testing.T, name string) workload.Network {
	t.Helper()
	net, err := workload.ResolveShape(name)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// checkProvisionOverlap compares, per network, a plain run (the loader
// host-writes the model while the layer loop runs) with a run under a no-op
// AfterPhase (everything loaded up front, unpooled state) — since the loader
// engages on every plain run, a hooked run is the one un-overlapped baseline
// left. Each plain run happens twice: the second rides pooled state, the
// loader's shard and staging included.
func checkProvisionOverlap(t *testing.T) {
	for _, net := range []workload.Network{preloadNet(), resolveShape(t, "Mini"), resolveShape(t, "MobileNet/8")} {
		in, ws := nn.RandomModel(net, 9)
		golden, err := nn.ForwardNetwork(net, in, ws)
		if err != nil {
			t.Fatal(err)
		}
		inline := NewExecutor()
		inline.AfterPhase = func(int, *mem.DRAM) {}
		base := runStages(t, inline, net, in, ws)
		if !base.out.Equal(golden) {
			t.Fatalf("%s: up-front run diverged from the reference", net.Name)
		}
		for round := 0; round < 2; round++ {
			x := NewExecutor()
			runStages(t, x, net, in, ws).mustEqual(t, base, fmt.Sprintf("%s round %d, loader vs up-front", net.Name, round))
		}
	}
}

// TestProvisionOverlapMatchesInline: the loader changes when the weights are
// written, never what a run observes — output, OutputMAC, every per-layer
// register snapshot, the DRAM line count, Counts, Hashing and the pad
// totals — on two Ps and on one, where the layer loop, which never waits
// for a loader that has not claimed its layer, provisions the layers
// itself (TestOneProcLoopClaimsEveryLayer).
func TestProvisionOverlapMatchesInline(t *testing.T) {
	checkProvisionOverlap(t)
	t.Run("GOMAXPROCS=1", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		checkProvisionOverlap(t)
	})
}

// TestLoaderPanicSurfaces: a panic on the loader goroutine would kill the
// process; it must cross to the orchestrator and leave Run as a typed
// InternalError — three times in a row, so a run state parked with a dead
// loader's leftovers (a closed channel, a stale panic) would show.
func TestLoaderPanicSurfaces(t *testing.T) {
	net := preloadNet()
	in, ws := nn.RandomModel(net, 9)
	bad := append([]*nn.Weights(nil), ws...)
	last := *ws[len(ws)-1]
	last.Data = nil
	bad[len(bad)-1] = &last
	for round := 0; round < 3; round++ {
		_, err := NewExecutor().Run(context.Background(), net, in, bad)
		var ie *resilience.InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("round %d: err = %v, want *resilience.InternalError", round, err)
		}
	}
	if _, err := NewExecutor().Run(context.Background(), net, in, ws); err != nil {
		t.Fatalf("clean run after three loader panics: %v", err)
	}
}

// TestCancelMidRunJoinsLoader: cancelling between layers 1 and 2 of
// MobileNet/8 leaves most of the model unloaded. Run must stop the loader
// and join it before returning — no goroutine left, nothing still writing
// into the parked DRAM — and the next run on that pooled state must produce
// the OutputMAC the root package's TestOutputMACPinned holds.
func TestCancelMidRunJoinsLoader(t *testing.T) {
	const pinned = "94b5bd3f7b1fbbf5c96e74dc4769581a0f686c81af064355cca58331e269ea01"
	net := resolveShape(t, "MobileNet/8")
	in, ws := nn.RandomModel(net, 1)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	x := NewExecutor()
	x.OnLayerMACs = func(phase int, _ protect.RegisterState) {
		if phase == 1 {
			cancel()
		}
	}
	if _, err := x.Run(ctx, net, in, ws); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The join is the loader's close of its channel, its last act; the
	// runtime may take a moment longer to retire the goroutine.
	for wait := 0; runtime.NumGoroutine() > before; wait++ {
		if wait == 1000 {
			t.Fatalf("%d goroutines after a cancelled run, %d before: the loader was not joined", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}

	x.OnLayerMACs = nil
	res, err := x.Run(context.Background(), net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", res.OutputMAC[:]); got != pinned || res.Blocks != 7997 {
		t.Fatalf("run after a cancelled one: Blocks %d OutputMAC %s, want 7997 %s", res.Blocks, got, pinned)
	}
}

// TestCancelWithPadsAheadLeavesNothing: cancelling a pooled MobileNet/8 run
// after layer 3, once the loader has claimed every later layer, stored its
// weights and padded its output lines — pads no store took — must leave nothing
// behind in the parked state: the next run on it matches a fresh state's
// output, OutputMAC, Counts and Keystream. The test finds the state both
// runs ride by taking it out of the pool and putting it back; the race
// detector's pool drops some of what is Put, so a round whose runs did not
// both ride it is run again.
func TestCancelWithPadsAheadLeavesNothing(t *testing.T) {
	net := resolveShape(t, "MobileNet/8")
	in, ws := nn.RandomModel(net, 1)
	runPoolingOff.Store(true)
	fresh, err := NewExecutor().Run(context.Background(), net, in, ws)
	runPoolingOff.Store(false)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Keystream.Ahead == 0 {
		t.Fatal("a fresh run padded nothing ahead: the test sees nothing")
	}
	for round := 0; round < 20; round++ {
		x := NewExecutor()
		if _, err := x.Run(context.Background(), net, in, ws); err != nil {
			t.Fatal(err)
		}
		v := runPool.Get()
		if v == nil {
			continue
		}
		rs := v.(*runState)
		runPool.Put(rs)

		ctx, cancel := context.WithCancel(context.Background())
		rode, padded := false, false
		x.OnLayerMACs = func(phase int, _ protect.RegisterState) {
			if phase != 3 {
				return
			}
			cancel()
			// Only the run riding rs set its channel, on this goroutine.
			p := &rs.rt.preload
			ready := p.ready
			if rode = ready != nil; !rode {
				return
			}
			// The loop, held here, claimed no layer past 3: the loader
			// claims every later one, and has provisioned them all once the
			// claim counter is past the last layer and it has sent one token
			// for each of those layers.
			n := len(net.Layers)
			done := func() bool { return int(p.next.Load()) == n && len(ready) == n-4 }
			for deadline := time.Now().Add(10 * time.Second); !done() && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			padded = done()
		}
		_, err := x.Run(ctx, net, in, ws)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if rode && !padded {
			t.Fatal("the loader never finished padding ahead while the loop waited")
		}
		again := false
		x.OnLayerMACs = func(phase int, _ protect.RegisterState) {
			if phase == 0 {
				again = rs.rt.preload.ready != nil
			}
		}
		res, err := x.Run(context.Background(), net, in, ws)
		if err != nil {
			t.Fatal(err)
		}
		if !rode || !again {
			continue
		}
		if !res.Output.Equal(fresh.Output) || res.OutputMAC != fresh.OutputMAC ||
			res.Counts != fresh.Counts || res.Keystream != fresh.Keystream {
			t.Fatalf("after a cancelled run: OutputMAC %v, %+v, pads %+v; a fresh state's %v, %+v, pads %+v",
				res.OutputMAC, res.Counts, res.Keystream, fresh.OutputMAC, fresh.Counts, fresh.Keystream)
		}
		return
	}
	if raceEnabled {
		t.Skip("the race detector's pool never handed one state to both runs")
	}
	t.Fatal("the pool never handed one state to both runs")
}
