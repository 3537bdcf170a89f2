// Inline/helper equivalence: a run whose block MACs a borrowed helper hashes
// beside the layer loop must be observationally identical to one whose loop
// hashes them itself — same output tensor, same XOR-MAC registers and fold
// counts, same block counts, same detection verdicts — and must leave the
// helper holding nothing of it. External test package like recovery_test.go,
// so the fault-injection helpers are shared.
package secure_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"
	"weak"

	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/protect"
	"seculator/internal/resilience"
	"seculator/internal/secure"
	"seculator/internal/tensor"
	"seculator/internal/workload"
)

// atProcs runs f at GOMAXPROCS=n. At one P a run borrows no MAC helper and
// its layer loop hashes every block MAC itself (the inline arm); at two or
// more it borrows one (the helper arm). There is no other switch between the
// two: production takes the inline path exactly when no helper is free.
func atProcs(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// armProcs is the GOMAXPROCS of an arm.
func armProcs(helper bool) int {
	if helper {
		return 2
	}
	return 1
}

// pipeNet exercises every layer type: conv (same pad), pool (valid),
// depthwise, pointwise, and a flattening FC — whose repeated-block reads go
// through ReadInputRun.
func pipeNet() workload.Network {
	return workload.Network{
		Name: "pipe",
		Layers: []workload.Layer{
			{Name: "c1", Type: workload.Conv, C: 3, H: 12, W: 12, K: 8, R: 3, S: 3, Stride: 1},
			{Name: "p1", Type: workload.Pool, C: 8, H: 12, W: 12, K: 8, R: 2, S: 2, Stride: 2, Valid: true},
			{Name: "dw", Type: workload.Depthwise, C: 8, H: 6, W: 6, K: 8, R: 3, S: 3, Stride: 1},
			{Name: "pw", Type: workload.Pointwise, C: 8, H: 6, W: 6, K: 16, R: 1, S: 1, Stride: 1},
			{Name: "fc", Type: workload.FC, C: 16 * 6 * 6, H: 1, W: 1, K: 5, R: 1, S: 1, Stride: 1},
		},
	}
}

// runArm runs x in one arm and fails the test unless the run borrowed a
// helper exactly when the arm meant it to.
func runArm(t *testing.T, helper bool, x *secure.Executor, net workload.Network, in *nn.Tensor, ws []*nn.Weights) (secure.Result, error) {
	t.Helper()
	var res secure.Result
	var err error
	atProcs(armProcs(helper), func() { res, err = x.Run(context.Background(), net, in, ws) })
	if res.Hashing.Borrowed != helper {
		t.Fatalf("%s: borrowed a MAC helper = %v in the helper=%v arm", net.Name, res.Hashing.Borrowed, helper)
	}
	return res, err
}

// TestParallelMatchesSerial: a helper-hashed run's output tensor,
// final-output XOR-MAC and block count are bit-identical to an inline run's —
// the commutative fold makes who hashed which MAC unobservable.
func TestParallelMatchesSerial(t *testing.T) {
	for _, net := range []workload.Network{pipeNet(), twoConvNet()} {
		in, ws, golden := modelAndGolden(t, net, 11)
		base, err := runArm(t, false, secure.NewExecutor(), net, in, ws)
		if err != nil {
			t.Fatalf("%s inline: %v", net.Name, err)
		}
		if !base.Output.Equal(golden) {
			t.Fatalf("%s inline diverged from reference", net.Name)
		}
		if base.OutputMAC == (mac.Digest{}) {
			t.Fatalf("%s: zero OutputMAC", net.Name)
		}
		res, err := runArm(t, true, secure.NewExecutor(), net, in, ws)
		if err != nil {
			t.Fatalf("%s helper: %v", net.Name, err)
		}
		if !res.Output.Equal(base.Output) || res.OutputMAC != base.OutputMAC || res.Blocks != base.Blocks {
			t.Fatalf("%s: helper run (OutputMAC %x, %d blocks) differs from inline (%x, %d)",
				net.Name, res.OutputMAC, res.Blocks, base.OutputMAC, base.Blocks)
		}
	}
}

// TestParallelSeeds: the equivalence is not an artifact of one weight draw.
func TestParallelSeeds(t *testing.T) {
	net := twoConvNet()
	for seed := int64(1); seed <= 4; seed++ {
		in, ws, golden := modelAndGolden(t, net, seed)
		res, err := runArm(t, true, secure.NewExecutor(), net, in, ws)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Output.Equal(golden) {
			t.Fatalf("seed %d diverged with a helper", seed)
		}
	}
}

// TestParallelTamperDetected: an activation tampered between layers must
// still break Equation 1 when a helper hashes the consuming layer's reads.
func TestParallelTamperDetected(t *testing.T) {
	net := pipeNet()
	in, ws := nn.RandomModel(net, 42)
	x := secure.NewExecutor()
	x.AfterPhase = func(phase int, d *mem.DRAM) {
		if phase != 1 {
			return
		}
		var last uint64
		found := false
		for addr := uint64(0); addr < 100000; addr++ {
			if d.Peek(addr) != nil {
				last, found = addr, true
			}
		}
		if !found {
			t.Fatal("no DRAM line to tamper")
		}
		d.Tamper(last, 5, 0x80)
	}
	if _, err := runArm(t, true, x, net, in, ws); !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("tamper not detected with a helper: %v", err)
	}
}

// TestParallelInputTamperDetected: the golden input check must hold with a
// helper hashing layer 0's reads.
func TestParallelInputTamperDetected(t *testing.T) {
	net := pipeNet()
	in, ws := nn.RandomModel(net, 42)
	x := secure.NewExecutor()
	x.AfterPhase = func(phase int, d *mem.DRAM) {
		if phase == -1 {
			d.Tamper(0, 0, 0x01)
		}
	}
	if _, err := runArm(t, true, x, net, in, ws); !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("input tamper not detected with a helper: %v", err)
	}
}

// TestParallelSingleBitFlipRecovered: layer-level detect-and-recover must
// survive a helper — the corrupted layer re-executes, and the output matches
// the reference.
func TestParallelSingleBitFlipRecovered(t *testing.T) {
	net := twoConvNet()
	in, ws, golden := modelAndGolden(t, net, 3)

	inj := &armedFlip{}
	x := secure.NewExecutor()
	x.Injector = inj
	x.AfterPhase = func(phase int, _ *mem.DRAM) {
		if phase == 0 {
			inj.Arm()
		}
	}
	res, err := runArm(t, true, x, net, in, ws)
	if err != nil {
		t.Fatalf("recoverable transient aborted the helper run: %v", err)
	}
	if !inj.fired {
		t.Fatal("injector never fired; test exercised nothing")
	}
	if res.Recovery.Recovered != 1 {
		t.Fatalf("recovery stats %+v, want one recovered layer", res.Recovery)
	}
	if !res.Output.Equal(golden) {
		t.Fatal("recovered helper output differs from the reference")
	}
}

// flipTap flips one bit of one read inside the regions it watches: the first
// read that is the nth of its line (1: a first read, 2: a first repeat).
// Once — a layer retry re-fetches clean data — unless persistent, when every
// later read of that line arrives flipped too.
type flipTap struct {
	regions    []secure.Region
	nth        int
	persistent bool
	seen       map[uint64]int
	line       uint64
	flips      int
}

func (p *flipTap) OnRead(addr uint64, data []byte) {
	for _, r := range p.regions {
		if !r.Contains(addr) {
			continue
		}
		p.seen[addr]++
		if (p.flips == 0 && p.seen[addr] == p.nth) || (p.flips > 0 && p.persistent && addr == p.line) {
			p.line = addr
			data[3] ^= 0x40
			p.flips++
		}
		return
	}
}

func (p *flipTap) OnWrite(uint64, []byte) {}

// armRun is everything one arm of the differential observes.
type armRun struct {
	res   secure.Result
	err   error
	regs  []protect.RegisterState
	flips int
}

// TestHelperMatchesInline is the helper's differential: three networks —
// Mini; Mini through a 2 KiB global buffer (184 repeat weight reads, 1,776
// repeat ifmap reads); MobileNet/8 — each run inline (one P) and with a
// borrowed helper, must agree on output, OutputMAC, every per-phase register
// snapshot (values and fold counts), Counts and Recovery, clean and under
// four injected flips:
//
//	first weight read  — detected, the layer recovered by one retry whose
//	                     registers are those of a clean run: no MAC the
//	                     failed attempt queued lands in the retry's bank;
//	first repeat weight read — the same (Mini at 2 KiB; TestRepeatWeightRead-
//	                     TamperDetected is the hand-written case);
//	first repeat ifmap read  — harmless, folded into MAC_IR alike;
//	persistent flip    — the same typed error at the same layer, breached.
//
// A clean helper run also hashes exactly the MACs the inline run hashed,
// loop and helper together.
func TestHelperMatchesInline(t *testing.T) {
	type netCase struct {
		name, shape string
		buffer      int
	}
	nets := []netCase{{"Mini", "Mini", 0}, {"Mini/2KiB", "Mini", 2048}, {"MobileNet/8", "MobileNet/8", 0}}
	acts := func(pi secure.PlanInfo) []secure.Region { return append([]secure.Region{pi.Input}, pi.Acts...) }
	laterWeights := func(pi secure.PlanInfo) []secure.Region { return pi.Weights[1:] }
	allWeights := func(pi secure.PlanInfo) []secure.Region { return pi.Weights }
	const (
		recovered = iota // detected, one layer retried clean
		harmless         // no error, nothing retried
		breached         // detected on every attempt
	)
	flips := []struct {
		name       string
		nets       []string
		pick       func(secure.PlanInfo) []secure.Region
		nth        int
		persistent bool
		want       int
	}{
		{"first weight read", []string{"Mini", "Mini/2KiB", "MobileNet/8"}, laterWeights, 1, false, recovered},
		{"first repeat weight read", []string{"Mini/2KiB"}, allWeights, 2, false, recovered},
		{"first repeat ifmap read", []string{"Mini", "Mini/2KiB"}, acts, 2, false, harmless},
		{"persistent", []string{"Mini", "Mini/2KiB", "MobileNet/8"}, laterWeights, 1, true, breached},
	}
	for _, nc := range nets {
		net, err := workload.ResolveShape(nc.shape)
		if err != nil {
			t.Fatal(err)
		}
		in, ws, golden := modelAndGolden(t, net, 1)
		run := func(helper bool, tap *flipTap, pick func(secure.PlanInfo) []secure.Region) armRun {
			t.Helper()
			x := secure.NewExecutor()
			if nc.buffer != 0 {
				x.NPU.GlobalBufferBytes = nc.buffer
			}
			var a armRun
			x.OnLayerMACs = func(_ int, r protect.RegisterState) { a.regs = append(a.regs, r) }
			if tap != nil {
				x.Injector = tap
				x.OnPlan = func(pi secure.PlanInfo) { tap.regions = pick(pi) }
			}
			a.res, a.err = runArm(t, helper, x, net, in, ws)
			if tap != nil {
				a.flips = tap.flips
			}
			return a
		}
		same := func(tag string, got, want armRun) {
			t.Helper()
			if (got.err == nil) != (want.err == nil) {
				t.Fatalf("%s: err %v, inline %v", tag, got.err, want.err)
			}
			if got.err == nil && (!got.res.Output.Equal(want.res.Output) || got.res.OutputMAC != want.res.OutputMAC) {
				t.Fatalf("%s: output or OutputMAC differs", tag)
			}
			if got.res.Counts != want.res.Counts || got.res.Recovery != want.res.Recovery || got.flips != want.flips {
				t.Fatalf("%s: counts %+v recovery %+v flips %d, inline %+v %+v %d", tag,
					got.res.Counts, got.res.Recovery, got.flips, want.res.Counts, want.res.Recovery, want.flips)
			}
			if len(got.regs) != len(want.regs) {
				t.Fatalf("%s: %d register snapshots, inline %d", tag, len(got.regs), len(want.regs))
			}
			for i := range want.regs {
				if got.regs[i] != want.regs[i] {
					t.Fatalf("%s: phase %d registers\n got %+v\nwant %+v", tag, i, got.regs[i], want.regs[i])
				}
			}
		}

		clean := run(false, nil, nil)
		if clean.err != nil || !clean.res.Output.Equal(golden) {
			t.Fatalf("%s inline: err = %v, want a clean run equal to the reference", nc.name, clean.err)
		}
		helped := run(true, nil, nil)
		same(nc.name+" clean", helped, clean)
		if h := helped.res.Hashing; h.Loop+h.Helper != clean.res.Hashing.Loop || clean.res.Hashing.Helper != 0 {
			t.Fatalf("%s: helper run hashed %+v, inline %+v", nc.name, h, clean.res.Hashing)
		}
		t.Logf("%s: %d block MACs, %d of them on the helper", nc.name, clean.res.Hashing.Loop, helped.res.Hashing.Helper)

		for _, f := range flips {
			applies := false
			for _, n := range f.nets {
				applies = applies || n == nc.name
			}
			if !applies {
				continue
			}
			tag := nc.name + ", " + f.name
			newTap := func() *flipTap { return &flipTap{nth: f.nth, persistent: f.persistent, seen: map[uint64]int{}} }
			inline := run(false, newTap(), f.pick)
			if inline.flips == 0 {
				t.Fatalf("%s: the tap never fired; the case exercises nothing", tag)
			}
			same(tag+", helper vs inline", run(true, newTap(), f.pick), inline)

			switch f.want {
			case breached:
				var ie *resilience.IntegrityError
				if !errors.As(inline.err, &ie) || !ie.Persistent || ie.Tensor != resilience.ClassWeight || !inline.res.Recovery.Breached {
					t.Fatalf("%s: err = %v, recovery %+v; want a persistent weight IntegrityError, breached", tag, inline.err, inline.res.Recovery)
				}
			case harmless:
				if inline.err != nil || inline.res.Recovery != (resilience.Stats{}) || !inline.res.Output.Equal(golden) {
					t.Fatalf("%s: err = %v, recovery %+v; want a clean run equal to the reference", tag, inline.err, inline.res.Recovery)
				}
			case recovered:
				if inline.err != nil || inline.res.Recovery != (resilience.Stats{Retries: 1, Recovered: 1}) || !inline.res.Output.Equal(golden) {
					t.Fatalf("%s: err = %v, recovery %+v; want one layer recovered by one retry", tag, inline.err, inline.res.Recovery)
				}
				if !slices.Equal(inline.regs, clean.regs) || inline.res.OutputMAC != clean.res.OutputMAC {
					t.Fatalf("%s: the retried run's registers differ from a clean run's", tag)
				}
			}
		}
	}
}

// TestHelperKeepsNoRunState: a MAC helper outlives every run that borrows
// it, so it must hold nothing of one. An unpooled run's DRAM image — which
// its memory, shards and runtime all reach — is collected once Run returns,
// while the helper it borrowed lives on. So is its keystream memo, which
// only the memory and the jobs of its queued final writes point into: the
// live heap after an unpooled MobileNet/8 run, whose memo holds at least the
// 64-byte pad of each of its 7,997 lines, is what it was before the run.
func TestHelperKeepsNoRunState(t *testing.T) {
	deep, err := workload.ResolveShape("MobileNet/8")
	if err != nil {
		t.Fatal(err)
	}
	din, dws := nn.RandomModel(deep, 5)
	hooked := secure.NewExecutor()
	hooked.AfterPhase = func(int, *mem.DRAM) {}
	if _, err := runArm(t, true, hooked, deep, din, dws); err != nil { // caches the mappings, starts the helper
		t.Fatal(err)
	}

	net := pipeNet()
	in, ws := nn.RandomModel(net, 5)
	var dram weak.Pointer[mem.DRAM]
	x := secure.NewExecutor()
	x.AfterPhase = func(phase int, d *mem.DRAM) {
		if phase == -1 {
			dram = weak.Make(d)
		}
	}
	if _, err := runArm(t, true, x, net, in, ws); err != nil {
		t.Fatal(err)
	}
	for gc := 0; dram.Value() != nil; gc++ {
		if gc == 20 {
			t.Fatal("the run's state is still reachable after Run returned")
		}
		runtime.GC()
	}
	if protect.Helpers() == 0 {
		t.Fatal("no MAC helper outlived the run")
	}

	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	res, err := runArm(t, true, hooked, deep, din, dws)
	if err != nil {
		t.Fatal(err)
	}
	if grew, pads := live()-before, int64(res.Blocks*tensor.BlockBytes); grew > pads/2 {
		t.Fatalf("the live heap grew %d bytes over an unpooled run whose memo holds %d bytes of pads", grew, pads)
	}
}
