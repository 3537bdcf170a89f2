// Tampering caught on pipeNet, the network that exercises every layer type,
// and on the shipped shapes under injected flips, and what an unpooled run
// leaves behind. External test package like recovery_test.go, so the
// fault-injection helpers are shared.
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

// TestTamperDetected: an activation tampered between layers must break
// Equation 1 when the consuming layer's reads fold it.
func TestTamperDetected(t *testing.T) {
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
	if _, err := x.Run(context.Background(), net, in, ws); !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("tamper not detected: %v", err)
	}
}

// TestInputTamperDetected: the golden input check must catch a model input
// tampered after load, through layer 0's reads.
func TestInputTamperDetected(t *testing.T) {
	net := pipeNet()
	in, ws := nn.RandomModel(net, 42)
	x := secure.NewExecutor()
	x.AfterPhase = func(phase int, d *mem.DRAM) {
		if phase == -1 {
			d.Tamper(0, 0, 0x01)
		}
	}
	if _, err := x.Run(context.Background(), net, in, ws); !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("input tamper not detected: %v", err)
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

// TestInjectedFlipVerdicts: three networks — Mini; Mini through a 2 KiB
// global buffer (184 repeat weight reads, 1,776 repeat ifmap reads);
// MobileNet/8 — under four injected flips:
//
//	first weight read  — detected, the layer recovered by one retry whose
//	                     registers are those of a clean run: no MAC the
//	                     failed attempt folded lands in the retry's bank;
//	first repeat weight read — the same (Mini at 2 KiB);
//	first repeat ifmap read  — harmless, folded into MAC_IR only;
//	persistent flip    — a persistent weight IntegrityError, breached.
func TestInjectedFlipVerdicts(t *testing.T) {
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
		run := func(tap *flipTap, pick func(secure.PlanInfo) []secure.Region) (secure.Result, []protect.RegisterState, error) {
			x := secure.NewExecutor()
			if nc.buffer != 0 {
				x.NPU.GlobalBufferBytes = nc.buffer
			}
			var regs []protect.RegisterState
			x.OnLayerMACs = func(_ int, r protect.RegisterState) { regs = append(regs, r) }
			if tap != nil {
				x.Injector = tap
				x.OnPlan = func(pi secure.PlanInfo) { tap.regions = pick(pi) }
			}
			res, err := x.Run(context.Background(), net, in, ws)
			return res, regs, err
		}

		clean, cleanRegs, err := run(nil, nil)
		if err != nil || !clean.Output.Equal(golden) {
			t.Fatalf("%s: err = %v, want a clean run equal to the reference", nc.name, err)
		}
		for _, f := range flips {
			if !slices.Contains(f.nets, nc.name) {
				continue
			}
			tag := nc.name + ", " + f.name
			tap := &flipTap{nth: f.nth, persistent: f.persistent, seen: map[uint64]int{}}
			res, regs, err := run(tap, f.pick)
			if tap.flips == 0 {
				t.Fatalf("%s: the tap never fired; the case exercises nothing", tag)
			}
			switch f.want {
			case breached:
				var ie *resilience.IntegrityError
				if !errors.As(err, &ie) || !ie.Persistent || ie.Tensor != resilience.ClassWeight || !res.Recovery.Breached {
					t.Fatalf("%s: err = %v, recovery %+v; want a persistent weight IntegrityError, breached", tag, err, res.Recovery)
				}
			case harmless:
				if err != nil || res.Recovery != (resilience.Stats{}) || !res.Output.Equal(golden) {
					t.Fatalf("%s: err = %v, recovery %+v; want a clean run equal to the reference", tag, err, res.Recovery)
				}
			case recovered:
				if err != nil || res.Recovery != (resilience.Stats{Retries: 1, Recovered: 1}) || !res.Output.Equal(golden) {
					t.Fatalf("%s: err = %v, recovery %+v; want one layer recovered by one retry", tag, err, res.Recovery)
				}
				if !slices.Equal(regs, cleanRegs) || res.OutputMAC != clean.OutputMAC {
					t.Fatalf("%s: the retried run's registers differ from a clean run's", tag)
				}
			}
		}
	}
}

// TestUnpooledRunKeepsNoState: nothing outlives an unpooled run. Its DRAM
// image — which its memory, shards and runtime all reach — is collected once
// Run returns, and so is its keystream memo: the live heap after an unpooled
// MobileNet/8 run, whose memo holds at least the 64-byte pad of each of its
// 7,997 lines, is what it was before the run.
func TestUnpooledRunKeepsNoState(t *testing.T) {
	deep, err := workload.ResolveShape("MobileNet/8")
	if err != nil {
		t.Fatal(err)
	}
	din, dws := nn.RandomModel(deep, 5)
	hooked := secure.NewExecutor()
	hooked.AfterPhase = func(int, *mem.DRAM) {}
	if _, err := hooked.Run(context.Background(), deep, din, dws); err != nil { // caches the mappings
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
	if _, err := x.Run(context.Background(), net, in, ws); err != nil {
		t.Fatal(err)
	}
	for gc := 0; dram.Value() != nil; gc++ {
		if gc == 20 {
			t.Fatal("the run's state is still reachable after Run returned")
		}
		runtime.GC()
	}

	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	res, err := hooked.Run(context.Background(), deep, din, dws)
	if err != nil {
		t.Fatal(err)
	}
	if grew, pads := live()-before, int64(res.Blocks*tensor.BlockBytes); grew > pads/2 {
		t.Fatalf("the live heap grew %d bytes over an unpooled run whose memo holds %d bytes of pads", grew, pads)
	}
}
