package secure

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/protect"
	"seculator/internal/resilience"
	"seculator/internal/tensor"
	"seculator/internal/workload"
)

// The two executor paths no other tier-1 test reaches at the default
// configuration: partial-sum spills (the MAC_R term of Equation 1) and the
// overlapped weight preload, the one background stage.

// stageRun is everything about one run that must not depend on the worker
// count.
type stageRun struct {
	out       *nn.Tensor
	outputMAC mac.Digest
	regs      []protect.RegisterState // per layer, then the readout epoch
}

func runStages(t *testing.T, x *Executor, net workload.Network, in *nn.Tensor, ws []*nn.Weights) stageRun {
	t.Helper()
	var r stageRun
	x.OnLayerMACs = func(_ int, regs protect.RegisterState) { r.regs = append(r.regs, regs) }
	res, err := x.Run(context.Background(), net, in, ws)
	if err != nil {
		t.Fatalf("workers=%d: %v", x.Parallel, err)
	}
	r.out, r.outputMAC = res.Output, res.OutputMAC
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

func spillExecutor(workers int) *Executor {
	x := NewExecutor()
	x.NPU.GlobalBufferBytes = 2048
	x.Parallel = workers
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
// equals the plaintext reference, and outputs, OutputMAC and every register
// snapshot are the same at 1 and 8 workers.
func TestPartialSumSpill(t *testing.T) {
	net := spillNet()
	in, ws := nn.RandomModel(net, 5)
	golden, err := nn.ForwardNetwork(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}

	tap := &partialReadTap{}
	x := spillExecutor(1)
	tap.attach(x)
	if _, err := x.Run(context.Background(), net, in, ws); err != nil {
		t.Fatal(err)
	}
	if tap.reads == 0 {
		t.Fatal("the mapping never re-read a partial sum; the test exercises nothing")
	}

	serial := runStages(t, spillExecutor(1), net, in, ws)
	if !serial.out.Equal(golden) {
		t.Fatal("spilling run diverged from the reference")
	}
	runStages(t, spillExecutor(8), net, in, ws).mustEqual(t, serial, "workers=8 vs 1")
}

// TestPartialSumTamperDetected: one bit flipped in a partial block between
// its write and its re-read lands in MAC_R and breaks Equation 1.
func TestPartialSumTamperDetected(t *testing.T) {
	net := spillNet()
	in, ws := nn.RandomModel(net, 5)
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			tap := &partialReadTap{flip: true}
			x := spillExecutor(workers)
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

// preloadNet's second layer carries 36 KiB of weights — over minStageBytes,
// so at more than one worker it loads on the pool while the first layer
// executes; the third is far below it and loads inline after the join.
func preloadNet() workload.Network {
	return workload.Network{Name: "preload", Layers: []workload.Layer{
		{Name: "c1", Type: workload.Conv, C: 3, H: 6, W: 6, K: 32, R: 3, S: 3, Stride: 1},
		{Name: "c2", Type: workload.Conv, C: 32, H: 6, W: 6, K: 32, R: 3, S: 3, Stride: 1},
		{Name: "pw", Type: workload.Pointwise, C: 32, H: 6, W: 6, K: 8, R: 1, S: 1, Stride: 1},
	}}
}

// TestPreloadOverlapMatchesSerial runs the overlapped weight preload with
// no environment variable: bit-equal to serial in outputs, OutputMAC and
// every per-layer register snapshot.
func TestPreloadOverlapMatchesSerial(t *testing.T) {
	net := preloadNet()
	in, ws := nn.RandomModel(net, 9)
	golden, err := nn.ForwardNetwork(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}

	states, _, _, err := NewExecutor().plan(net, ws)
	if err != nil {
		t.Fatal(err)
	}
	if got := states[1].wl.blocks() * tensor.BlockBytes; got < minStageBytes {
		t.Fatalf("layer 1 weights are %d B, under the %d B preload cutover; the test exercises nothing", got, minStageBytes)
	}
	if got := states[2].wl.blocks() * tensor.BlockBytes; got >= minStageBytes {
		t.Fatalf("layer 2 weights are %d B, want under the %d B cutover (the inline-load branch)", got, minStageBytes)
	}

	serial := NewExecutor()
	serial.Parallel = 1
	base := runStages(t, serial, net, in, ws)
	if !base.out.Equal(golden) {
		t.Fatal("serial run diverged from the reference")
	}
	// Twice: the second run rides pooled state, preload scratch included.
	for round := 0; round < 2; round++ {
		x := NewExecutor()
		x.Parallel = 8
		runStages(t, x, net, in, ws).mustEqual(t, base, fmt.Sprintf("workers=8 round %d vs serial", round))
	}
}
