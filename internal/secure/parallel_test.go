// Serial/parallel equivalence acceptance tests for the intra-inference
// crypto pipeline: sharded execution must be observationally identical to
// serial — same output tensor, same XOR-MAC digests, same block count —
// and detection/recovery must keep working above one worker. External test
// package like recovery_test.go, so the fault-injection helpers are shared.
package secure_test

import (
	"context"
	"errors"
	"testing"

	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/secure"
	"seculator/internal/workload"
)

// pipeNet exercises every layer type through the parallel pipeline: conv
// (same pad), pool (valid), depthwise, pointwise, and a flattening FC —
// the FC's repeated-block reads stress the run-sharded flat read path.
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

// TestParallelMatchesSerial is the tentpole's acceptance test: for worker
// counts 1, 2 and 8, the output tensor, the final-output XOR-MAC and the
// block count must be bit-identical — the commutative fold makes shard
// interleaving unobservable.
func TestParallelMatchesSerial(t *testing.T) {
	for _, net := range []workload.Network{pipeNet(), twoConvNet()} {
		in, ws, golden := modelAndGolden(t, net, 11)

		serial := secure.NewExecutor()
		serial.Parallel = 1
		base, err := serial.Run(context.Background(), net, in, ws)
		if err != nil {
			t.Fatalf("%s serial: %v", net.Name, err)
		}
		if !base.Output.Equal(golden) {
			t.Fatalf("%s serial diverged from reference", net.Name)
		}
		if base.OutputMAC == (mac.Digest{}) {
			t.Fatalf("%s: zero OutputMAC", net.Name)
		}

		for _, w := range []int{2, 8} {
			x := secure.NewExecutor()
			x.Parallel = w
			res, err := x.Run(context.Background(), net, in, ws)
			if err != nil {
				t.Fatalf("%s w=%d: %v", net.Name, w, err)
			}
			if !res.Output.Equal(base.Output) {
				t.Fatalf("%s w=%d: output differs from serial", net.Name, w)
			}
			if res.OutputMAC != base.OutputMAC {
				t.Fatalf("%s w=%d: OutputMAC %x, serial %x", net.Name, w, res.OutputMAC, base.OutputMAC)
			}
			if res.Blocks != base.Blocks {
				t.Fatalf("%s w=%d: %d blocks, serial %d", net.Name, w, res.Blocks, base.Blocks)
			}
		}
	}
}

// TestParallelSeeds: the equivalence is not an artifact of one weight draw.
func TestParallelSeeds(t *testing.T) {
	net := twoConvNet()
	for seed := int64(1); seed <= 4; seed++ {
		in, ws, golden := modelAndGolden(t, net, seed)
		x := secure.NewExecutor()
		x.Parallel = 8
		res, err := x.Run(context.Background(), net, in, ws)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Output.Equal(golden) {
			t.Fatalf("seed %d diverged at 8 workers", seed)
		}
	}
}

// TestParallelTamperDetected: an activation tampered between layers must
// still break Equation 1 when the consuming layer's reads are sharded.
func TestParallelTamperDetected(t *testing.T) {
	net := pipeNet()
	in, ws := nn.RandomModel(net, 42)
	x := secure.NewExecutor()
	x.Parallel = 8
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
	_, err := x.Run(context.Background(), net, in, ws)
	if !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("tamper not detected at 8 workers: %v", err)
	}
}

// TestParallelInputTamperDetected: the golden input check must hold with
// the sharded input load.
func TestParallelInputTamperDetected(t *testing.T) {
	net := pipeNet()
	in, ws := nn.RandomModel(net, 42)
	x := secure.NewExecutor()
	x.Parallel = 8
	x.AfterPhase = func(phase int, d *mem.DRAM) {
		if phase == -1 {
			d.Tamper(0, 0, 0x01)
		}
	}
	_, err := x.Run(context.Background(), net, in, ws)
	if !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("input tamper not detected at 8 workers: %v", err)
	}
}

// TestParallelSingleBitFlipRecovered: layer-level detect-and-recover must
// survive sharding — the injector is serialized behind the runtime's lock,
// the corrupted layer re-executes, and the output matches the reference.
func TestParallelSingleBitFlipRecovered(t *testing.T) {
	net := twoConvNet()
	in, ws, golden := modelAndGolden(t, net, 3)

	inj := &armedFlip{}
	x := secure.NewExecutor()
	x.Parallel = 8
	x.Injector = inj
	x.AfterPhase = func(phase int, _ *mem.DRAM) {
		if phase == 0 {
			inj.Arm()
		}
	}
	res, err := x.Run(context.Background(), net, in, ws)
	if err != nil {
		t.Fatalf("recoverable transient aborted the parallel run: %v", err)
	}
	if !inj.fired {
		t.Fatal("injector never fired; test exercised nothing")
	}
	if res.Recovery.Recovered != 1 {
		t.Fatalf("recovery stats %+v, want one recovered layer", res.Recovery)
	}
	if !res.Output.Equal(golden) {
		t.Fatal("recovered parallel output differs from the reference")
	}
}
