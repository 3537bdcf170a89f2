// Acceptance tests for the verify-once-then-resident weight cache: a
// resident run must be observationally identical to per-request
// provisioning — output, output MAC, every per-layer register snapshot,
// and the DRAM block count — tampered pinned state must fail the epoch
// check, and the attack-instrumentation guards must keep the detection
// surface intact.
package secure_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/protect"
	"seculator/internal/runner"
	"seculator/internal/secure"
	"seculator/internal/workload"
)

func buildResidency(t *testing.T, net workload.Network, ws []*nn.Weights) *secure.WeightResidency {
	t.Helper()
	cfg := runner.DefaultConfig()
	res, err := secure.BuildWeightResidency(context.Background(), net, cfg.NPU, cfg.DRAM,
		secure.DefaultSecret, secure.DefaultRandom, ws)
	if err != nil {
		t.Fatalf("BuildWeightResidency: %v", err)
	}
	return res
}

// TestResidencyMatchesNonResident: attaching to the pinned weights must be
// bit-identical to host-side provisioning — the skipped weight reads never
// folded MAC registers in the first place (ReadStatic), so every observable
// matches, including the per-layer register snapshots the conformance
// oracles compare.
func TestResidencyMatchesNonResident(t *testing.T) {
	for _, net := range []workload.Network{pipeNet(), twoConvNet()} {
		in, ws, golden := modelAndGolden(t, net, 17)
		cfg := runner.DefaultConfig()

		base := secure.NewExecutor()
		base.NPU, base.DRAM = cfg.NPU, cfg.DRAM
		var baseRegs []protect.RegisterState
		base.OnLayerMACs = func(_ int, regs protect.RegisterState) { baseRegs = append(baseRegs, regs) }
		want, err := base.Run(context.Background(), net, in, ws)
		if err != nil {
			t.Fatalf("%s non-resident: %v", net.Name, err)
		}
		if !want.Output.Equal(golden) {
			t.Fatalf("%s: non-resident run diverged from reference", net.Name)
		}

		res := buildResidency(t, net, ws)
		x := secure.NewExecutor()
		x.NPU, x.DRAM = cfg.NPU, cfg.DRAM
		x.Residency = res
		var regs []protect.RegisterState
		x.OnLayerMACs = func(_ int, r protect.RegisterState) { regs = append(regs, r) }
		got, err := x.Run(context.Background(), net, in, ws)
		if err != nil {
			t.Fatalf("%s resident: %v", net.Name, err)
		}
		if !got.Output.Equal(want.Output) {
			t.Fatalf("%s: resident output differs", net.Name)
		}
		if got.OutputMAC != want.OutputMAC {
			t.Fatalf("%s: resident OutputMAC %x, want %x", net.Name, got.OutputMAC, want.OutputMAC)
		}
		if got.Blocks != want.Blocks {
			t.Fatalf("%s: resident %d blocks, want %d", net.Name, got.Blocks, want.Blocks)
		}
		if len(regs) != len(baseRegs) {
			t.Fatalf("%s: %d register snapshots, want %d", net.Name, len(regs), len(baseRegs))
		}
		for i := range regs {
			if regs[i] != baseRegs[i] {
				t.Fatalf("%s: register snapshot %d differs under residency", net.Name, i)
			}
		}
	}
}

// TestResidencyVerify: a clean pin passes its epoch check; a single flipped
// bit of a pinned weight value fails it with the integrity class.
func TestResidencyVerify(t *testing.T) {
	net := pipeNet()
	_, ws := nn.RandomModel(net, 5)
	res := buildResidency(t, net, ws)
	if err := res.Verify(); err != nil {
		t.Fatalf("clean residency failed its epoch check: %v", err)
	}
	res.Weights()[0].Data[7] ^= 1
	if err := res.Verify(); !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("tampered residency passed the epoch check: %v", err)
	}
}

// TestResidencyVerifyCoversWeightValues: the epoch check covers the values
// a resident run computes from. For every weighted layer of Mini and
// MobileNet/8, one flipped value of the pinned tensor fails Verify with the
// integrity class, naming that layer, and flipping it back passes again.
func TestResidencyVerifyCoversWeightValues(t *testing.T) {
	for _, shape := range []string{"Mini", "MobileNet/8"} {
		net, err := workload.ResolveShape(shape)
		if err != nil {
			t.Fatal(err)
		}
		_, ws := nn.RandomModel(net, 2)
		res := buildResidency(t, net, ws)
		rng := rand.New(rand.NewSource(49))
		layers := 0
		for i, w := range res.Weights() {
			if w == nil {
				continue
			}
			at, bit := rng.Intn(len(w.Data)), int32(1)<<rng.Intn(32)
			w.Data[at] ^= bit
			err := res.Verify()
			if !errors.Is(err, mac.ErrIntegrity) || !strings.Contains(err.Error(), "\""+net.Layers[i].Name+"\"") {
				t.Fatalf("%s layer %s: weight %d flipped, Verify gave %v", shape, net.Layers[i].Name, at, err)
			}
			w.Data[at] ^= bit
			if err := res.Verify(); err != nil {
				t.Fatalf("%s layer %s: restored weights failed the check: %v", shape, net.Layers[i].Name, err)
			}
			layers++
		}
		if layers == 0 {
			t.Fatalf("%s: no weighted layer: the test checks nothing", shape)
		}
	}
}

// TestResidencyVerifyBesideResidentRuns: resident runs and the epoch check
// share the pinned tensors and only read them, so a check may run beside
// any number of attached runs — under -race this shows neither writes what
// the other reads. Every run matches the reference and every check passes.
func TestResidencyVerifyBesideResidentRuns(t *testing.T) {
	net := pipeNet()
	in, ws, golden := modelAndGolden(t, net, 31)
	res := buildResidency(t, net, ws)
	cfg := runner.DefaultConfig()
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := secure.NewExecutor()
			x.NPU, x.DRAM = cfg.NPU, cfg.DRAM
			x.Residency = res
			for r := 0; r < 3; r++ {
				got, err := x.Run(context.Background(), net, in, res.Weights())
				if err == nil && !got.Output.Equal(golden) {
					err = errors.New("resident run diverged from reference")
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 5; r++ {
			if err := res.Verify(); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestResidencyHookGuard: with a DRAM phase hook installed the executor
// must refuse the resident fast path — otherwise a weight tamper the hook
// mounts after provisioning would go unread and undetected. The hook
// flips a weight bit at phase -1; detection proves the per-request
// verification path ran despite Residency being set.
func TestResidencyHookGuard(t *testing.T) {
	net := pipeNet()
	in, ws := nn.RandomModel(net, 9)
	res := buildResidency(t, net, ws)
	cfg := runner.DefaultConfig()
	x := secure.NewExecutor()
	x.NPU, x.DRAM = cfg.NPU, cfg.DRAM
	x.Residency = res
	x.AfterPhase = func(phase int, d *mem.DRAM) {
		if phase != -1 {
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
			t.Error("no DRAM line to tamper")
			return
		}
		d.Tamper(last, 3, 0x40)
	}
	if _, err := x.Run(context.Background(), net, in, ws); !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("hooked run with Residency set did not detect the tamper: %v", err)
	}
}

// TestResidencyWeightIdentityGuard: the resident path only engages for the
// exact verified tensors (pointer identity). Equal-valued copies fall back
// to provisioning — and still produce the right answer.
func TestResidencyWeightIdentityGuard(t *testing.T) {
	net := twoConvNet()
	in, ws, golden := modelAndGolden(t, net, 21)
	res := buildResidency(t, net, ws)

	// Same values, different tensors: must not attach, must still be right.
	_, copies := nn.RandomModel(net, 21)
	cfg := runner.DefaultConfig()
	x := secure.NewExecutor()
	x.NPU, x.DRAM = cfg.NPU, cfg.DRAM
	x.Residency = res
	got, err := x.Run(context.Background(), net, in, copies)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Output.Equal(golden) {
		t.Fatal("fallback run diverged from reference")
	}
}
