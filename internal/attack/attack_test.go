package attack

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/npu"
	"seculator/internal/protect"
	"seculator/internal/sim"
	"seculator/internal/widen"
	"seculator/internal/workload"
)

func TestHonestExecutionVerifies(t *testing.T) {
	if err := RunSeculator(DefaultScenario(), nil, nil); err != nil {
		t.Fatalf("honest execution failed verification: %v", err)
	}
}

func TestDegenerateScenarioRejected(t *testing.T) {
	if err := RunSeculator(Scenario{}, nil, nil); err == nil {
		t.Fatal("degenerate scenario accepted")
	}
	// A negative shape would reserve a wrapped-around line count.
	if _, _, err := Eavesdrop(Scenario{Tiles: -1, BlocksPerTile: 4, Versions: 1}); err == nil {
		t.Fatal("Eavesdrop accepted a negative tile count")
	}
}

// Integrity attack: flip one bit of one ciphertext block in DRAM.
func TestTamperDetected(t *testing.T) {
	err := RunSeculator(DefaultScenario(), nil, func(d *mem.DRAM, l Layout) {
		if !d.Tamper(l.Addr(2, 1), 17, 0x40) {
			t.Fatal("tamper primitive failed")
		}
	})
	if !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("tampering not detected: %v", err)
	}
}

// Replay attack: snapshot version-1 ciphertext mid-layer, restore it after
// the final version was written.
func TestReplayDetected(t *testing.T) {
	var snap []byte
	mid := func(d *mem.DRAM, l Layout) {
		s, ok := d.Snapshot(l.Addr(1, 0))
		if !ok {
			t.Fatal("snapshot failed")
		}
		snap = s
	}
	mutate := func(d *mem.DRAM, l Layout) {
		if !d.Restore(l.Addr(1, 0), snap) {
			t.Fatal("restore failed")
		}
	}
	err := RunSeculator(DefaultScenario(), mid, mutate)
	if !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("replay not detected: %v", err)
	}
}

// Splicing attack: swap two ciphertext blocks between addresses. Both
// blocks are valid ciphertexts, but each is bound to its (fmap, index)
// position through the counter and the MAC.
func TestSpliceDetected(t *testing.T) {
	err := RunSeculator(DefaultScenario(), nil, func(d *mem.DRAM, l Layout) {
		if !d.Swap(l.Addr(0, 0), l.Addr(3, 2)) {
			t.Fatal("swap primitive failed")
		}
	})
	if !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("splicing not detected: %v", err)
	}
}

// Swapping two blocks with identical plaintext positions across tiles must
// still be caught: the MAC binds the fmap ID.
func TestCrossTileSwapDetected(t *testing.T) {
	err := RunSeculator(DefaultScenario(), nil, func(d *mem.DRAM, l Layout) {
		d.Swap(l.Addr(0, 1), l.Addr(1, 1))
	})
	if !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("cross-tile swap not detected: %v", err)
	}
}

// Property: any single-byte tamper at any position is detected.
func TestTamperAnywhereDetectedProperty(t *testing.T) {
	s := DefaultScenario()
	f := func(tile, block, off, mask uint8) bool {
		m := mask
		if m == 0 {
			m = 1
		}
		ti := int(tile) % s.Tiles
		bl := int(block) % s.BlocksPerTile
		of := int(off) % 64
		err := RunSeculator(s, nil, func(d *mem.DRAM, l Layout) {
			d.Tamper(l.Addr(ti, bl), of, m)
		})
		return errors.Is(err, mac.ErrIntegrity)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Eavesdropping: ciphertext of all-zero plaintext must not leak zeros and
// must look roughly uniform.
func TestEavesdropLearnsNothing(t *testing.T) {
	s := DefaultScenario()
	s.Tiles, s.BlocksPerTile = 16, 16 // 16 KB of ciphertext
	leaks, hist, err := Eavesdrop(s)
	if err != nil {
		t.Fatal(err)
	}
	if leaks != 0 {
		t.Fatalf("%d blocks leaked plaintext", leaks)
	}
	total := 0
	for _, c := range hist {
		total += c
	}
	// Roughly uniform: no byte value above 4x its expected frequency.
	expected := float64(total) / 256
	for v, c := range hist {
		if float64(c) > 4*expected+8 {
			t.Fatalf("byte value %#x appears %d times (expected ~%.0f): ciphertext is biased", v, c, expected)
		}
	}
}

// TestEavesdropPinned pins what the snooper sees, bit for bit: the leak count
// and a digest of the ciphertext byte histogram of the default scenario and
// of the 16×16 one. Both are pure functions of the pads, so a change to the
// write path that moved any ciphertext byte moves a digest.
func TestEavesdropPinned(t *testing.T) {
	for _, c := range []struct {
		tiles, perTile int
		hist           string
	}{
		{4, 4, "6226ed3dbd3d50cf9f164be2c90b3e271bf5f4bf4ecacf248e7278fdc79c01a6"},
		{16, 16, "1ef324ef4fb1e744c096d1d981a7ac7b4cecb313a2e8202fc2c0e0b2ba47542f"},
	} {
		s := DefaultScenario()
		s.Tiles, s.BlocksPerTile = c.tiles, c.perTile
		leaks, hist, err := Eavesdrop(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(hist)))); leaks != 0 || got != c.hist {
			t.Errorf("%d×%d: %d leaks, histogram digest %s, want 0 and %s", c.tiles, c.perTile, leaks, got, c.hist)
		}
	}
}

// TestScenarioRunsOnTheExecutorLayout: a scenario's memory has every line it
// writes reserved, DRAM and keystream memo alike, before its first write —
// so each final read decrypts with the pad its write computed, and the
// scenario's traffic is one data block per write and per read.
func TestScenarioRunsOnTheExecutorLayout(t *testing.T) {
	s := DefaultScenario()
	var traffic mem.TrafficStats
	if err := RunSeculator(s, nil, func(d *mem.DRAM, l Layout) { traffic = d.Traffic() }); err != nil {
		t.Fatal(err)
	}
	lines := s.Tiles * s.BlocksPerTile
	if w, r := traffic.WriteBlocks[sim.DataTraffic], traffic.ReadBlocks[sim.DataTraffic]; w != uint64(s.Versions*lines) || r != uint64((s.Versions-1)*lines) {
		t.Fatalf("layer 1 moved %d writes and %d partial reads, want %d and %d", w, r, s.Versions*lines, (s.Versions-1)*lines)
	}
	dram, sm, _, err := scenarioMemory(s)
	if err != nil {
		t.Fatal(err)
	}
	sm.BeginLayer(1)
	sm.WriteBlock(uint64(lines-1), 0, 1, 0, scenarioPlain(0, 1, 0))
	sm.BeginLayer(2)
	sm.ReadInput(uint64(lines-1), 1, 0, 1, 0, true)
	if dram.Lines() != 1 || dram.Peek(uint64(lines)) != nil {
		t.Fatal("the scenario's lines are not where its layout puts them")
	}
	if got, want := sm.Keystreams(), (protect.Keystreams{Computed: 1, Reused: 1}); got != want {
		t.Fatalf("pads %+v, want %+v: the scenario's last line has no memo entry", got, want)
	}
}

// MEA against an unwidened network: the address trace reveals layer
// volumes almost exactly.
func TestMEAExtractsUnprotectedShapes(t *testing.T) {
	n := workload.MobileNet()
	leak, err := NetworkLeakage(n, n, npu.DefaultConfig(), mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Block padding causes small rounding error; the attacker is
	// essentially exact.
	if leak > 0.25 {
		t.Fatalf("unprotected leakage error = %.3f, attacker should reconstruct shapes", leak)
	}
}

// MEA against a widened execution (Seculator+): reconstruction error grows
// with the widening factor.
func TestWideningDefeatsMEA(t *testing.T) {
	real := workload.Network{
		Name: "victim",
		Layers: []workload.Layer{
			{Name: "c1", Type: workload.Conv, C: 3, H: 32, W: 32, K: 16, R: 3, S: 3, Stride: 1},
			{Name: "c2", Type: workload.Conv, C: 16, H: 32, W: 32, K: 32, R: 3, S: 3, Stride: 1},
		},
	}
	base, err := NetworkLeakage(real, real, npu.DefaultConfig(), mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	prev := base
	for _, factor := range []float64{1.75, 3.0, 5.0} {
		wnet, err := widen.Network(real, factor)
		if err != nil {
			t.Fatal(err)
		}
		leak, err := NetworkLeakage(real, wnet, npu.DefaultConfig(), mem.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if leak <= prev {
			t.Fatalf("widening %.2fx did not increase confusion: %.3f <= %.3f", factor, leak, prev)
		}
		prev = leak
	}
	if prev < 0.55 {
		t.Fatalf("5x widening leaves error %.3f; expected heavy obfuscation", prev)
	}
}

// Dummy-network injection: the observed trace has extra layers, so the
// attacker cannot even align layers with the real model.
func TestDummyNetworkConfusesAlignment(t *testing.T) {
	real := workload.MobileNet()
	dummy, err := widen.Dummy("noise", 4, 28, 28, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	combined := workload.Network{Name: "mixed", Layers: append(append([]workload.Layer{}, real.Layers...), dummy.Layers...)}
	// The combined network does not chain; leakage analysis observes each
	// mapped layer independently, so craft the observation directly.
	leak, err := NetworkLeakage(real, workload.Network{Name: "obs", Note: "", Layers: combined.Layers}, npu.DefaultConfig(), mem.DefaultConfig())
	if err == nil && leak != 1 {
		t.Fatalf("misaligned trace should give total confusion, got %.3f (err=%v)", leak, err)
	}
}

func TestObserveFootprints(t *testing.T) {
	n := workload.Network{
		Name: "single",
		Layers: []workload.Layer{
			{Name: "c", Type: workload.Conv, C: 4, H: 16, W: 16, K: 8, R: 3, S: 3, Stride: 1},
		},
	}
	obs, err := Observe(n, npu.DefaultConfig(), mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 {
		t.Fatalf("observed %d layers", len(obs))
	}
	inf := Infer(obs[0])
	truth := TrueShape(n.Layers[0])
	if inf.OutputVolume < truth.OutputVolume {
		t.Fatalf("inferred output volume %d below truth %d", inf.OutputVolume, truth.OutputVolume)
	}
	if ShapeError(n.Layers[0], truth) != 0 {
		t.Fatal("self shape error must be 0")
	}
}

func TestLayoutAddr(t *testing.T) {
	l := Layout{Base: 100, Tiles: 4, BlocksPerTile: 8}
	if l.Addr(2, 3) != 100+19 {
		t.Fatalf("Addr = %d", l.Addr(2, 3))
	}
}
