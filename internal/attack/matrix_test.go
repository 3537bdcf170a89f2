package attack

import (
	"testing"

	"seculator/internal/mem"
	"seculator/internal/protect"
)

// buildMemory constructs the functional memory (and its off-chip MAC store,
// when the design has one) for a matrix run.
func buildMemory(t *testing.T, d protect.Design) (protect.FunctionalMemory, *protect.MACStore, *mem.DRAM) {
	t.Helper()
	m, macs, dram, err := NewFunctionalMemory(d)
	if err != nil {
		t.Fatal(err)
	}
	return m, macs, dram
}

// The behavioural Table 5: the Baseline fails to detect every attack (and
// silently serves corrupted data), while every protected design — per-block
// immediately, Seculator at its layer check — detects all of them.
func mustDRAM(t *testing.T) *mem.DRAM {
	t.Helper()
	d, err := mem.New(mem.DefaultConfig())
	if err != nil {
		t.Fatalf("mem.New: %v", err)
	}
	return d
}

func TestDetectionMatrix(t *testing.T) {
	s := DefaultScenario()
	designs := []protect.Design{
		protect.Baseline, protect.Secure, protect.TNPU, protect.GuardNN, protect.Seculator,
	}
	for _, d := range designs {
		for _, atk := range MatrixAttacks() {
			m, macs, dram := buildMemory(t, d)
			res, err := RunMatrix(m, macs, dram, s, atk)
			if err != nil {
				t.Fatalf("%s/%s: driver error: %v", d, atk, err)
			}
			switch {
			case atk == AttackNone:
				if res.Detected || res.Corrupted {
					t.Errorf("%s/none: honest run flagged: %+v", d, res)
				}
			case d == protect.Baseline:
				if res.Detected {
					t.Errorf("Baseline/%s: baseline cannot detect anything", atk)
				}
				if !res.Corrupted {
					t.Errorf("Baseline/%s: attack should corrupt data silently", atk)
				}
			default:
				if !res.Detected || res.Corrupted {
					t.Errorf("%s/%s: attack not detected, or corrupted data delivered: %+v", d, atk, res)
				}
			}
		}
	}
}

// Per-block designs must detect at the offending read, not only at layer
// end: the tampered block read returns the error directly.
func TestPerBlockDesignsDetectImmediately(t *testing.T) {
	for _, d := range []protect.Design{protect.Secure, protect.TNPU, protect.GuardNN} {
		m, _, dram := buildMemory(t, d)
		m.BeginLayer(1)
		m.WriteBlock(0, 0, 1, 0, scenarioPlain(0, 1, 0))
		dram.Tamper(0, 3, 0xF0)
		if _, err := m.Read(0, 1, 0, 1, 0, true); err == nil {
			t.Errorf("%s: tampered read returned no error", d)
		}
	}
}

// Counter rollback against the Secure design: the Merkle tree catches it.
func TestSecureCounterRollback(t *testing.T) {
	dram := mustDRAM(t)
	m, err := protect.NewSGXMemory(dram, 1, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	m.BeginLayer(1)
	m.WriteBlock(0, 0, 1, 0, scenarioPlain(0, 1, 0))
	m.Counters().TamperMajor(0, 5) // off-band counter mutation
	if _, err := m.Read(0, 1, 0, 1, 0, true); err == nil {
		t.Fatal("counter rollback not detected")
	}
}

// XTS determinism is TNPU's known residual leak: rewriting identical data
// at the same address yields identical ciphertext, whereas CTR designs
// refresh it. The matrix machinery makes the contrast observable.
func TestXTSDeterminismVsCTRFreshness(t *testing.T) {
	pt := scenarioPlain(0, 1, 0)

	dram1 := mustDRAM(t)
	tnpu := protect.NewTNPUMemory(dram1, 9, 10)
	tnpu.BeginLayer(1)
	tnpu.WriteBlock(0, 0, 1, 0, pt)
	first, _ := dram1.Snapshot(0)
	tnpu.WriteBlock(0, 0, 2, 0, pt) // same data, new version
	second, _ := dram1.Snapshot(0)
	if string(first) != string(second) {
		t.Fatal("XTS should produce identical ciphertext for identical (data, address)")
	}

	dram2 := mustDRAM(t)
	gnn := protect.NewGuardNNMemory(dram2, 9, 10)
	gnn.BeginLayer(1)
	gnn.WriteBlock(0, 0, 1, 0, pt)
	first, _ = dram2.Snapshot(0)
	gnn.WriteBlock(0, 0, 2, 0, pt)
	second, _ = dram2.Snapshot(0)
	if string(first) == string(second) {
		t.Fatal("CTR must refresh ciphertext across versions")
	}
}

func TestMatrixAttackStrings(t *testing.T) {
	for _, a := range MatrixAttacks() {
		if a.String() == "" {
			t.Fatalf("empty string for attack %d", a)
		}
	}
	if MatrixAttack(99).String() == "" {
		t.Fatal("unknown attack should render")
	}
}

func TestRunMatrixValidation(t *testing.T) {
	m, macs, dram := buildMemory(t, protect.Seculator)
	if _, err := RunMatrix(m, macs, dram, Scenario{Tiles: 1, Versions: 1, BlocksPerTile: 1}, AttackNone); err == nil {
		t.Fatal("degenerate matrix scenario accepted")
	}
}
