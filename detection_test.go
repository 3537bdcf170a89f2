package seculator

import (
	"context"
	"testing"
)

// TestTable5DetectionRegression is the Table 5 regression guard: every
// protected design must detect every fault class, and the unprotected
// baseline must silently corrupt under each of them. A change that weakens
// any design's detection machinery fails the corresponding named subtest.
func TestTable5DetectionRegression(t *testing.T) {
	cells, err := DetectionMatrixContext(context.Background(), DefaultAttackScenario())
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		d Design
		a DetectionAttack
	}
	matrix := make(map[key]DetectionCell, len(cells))
	for _, c := range cells {
		matrix[key{c.Design, c.Attack}] = c
	}

	faults := []struct {
		name   string
		attack DetectionAttack
	}{
		{"bit-flip", AttackTamper},
		{"stale-VN", AttackReplay},
		{"replay", AttackReplayWithMAC},
		{"splice", AttackSpliceWithMAC},
	}
	protected := []Design{Secure, TNPU, GuardNN, Seculator}

	for _, f := range faults {
		f := f
		t.Run(f.name, func(t *testing.T) {
			for _, d := range protected {
				c, ok := matrix[key{d, f.attack}]
				if !ok {
					t.Fatalf("%s: no matrix cell for %s", d, f.attack)
				}
				if !c.Detected {
					t.Errorf("%s: %s fault undetected (corrupted=%v)", d, f.name, c.Corrupted)
				}
			}
			base, ok := matrix[key{Baseline, f.attack}]
			if !ok {
				t.Fatalf("no baseline cell for %s", f.attack)
			}
			if base.Detected {
				t.Errorf("baseline claims detection of %s with no integrity machinery", f.name)
			}
			if !base.Corrupted {
				t.Errorf("baseline not corrupted by %s; the attack exercised nothing", f.name)
			}
		})
	}

	// The honest control row: nobody detects, nobody corrupts.
	for _, d := range append(protected, Baseline) {
		c := matrix[key{d, AttackNone}]
		if c.Detected || c.Corrupted {
			t.Errorf("%s: honest run misreported (detected=%v corrupted=%v)",
				d, c.Detected, c.Corrupted)
		}
	}

	// Cancellation propagates between cells.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DetectionMatrixContext(ctx, DefaultAttackScenario()); err == nil {
		t.Error("cancelled detection matrix returned no error")
	}
}
