package fault

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"

	"seculator/internal/mem"
	"seculator/internal/protect"
	"seculator/internal/resilience"
	"seculator/internal/sim"
)

func block(fill byte) []byte {
	b := make([]byte, 64)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestBitFlipDeterministicAndTransient(t *testing.T) {
	run := func(seed int64) ([][]byte, int) {
		f := NewBitFlip(0.5, seed)
		var out [][]byte
		for i := 0; i < 64; i++ {
			b := block(0xAA)
			f.OnRead(uint64(i), b)
			out = append(out, b)
		}
		return out, f.Injected()
	}
	a, na := run(11)
	b, nb := run(11)
	if na != nb {
		t.Fatalf("same seed, different hit counts: %d vs %d", na, nb)
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("same seed, read %d diverged", i)
		}
	}
	if na == 0 || na == 64 {
		t.Fatalf("rate 0.5 over 64 reads delivered %d flips; want some but not all", na)
	}
	// Each delivered fault is exactly one flipped bit.
	flips := 0
	for i := range a {
		for j := range a[i] {
			for bit := 0; bit < 8; bit++ {
				if (a[i][j]^0xAA)&(1<<bit) != 0 {
					flips++
				}
			}
		}
	}
	if flips != na {
		t.Fatalf("%d bits flipped across %d delivered faults", flips, na)
	}
	// The write path is untouched: bit flips are pin transients.
	f := NewBitFlip(1, 1)
	w := block(0x55)
	f.OnWrite(0, w)
	if !bytes.Equal(w, block(0x55)) {
		t.Fatal("BitFlip mutated a write")
	}
	if f.Injected() != 0 {
		t.Fatal("OnWrite counted as a delivered fault")
	}
}

func TestStuckAtSelectsResidueClass(t *testing.T) {
	f := NewStuckAt(4, 1, 9) // lines addr%4 == 1, bit 9 => byte 1 bit 1
	for pass := 0; pass < 2; pass++ {
		for addr := uint64(0); addr < 8; addr++ {
			b := block(0)
			f.OnRead(addr, b)
			faulty := addr%4 == 1
			if got := b[1]&0x02 != 0; got != faulty {
				t.Fatalf("pass %d addr %d: stuck bit %v, want %v", pass, addr, got, faulty)
			}
		}
	}
	if f.Injected() != 4 {
		t.Fatalf("delivered %d faults, want 4 (2 passes x 2 faulty lines)", f.Injected())
	}
	if NewStuckAt(0, 7, 3).Period != 1 {
		t.Fatal("zero period not clamped")
	}
}

func TestBurstWindow(t *testing.T) {
	f := NewBurst(3, 2, 4, 99)
	clean := 0
	for i := 0; i < 10; i++ {
		b := block(0)
		f.OnRead(uint64(i), b)
		inside := i >= 3 && i < 5
		corrupted := !bytes.Equal(b, block(0))
		if corrupted != inside {
			t.Fatalf("read %d: corrupted=%v, want %v", i, corrupted, inside)
		}
		if !corrupted {
			clean++
		}
	}
	if f.Injected() != 2 {
		t.Fatalf("delivered %d faults, want 2", f.Injected())
	}
	if clean != 8 {
		t.Fatalf("%d clean reads, want 8", clean)
	}
}

func TestReplayArmsOnOverwriteAndServesStale(t *testing.T) {
	dram, err := mem.New(mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := NewReplay()
	dram.SetInjector(f)

	stale := block(0x01)
	dram.WriteBlock(7, stale, sim.DataTraffic)
	if f.Armed() {
		t.Fatal("armed before any overwrite")
	}
	got := make([]byte, 64)
	dram.ReadBlock(7, got, sim.DataTraffic)
	if !bytes.Equal(got, stale) {
		t.Fatal("unarmed replay mutated a read")
	}

	fresh := block(0x02)
	dram.WriteBlock(7, fresh, sim.DataTraffic)
	if !f.Armed() {
		t.Fatal("overwrite with new content did not arm the replay")
	}
	dram.ReadBlock(7, got, sim.DataTraffic)
	if !bytes.Equal(got, stale) {
		t.Fatalf("armed replay served %x, want the stale ciphertext", got[0])
	}
	if f.Injected() == 0 {
		t.Fatal("stale serve not counted")
	}
	// Other lines stay honest.
	other := block(0x03)
	dram.WriteBlock(8, other, sim.DataTraffic)
	dram.ReadBlock(8, got, sim.DataTraffic)
	if !bytes.Equal(got, other) {
		t.Fatal("replay leaked onto a non-target line")
	}
}

func TestKindStrings(t *testing.T) {
	for _, k := range Kinds() {
		if s := k.String(); s == "" || s[0] == 'K' {
			t.Fatalf("kind %d: bad name %q", k, s)
		}
	}
	if s := Kind(200).String(); s != "Kind(200)" {
		t.Fatalf("unknown kind rendered %q", s)
	}
}

func TestCampaignValidation(t *testing.T) {
	_, err := Run(context.Background(), Campaign{})
	var ce *resilience.ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("empty campaign: got %v, want ConfigError", err)
	}
}

func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, DefaultCampaign())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign: got %v, want context.Canceled", err)
	}
}

// TestCampaignOutcomes is the fault-injection regression guard: across every
// fault class, the Seculator pipeline never silently corrupts (its false
// negatives are zero — every delivered fault is either detected or provably
// benign), the unprotected baseline never detects anything, and the on-chip
// MAC-register upset is always caught by the Equation 1 check and repaired
// by the layer restart.
func TestCampaignOutcomes(t *testing.T) {
	c := Campaign{
		Faults:  Kinds(),
		Rates:   []float64{0.02},
		Designs: []protect.Design{protect.Baseline, protect.Seculator},
		Trials:  2,
		Seed:    42,
		Retry:   resilience.DefaultPolicy(),
	}
	points, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	// 3 rate-driven kinds x 2 designs + replay x 2 designs + mac-register
	// (Seculator only).
	if len(points) != 9 {
		t.Fatalf("campaign returned %d points, want 9", len(points))
	}
	for _, p := range points {
		o := p.Outcome
		if o.Runs != c.Trials {
			t.Errorf("%s/%s: %d runs, want %d", p.Design, p.Fault, o.Runs, c.Trials)
		}
		if sum := o.Recovered + o.Aborted + o.FalseNegative + o.Benign + o.Clean; sum != o.Runs {
			t.Errorf("%s/%s: outcome classes sum to %d of %d runs", p.Design, p.Fault, sum, o.Runs)
		}
		switch p.Design {
		case protect.Seculator:
			if o.FalseNegative != 0 {
				t.Errorf("Seculator/%s: %d silent corruptions", p.Fault, o.FalseNegative)
			}
		case protect.Baseline:
			if o.Detected() != 0 {
				t.Errorf("Baseline/%s: claimed %d detections with no integrity machinery",
					p.Fault, o.Detected())
			}
		}
		if p.Fault == KindMACRegister {
			if p.Design != protect.Seculator {
				t.Errorf("mac-register point emitted for %s", p.Design)
			}
			if o.Recovered != o.Runs {
				t.Errorf("mac-register: %+v, want every trial recovered", o)
			}
		}
	}

	// Seculator must actually exercise detection somewhere in the sweep —
	// an all-Clean campaign would mean the injectors never fired.
	detected := 0
	for _, p := range points {
		if p.Design == protect.Seculator {
			detected += p.Outcome.Detected()
		}
	}
	if detected == 0 {
		t.Fatal("no Seculator trial detected anything; campaign exercised nothing")
	}

	// And the seeded outcomes themselves are pinned, point by point.
	want := []Outcome{
		{Runs: 2, Benign: 1, Clean: 1},    // bit-flip, Baseline
		{Runs: 2, Recovered: 1, Clean: 1}, // bit-flip, Seculator
		{Runs: 2, FalseNegative: 1, Benign: 1},
		{Runs: 2, Aborted: 2},
		{Runs: 2, Benign: 2},
		{Runs: 2, Recovered: 2},
		{Runs: 2, FalseNegative: 2},
		{Runs: 2, Clean: 2},
		{Runs: 2, Recovered: 2}, // mac-register, Seculator
	}
	for i, p := range points {
		if p.Outcome != want[i] {
			t.Errorf("%s/%s: %+v, pinned %+v", p.Design, p.Fault, p.Outcome, want[i])
		}
	}
}

func TestCampaignDeterministic(t *testing.T) {
	c := Campaign{
		Faults:  []Kind{KindBitFlip},
		Rates:   []float64{0.01},
		Designs: []protect.Design{protect.Seculator},
		Trials:  2,
		Seed:    7,
	}
	a, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("point counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("point %d differs across identical runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	if want := (Outcome{Runs: 2, Recovered: 2}); a[0].Outcome != want {
		t.Fatalf("seed 7: %+v, pinned %+v", a[0].Outcome, want)
	}
}

// defaultCampaignDigest is the SHA-256 of DefaultCampaign's points at one
// trial each, printed one "%+v" per line.
const defaultCampaignDigest = "029597f67345141127d081da627561a4838e4c3a03ce208131ca83d6e6f13574"

func TestDefaultCampaignRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full default campaign in -short mode")
	}
	c := DefaultCampaign()
	c.Trials = 1 // keep the sweep quick; the shape is what's under test
	points, err := Run(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("default campaign produced no points")
	}
	// Every point's outcome is pinned by a digest of the whole sweep.
	var all strings.Builder
	for _, p := range points {
		fmt.Fprintf(&all, "%+v\n", p)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256([]byte(all.String()))), defaultCampaignDigest; got != want {
		t.Errorf("default campaign outcomes moved: digest %s, pinned %s\n%s", got, want, all.String())
	}
	for _, p := range points {
		if p.Design == protect.Seculator && p.Outcome.FalseNegative != 0 {
			t.Errorf("Seculator/%s rate %g: silent corruption", p.Fault, p.Rate)
		}
	}
}
