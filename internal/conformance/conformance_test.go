package conformance

import (
	"strings"
	"testing"

	"seculator/internal/workload"
)

// TestSeededTrials is the in-repo slice of the CI conformance job: every
// oracle must pass on a block of consecutive seeds. The CLI runs the full
// 200; -short keeps the unit-test suite fast.
func TestSeededTrials(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 12
	}
	for _, f := range Run(1, n, nil) {
		t.Errorf("%s", f.Error())
	}
}

// TestSingleBitTamperAlwaysDetected pins the acceptance criterion directly:
// a single-bit ciphertext tamper at a randomized position in a randomized
// config is detected in 100% of 100 trials.
func TestSingleBitTamperAlwaysDetected(t *testing.T) {
	trials := 100
	if testing.Short() {
		trials = 20
	}
	misses := 0
	for i := 0; i < trials; i++ {
		cfg := Generate(int64(1000 + i))
		cfg.Attack.Kind = AtkTamperOutput
		if err := CheckAttackDetection(cfg); err != nil {
			t.Errorf("seed %d: %v", cfg.Seed, err)
			misses++
		}
	}
	if misses != 0 {
		t.Fatalf("%d/%d tamper trials missed detection", misses, trials)
	}
}

// TestReproRoundTrip: a failure's one-line repro must parse back to the
// exact same config and oracle.
func TestReproRoundTrip(t *testing.T) {
	cfg := Generate(42)
	f := &Failure{Seed: 42, Oracle: OracleVN, Config: cfg}
	line := f.ReproLine()
	if !strings.HasPrefix(line, "seed=42 oracle=vn config={") {
		t.Fatalf("unexpected repro line: %s", line)
	}
	got, oracle, err := ParseRepro(line)
	if err != nil {
		t.Fatal(err)
	}
	if oracle != OracleVN {
		t.Fatalf("oracle = %q", oracle)
	}
	if !got.ReproJSONEqual(cfg) {
		t.Fatalf("round trip changed config:\n  in:  %+v\n  out: %+v", cfg, got)
	}
	if _, _, err := ParseRepro("garbage"); err == nil {
		t.Fatal("garbage repro line parsed")
	}
	if _, _, err := ParseRepro("seed=1 oracle=vn config={broken"); err == nil {
		t.Fatal("broken JSON parsed")
	}
}

// TestGenerateDeterministic: the same seed must always produce the same
// config — the property every repro line depends on.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		if !Generate(seed).ReproJSONEqual(Generate(seed)) {
			t.Fatalf("seed %d is not deterministic", seed)
		}
	}
}

// TestGeneratedConfigsAreValid: generated mappings and networks must pass
// their own validators — the harness is about valid-but-odd configs, so an
// invalid one means lost coverage.
func TestGeneratedConfigsAreValid(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		cfg := Generate(seed)
		if err := cfg.Mapping.Mapping().Validate(); err != nil {
			t.Errorf("seed %d: invalid mapping %+v: %v", seed, cfg.Mapping, err)
		}
		net := cfg.Net.Network()
		if err := net.Validate(); err != nil {
			t.Errorf("seed %d: invalid network %+v: %v", seed, cfg.Net, err)
		}
		if cfg.Scenario.Tiles < 2 || cfg.Scenario.Versions < 2 || cfg.Scenario.BlocksPerTile < 1 {
			t.Errorf("seed %d: degenerate scenario %+v", seed, cfg.Scenario)
		}
	}
}

// TestShrinkerMinimizes: shrinking against a predicate that only needs one
// feature must strip everything else down to floors, stay deterministic,
// and never return a passing config.
func TestShrinkerMinimizes(t *testing.T) {
	cfg := Generate(7)
	pred := func(c Config) error {
		if len(c.Net.Layers) > 0 {
			return errTest
		}
		return nil
	}
	small := Shrink(cfg, pred)
	if pred(small) == nil {
		t.Fatal("shrinker returned a passing config")
	}
	if len(small.Net.Layers) != 1 {
		t.Fatalf("net not minimized: %d layers", len(small.Net.Layers))
	}
	if small.Scenario.Tiles != 2 || small.Scenario.Versions != 2 || small.Scenario.BlocksPerTile != 1 {
		t.Fatalf("scenario not minimized: %+v", small.Scenario)
	}
	if w := weight(small); w >= weight(cfg) {
		t.Fatalf("shrinker did not reduce weight: %d >= %d", w, weight(cfg))
	}
	again := Shrink(cfg, pred)
	if !again.ReproJSONEqual(small) {
		t.Fatal("shrinker is not deterministic")
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "synthetic failure" }

// TestTrialShrinksFailures: a config made to fail an oracle must come back
// with a minimized config whose repro line still replays the failure.
func TestTrialShrinksFailures(t *testing.T) {
	// Sabotage via an impossible expectation is not available from outside,
	// so drive Shrink directly with a real oracle known to pass, plus a
	// wrapper that fails when the mapping still has a K loop — a stand-in
	// for a real predicate a bug would induce.
	cfg := Generate(11)
	cfg.Mapping.AlphaK = 4
	if !strings.Contains(cfg.Mapping.Order, "K") {
		cfg.Mapping.Order += "K"
	}
	pred := func(c Config) error {
		if strings.Contains(c.Mapping.Order, "K") {
			return errTest
		}
		return nil
	}
	small := Shrink(cfg, pred)
	if small.Mapping.AlphaK != 1 {
		t.Fatalf("AlphaK not minimized: %d", small.Mapping.AlphaK)
	}
	if !strings.Contains(small.Mapping.Order, "K") {
		t.Fatal("shrinker removed the failure-carrying loop")
	}
}

// TestShrunkEmptyOutputSkips: the shrinker halves the first layer's plane,
// which can take a valid-padded one below its kernel and leave it no
// output. Such a network fails validation, so CheckSerialParallel skips the
// candidate (nil) and the shrinker discards it, instead of the reference
// model panicking on an empty tensor.
func TestShrunkEmptyOutputSkips(t *testing.T) {
	cfg := Generate(1)
	cfg.Net = NetSpec{Layers: []LayerSpec{{Type: int(workload.Conv), C: 2, H: 4, W: 4, K: 2, R: 3, S: 3, Stride: 1, Valid: true}}}
	if err := CheckSerialParallel(cfg); err != nil {
		t.Fatalf("the unshrunk config fails: %v", err)
	}
	for _, c := range shrinkCandidates(cfg) {
		if l := c.Net.Layers[0]; l.H < l.R {
			if err := CheckSerialParallel(c); err != nil {
				t.Fatalf("a %dx%d plane under a %dx%d kernel: %v", l.H, l.W, l.R, l.S, err)
			}
			return
		}
	}
	t.Fatal("no shrink candidate halves the plane below the kernel: the check above saw nothing")
}

// TestRegressionPinnedConfigs replays, as fixed regression points, the
// gnarliest configurations the randomized harness surfaced while this
// package was being built: bound-1 loops listed explicitly in the order,
// the Bound(C)==2 read-triplet special case combined with per-channel
// streaming, a stride-2 valid-padding partial-tile chain ending in FC
// flattening, and a weights-resident mapping with zero ifmap blocks. The
// last pin is not a past failure but a reach guarantee: generated networks
// carry a few KiB of weights per layer, which the executor's weight loader
// has always written before the layer loop asks for them, so this one — a
// second layer with 36 KiB of weights behind a small first layer — is what
// takes the serial/parallel oracle's hook-free run through a loader that is
// still writing when its layer is reached.
func TestRegressionPinnedConfigs(t *testing.T) {
	pins := []struct {
		name string
		line string
	}{
		{
			"bound1-loops-in-order",
			`seed=1 oracle=vn config={"seed":1,"mapping":{"reuse":2,"order":"SCK","ahw":1,"ac":1,"ak":1,"ifb":2,"ofb":1,"wb":1},"net":{"layers":[{"t":0,"c":1,"h":4,"w":4,"k":1,"r":1,"s":1,"st":1}]},"scenario":{"tiles":2,"versions":2,"bpt":1},"attack":{"kind":0,"block":0,"block2":0,"byte":0,"bit":0}}`,
		},
		{
			"boundC2-perchannel",
			`seed=2 oracle=vn config={"seed":2,"mapping":{"reuse":0,"order":"KCS","ahw":3,"ac":2,"ak":2,"ifb":1,"ofb":2,"wb":1,"perchan":true},"net":{"layers":[{"t":1,"c":3,"h":5,"w":5,"k":3,"r":3,"s":3,"st":2,"v":true}]},"scenario":{"tiles":3,"versions":3,"bpt":2},"attack":{"kind":1,"block":5,"block2":9,"byte":13,"bit":3}}`,
		},
		{
			"stride2-valid-fc-chain",
			`seed=3 oracle= config={"seed":3,"mapping":{"reuse":1,"order":"CS","ahw":2,"ac":4,"ak":1,"ifb":0,"ofb":3,"wb":2,"resident":true},"net":{"layers":[{"t":0,"c":2,"h":7,"w":9,"k":4,"r":3,"s":3,"st":2,"v":true},{"t":4,"c":4,"h":3,"w":4,"k":4,"r":2,"s":2,"st":2},{"t":3,"c":16,"h":1,"w":1,"k":5,"r":1,"s":1,"st":1}]},"scenario":{"tiles":2,"versions":2,"bpt":1},"attack":{"kind":0,"block":1,"block2":2,"byte":31,"bit":7}}`,
		},
		{
			"loader-behind-36KiB-layer",
			`seed=4 oracle=serial-parallel config={"seed":4,"mapping":{"reuse":0,"order":"KCS","ahw":1,"ac":1,"ak":1,"ifb":1,"ofb":1,"wb":1},"net":{"layers":[{"t":0,"c":3,"h":6,"w":6,"k":32,"r":3,"s":3,"st":1},{"t":0,"c":32,"h":6,"w":6,"k":32,"r":3,"s":3,"st":1}]},"scenario":{"tiles":2,"versions":2,"bpt":1},"attack":{"kind":0,"block":0,"block2":0,"byte":0,"bit":0}}`,
		},
	}
	for _, pin := range pins {
		t.Run(pin.name, func(t *testing.T) {
			cfg, oracle, err := ParseRepro(pin.line)
			if err != nil {
				t.Fatal(err)
			}
			if err := Replay(cfg, oracle); err != nil {
				t.Errorf("pinned config regressed: %v", err)
			}
		})
	}
}
