// Package conformance is the differential-testing harness behind the
// paper's equivalence claims: it generates random-but-valid layer
// configurations — shapes, tilings, dataflows, degenerate and partial-tile
// cases — and drives each through six oracles:
//
//  1. cross-scheme equivalence: every protection design computes identical
//     outputs and self-consistent traffic/metadata accounting;
//  2. serial/parallel equivalence: outputs, OutputMAC, block counts, all
//     four XOR-MAC registers and the ciphertext bytes in DRAM are
//     bit-identical at one P and at several, and whether the model is
//     loaded up front or by the loader, and a run starts no goroutine but
//     the loader;
//  3. the VN master equation: the ⟨η, κ, ρ⟩ FSM replay matches the VN
//     sequence the dataflow simulator enumerates, for every mapping;
//  4. attack detection: randomized tamper/replay/swap/splice mutations are
//     detected with zero false negatives, honest runs with zero false
//     positives;
//  5. concurrent resident requests vs serial baseline: requests running
//     at once on the serving scheduler's workers, all riding one shared
//     verified-weight residency, are bit-identical, request by request, to
//     serial non-resident runs;
//  6. gateway attack replay: the command-channel MITM mounted through a
//     2-replica gateway fleet is detected with zero false negatives and
//     zero false positives, including against a session live-migrated
//     mid-attack — the breach latches on the new replica.
//
// Every trial derives deterministically from one int64 seed; a failing
// trial shrinks to a minimal config and prints a one-line repro
// ("seed=… oracle=… config=…") that Replay re-executes exactly.
package conformance

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"seculator/internal/dataflow"
	"seculator/internal/workload"
)

// MapSpec is the JSON-serializable description of one raw dataflow mapping
// (the VN oracle's input). It deliberately spans configurations the
// scheduler would never emit — bound-1 loops listed in the order, zero-block
// ifmap tiles, per-channel partial-sum nests — because the master equation
// must hold for any structurally valid mapping.
type MapSpec struct {
	Reuse      int    `json:"reuse"` // dataflow.ReuseStyle
	Order      string `json:"order"` // subset-permutation of "SCK", outermost first
	AlphaHW    int    `json:"ahw"`
	AlphaC     int    `json:"ac"`
	AlphaK     int    `json:"ak"`
	IfBlocks   int    `json:"ifb"`
	OfBlocks   int    `json:"ofb"`
	WBlocks    int    `json:"wb"`
	Resident   bool   `json:"resident,omitempty"`
	PerChannel bool   `json:"perchan,omitempty"`
}

// Mapping materializes the spec.
func (s MapSpec) Mapping() *dataflow.Mapping {
	var order dataflow.LoopOrder
	for _, ch := range s.Order {
		switch ch {
		case 'S':
			order = append(order, dataflow.LoopS)
		case 'C':
			order = append(order, dataflow.LoopC)
		case 'K':
			order = append(order, dataflow.LoopK)
		}
	}
	return &dataflow.Mapping{
		Name:             fmt.Sprintf("conf/%s a=%d,%d,%d", s.Order, s.AlphaHW, s.AlphaC, s.AlphaK),
		Reuse:            dataflow.ReuseStyle(s.Reuse),
		Order:            order,
		AlphaHW:          s.AlphaHW,
		AlphaC:           s.AlphaC,
		AlphaK:           s.AlphaK,
		IfmapTileBlocks:  s.IfBlocks,
		OfmapTileBlocks:  s.OfBlocks,
		WeightTileBlocks: s.WBlocks,
		WeightsResident:  s.Resident,
		PerChannel:       s.PerChannel,
	}
}

// LayerSpec is one generated network layer.
type LayerSpec struct {
	Type   int  `json:"t"` // workload.LayerType
	C      int  `json:"c"`
	H      int  `json:"h"`
	W      int  `json:"w"`
	K      int  `json:"k"`
	R      int  `json:"r"`
	S      int  `json:"s"`
	Stride int  `json:"st"`
	Valid  bool `json:"v,omitempty"`
}

// NetSpec is a generated network: a chain of layers whose shapes are kept
// consistent by the generator and re-checked by workload.Network.Validate.
type NetSpec struct {
	Layers []LayerSpec `json:"layers"`
}

// Network materializes the spec.
func (n NetSpec) Network() workload.Network {
	net := workload.Network{Name: "conformance"}
	for i, l := range n.Layers {
		net.Layers = append(net.Layers, workload.Layer{
			Name: fmt.Sprintf("g%d", i), Type: workload.LayerType(l.Type),
			C: l.C, H: l.H, W: l.W, K: l.K, R: l.R, S: l.S,
			Stride: l.Stride, Valid: l.Valid,
		})
	}
	return net
}

// ScenSpec shapes the functional two-layer attack scenario.
type ScenSpec struct {
	Tiles         int `json:"tiles"`
	Versions      int `json:"versions"`
	BlocksPerTile int `json:"bpt"`
}

// Attack kinds mounted by the attack oracle against the secure executor
// (spatial surface) and the two-layer scenario (temporal surface).
const (
	AtkTamperOutput  = iota // single-bit flip in the final output region
	AtkSwapOutput           // swap two ciphertext lines of the final region
	AtkSpliceOutput         // copy one final-region line over another
	AtkTamperWeights        // single-bit flip in a weight region after load
	AtkReplayStale          // temporal replay: restore a stale partial-sum version
	atkKinds
)

// AttackSpec selects the mounted attack and its target coordinates. The
// selectors are reduced modulo the target region's extent at mount time, so
// any values are valid.
type AttackSpec struct {
	Kind   int `json:"kind"`
	Block  int `json:"block"`
	Block2 int `json:"block2"`
	Byte   int `json:"byte"`
	Bit    int `json:"bit"`
}

// Config is one self-contained trial: everything the six oracles consume,
// serializable as the repro payload.
type Config struct {
	Seed     int64      `json:"seed"`
	Mapping  MapSpec    `json:"mapping"`
	Net      NetSpec    `json:"net"`
	Scenario ScenSpec   `json:"scenario"`
	Attack   AttackSpec `json:"attack"`
}

// Generate derives the full trial configuration from one seed.
func Generate(seed int64) Config {
	r := rand.New(rand.NewSource(seed))
	return Config{
		Seed:     seed,
		Mapping:  genMapping(r),
		Net:      genNet(r),
		Scenario: genScenario(r),
		Attack:   genAttack(r),
	}
}

// genBound draws a loop bound biased toward the degenerate edges: 1 (absent
// loop), 2 (the DeriveRead ramp-of-height-one special case), and small
// general values.
func genBound(r *rand.Rand) int {
	switch r.Intn(6) {
	case 0:
		return 1
	case 1:
		return 2
	default:
		return 1 + r.Intn(5)
	}
}

// genMapping builds a random structurally valid raw mapping.
func genMapping(r *rand.Rand) MapSpec {
	s := MapSpec{
		Reuse:      r.Intn(3),
		AlphaHW:    genBound(r),
		AlphaC:     genBound(r),
		AlphaK:     genBound(r),
		IfBlocks:   r.Intn(3),     // 0 is legal: no ifmap traffic
		OfBlocks:   1 + r.Intn(3), // must be positive
		WBlocks:    r.Intn(3),
		PerChannel: r.Intn(4) == 0,
	}
	s.Resident = s.WBlocks > 0 && r.Intn(2) == 0
	s.Order = genOrder(r, s)
	return s
}

// genOrder permutes the loop variables and drops bound-1 loops with
// probability 1/2 each (loops with bound > 1 must appear, per
// Mapping.Validate; bound-1 loops listed explicitly are a legal degenerate
// the scheduler never produces — exactly the surface this harness exists
// to reach).
func genOrder(r *rand.Rand, s MapSpec) string {
	vars := []byte{'S', 'C', 'K'}
	bounds := map[byte]int{'S': s.AlphaHW, 'C': s.AlphaC, 'K': s.AlphaK}
	r.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
	var b strings.Builder
	for _, v := range vars {
		if bounds[v] > 1 || r.Intn(2) == 0 {
			b.WriteByte(v)
		}
	}
	return b.String()
}

// genNet builds a random valid network of 1–3 layers with small shapes,
// covering every layer type, stride-2 partial tiles, valid-padding leftover
// rows and the FC flattening rule.
func genNet(r *rand.Rand) NetSpec {
	n := 1 + r.Intn(3)
	c := 1 + r.Intn(4)
	h := 3 + r.Intn(8)
	w := 3 + r.Intn(8)
	var spec NetSpec
	for i := 0; i < n; i++ {
		last := i == n-1
		l := genLayer(r, c, h, w, last)
		spec.Layers = append(spec.Layers, l)
		wl := NetSpec{Layers: []LayerSpec{l}}.Network().Layers[0]
		c, h, w = wl.K, wl.OutH(), wl.OutW()
		if h < 1 || w < 1 {
			break
		}
	}
	return spec
}

func genLayer(r *rand.Rand, c, h, w int, last bool) LayerSpec {
	kinds := []int{int(workload.Conv), int(workload.Pointwise), int(workload.Depthwise), int(workload.Pool)}
	if h*2 <= 16 && w*2 <= 16 {
		kinds = append(kinds, int(workload.Upsample))
	}
	if last {
		kinds = append(kinds, int(workload.FC), int(workload.FC))
	}
	t := kinds[r.Intn(len(kinds))]
	maxRS := min(h, w)
	switch workload.LayerType(t) {
	case workload.FC:
		return LayerSpec{Type: t, C: c * h * w, H: 1, W: 1, K: 1 + r.Intn(8), R: 1, S: 1, Stride: 1}
	case workload.Pointwise:
		return LayerSpec{Type: t, C: c, H: h, W: w, K: 1 + r.Intn(6), R: 1, S: 1, Stride: 1}
	case workload.Upsample:
		return LayerSpec{Type: t, C: c, H: h, W: w, K: c, R: 1, S: 1, Stride: 2}
	case workload.Depthwise, workload.Pool:
		rk := 1 + r.Intn(maxRS)
		if rk > 3 {
			rk = 3
		}
		st := 1 + r.Intn(2)
		valid := r.Intn(2) == 0
		if st > maxRS {
			st = 1
		}
		return LayerSpec{Type: t, C: c, H: h, W: w, K: c, R: rk, S: rk, Stride: st, Valid: valid}
	default: // Conv
		rk := 1 + r.Intn(maxRS)
		if rk > 3 {
			rk = 3
		}
		st := 1 + r.Intn(2)
		if st > maxRS {
			st = 1
		}
		return LayerSpec{
			Type: t, C: c, H: h, W: w, K: 1 + r.Intn(6),
			R: rk, S: rk, Stride: st, Valid: r.Intn(3) == 0,
		}
	}
}

func genScenario(r *rand.Rand) ScenSpec {
	return ScenSpec{
		Tiles:         2 + r.Intn(5),
		Versions:      2 + r.Intn(4),
		BlocksPerTile: 1 + r.Intn(4),
	}
}

func genAttack(r *rand.Rand) AttackSpec {
	return AttackSpec{
		Kind:   r.Intn(atkKinds),
		Block:  r.Intn(1 << 16),
		Block2: r.Intn(1 << 16),
		Byte:   r.Intn(64),
		Bit:    r.Intn(8),
	}
}

// Failure is one oracle violation with its minimized reproduction.
type Failure struct {
	Seed   int64
	Oracle string
	Config Config
	Err    error
}

// ReproLine renders the one-line deterministic reproduction:
// "seed=<n> oracle=<name> config=<compact JSON>". Replay parses and
// re-executes it.
func (f *Failure) ReproLine() string {
	js, err := json.Marshal(f.Config)
	if err != nil {
		js = []byte("{}")
	}
	return fmt.Sprintf("seed=%d oracle=%s config=%s", f.Seed, f.Oracle, js)
}

func (f *Failure) Error() string {
	return fmt.Sprintf("conformance: %s oracle failed: %v\nrepro: %s", f.Oracle, f.Err, f.ReproLine())
}

// ParseRepro decodes a ReproLine back into its config and oracle name.
func ParseRepro(line string) (Config, string, error) {
	line = strings.TrimSpace(line)
	var cfg Config
	var oracle string
	i := strings.Index(line, "config=")
	if i < 0 {
		return cfg, "", fmt.Errorf("conformance: repro line missing config=: %q", line)
	}
	head, js := line[:i], line[i+len("config="):]
	for _, f := range strings.Fields(head) {
		if v, ok := strings.CutPrefix(f, "oracle="); ok {
			oracle = v
		}
	}
	if err := json.Unmarshal([]byte(js), &cfg); err != nil {
		return cfg, "", fmt.Errorf("conformance: bad repro config: %w", err)
	}
	return cfg, oracle, nil
}

// Oracle names, as printed in repro lines.
const (
	OracleVN             = "vn"
	OracleCrossScheme    = "cross-scheme"
	OracleSerialParallel = "serial-parallel"
	OraclePipeline       = "pipeline"
	OracleAttack         = "attack"
	OracleGateway        = "gateway"
)

// oracles maps names to checkers, in trial execution order.
var oracles = []struct {
	name  string
	check func(Config) error
}{
	{OracleVN, func(c Config) error { return CheckVN(c.Mapping) }},
	{OracleCrossScheme, CheckCrossScheme},
	{OracleSerialParallel, CheckSerialParallel},
	{OraclePipeline, CheckPipelinedBatch},
	{OracleAttack, CheckAttackDetection},
	{OracleGateway, CheckGatewayAttack},
}

// Trial runs every oracle on the config; the first violation is shrunk to a
// minimal failing config and returned. nil means the trial passed.
func Trial(cfg Config) *Failure {
	for _, o := range oracles {
		if err := o.check(cfg); err != nil {
			small := Shrink(cfg, o.check)
			finalErr := o.check(small)
			if finalErr == nil { // shrinker regression safety: keep the original
				small, finalErr = cfg, err
			}
			return &Failure{Seed: cfg.Seed, Oracle: o.name, Config: small, Err: finalErr}
		}
	}
	return nil
}

// Replay re-runs one oracle (or all, when oracle is empty) on a config.
func Replay(cfg Config, oracle string) error {
	for _, o := range oracles {
		if oracle != "" && o.name != oracle {
			continue
		}
		if err := o.check(cfg); err != nil {
			return fmt.Errorf("%s: %w", o.name, err)
		}
	}
	return nil
}

// Run executes n seeded trials (seeds base, base+1, …) and returns every
// failure. report, when non-nil, observes progress after each trial.
func Run(base int64, n int, report func(done int, f *Failure)) []*Failure {
	var fails []*Failure
	for i := 0; i < n; i++ {
		f := Trial(Generate(base + int64(i)))
		if f != nil {
			fails = append(fails, f)
		}
		if report != nil {
			report(i+1, f)
		}
	}
	return fails
}
