package fault

import (
	"context"
	"fmt"

	"seculator/internal/attack"
	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/parallel"
	"seculator/internal/protect"
	"seculator/internal/resilience"
	"seculator/internal/secure"
	"seculator/internal/workload"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// KindBitFlip is the transient single-bit-upset model (rate-driven).
	KindBitFlip Kind = iota
	// KindStuckAt is the persistent stuck-at-row model (rate-driven).
	KindStuckAt
	// KindBurst is the transient burst-corruption model (rate-driven).
	KindBurst
	// KindReplay is the stale-ciphertext replay model (rate-free).
	KindReplay
	// KindMACRegister is the on-chip MAC-register upset (rate-free,
	// Seculator only — other designs have no layer MAC registers).
	KindMACRegister
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBitFlip:
		return "bit-flip"
	case KindStuckAt:
		return "stuck-at"
	case KindBurst:
		return "burst"
	case KindReplay:
		return "replay"
	case KindMACRegister:
		return "mac-register"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Kinds returns every fault class.
func Kinds() []Kind {
	return []Kind{KindBitFlip, KindStuckAt, KindBurst, KindReplay, KindMACRegister}
}

// Injector is a fault model the campaign can attach and account: the
// mem.Injector hooks plus the delivered-fault counter every model keeps.
type Injector interface {
	mem.Injector
	Injected() int
}

// Outcome tallies the trials of one campaign point.
type Outcome struct {
	Runs          int
	Recovered     int // violation detected, repaired by layer-level retry
	Aborted       int // violation detected, persistent -> run aborted
	FalseNegative int // fault delivered, output corrupted, nothing raised
	Benign        int // fault delivered but harmless (hit padding/unread data)
	Clean         int // injector never fired
}

// Detected returns how many trials raised an integrity violation.
func (o Outcome) Detected() int { return o.Recovered + o.Aborted }

// add folds a single-trial outcome in.
func (o *Outcome) add(t Outcome) {
	o.Runs += t.Runs
	o.Recovered += t.Recovered
	o.Aborted += t.Aborted
	o.FalseNegative += t.FalseNegative
	o.Benign += t.Benign
	o.Clean += t.Clean
}

// Point is one campaign sample: a fault class at a rate against a design.
type Point struct {
	Fault   Kind
	Rate    float64 // 0 for rate-free fault classes
	Design  protect.Design
	Outcome Outcome
}

// Campaign sweeps fault class x rate x design. Seculator runs through the
// full secure.Executor pipeline (so detection can trigger the layer-level
// recovery loop); the per-block designs run the canonical two-layer
// functional workload, where detection is immediate and terminal.
type Campaign struct {
	Faults  []Kind
	Rates   []float64 // applied to the rate-driven classes
	Designs []protect.Design
	Trials  int // independent seeded trials per point
	Seed    int64
	Retry   resilience.Policy // Seculator's recovery policy; zero means resilience.DefaultPolicy()

	// Network and model seed for the Seculator executor trials; the zero
	// value uses a small two-conv network.
	Network workload.Network
	Model   int64
}

// DefaultCampaign returns a compact but covering sweep.
func DefaultCampaign() Campaign {
	return Campaign{
		Faults: Kinds(),
		Rates:  []float64{0.002, 0.02},
		Designs: []protect.Design{
			protect.Baseline, protect.Secure, protect.TNPU, protect.GuardNN, protect.Seculator,
		},
		Trials: 3,
		Seed:   0x5eed,
		Retry:  resilience.DefaultPolicy(),
	}
}

func defaultNetwork() workload.Network {
	return workload.Network{
		Name: "campaign",
		Layers: []workload.Layer{
			{Name: "c1", Type: workload.Conv, C: 2, H: 8, W: 8, K: 4, R: 3, S: 3, Stride: 1},
			{Name: "c2", Type: workload.Conv, C: 4, H: 8, W: 8, K: 4, R: 3, S: 3, Stride: 1},
		},
	}
}

// build constructs the injector for one (kind, rate, trial) cell. The
// rate-driven classes map rate to their natural knob; the rate-free classes
// ignore it.
func build(kind Kind, rate float64, seed int64) Injector {
	switch kind {
	case KindBitFlip:
		return NewBitFlip(rate, seed)
	case KindStuckAt:
		period := uint64(1)
		if rate > 0 && rate < 1 {
			period = uint64(1/rate + 0.5)
		}
		return NewStuckAt(period, uint64(seed%3), uint(seed)&7)
	case KindBurst:
		count := uint64(rate*256 + 0.5)
		if count < 1 {
			count = 1
		}
		return NewBurst(24, count, 4, seed)
	case KindReplay:
		return NewReplay()
	default:
		return nil // KindMACRegister injects on-chip, not through the DRAM
	}
}

// Run executes the campaign and returns one Point per swept cell. ctx
// cancels between trials.
func Run(ctx context.Context, c Campaign) ([]Point, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(c.Faults) == 0 || len(c.Designs) == 0 || c.Trials <= 0 {
		return nil, &resilience.ConfigError{
			Err: fmt.Errorf("fault: campaign needs faults, designs and trials, got %+v", c),
		}
	}
	if c.Network.Name == "" {
		c.Network = defaultNetwork()
	}
	if c.Retry == (resilience.Policy{}) {
		c.Retry = resilience.DefaultPolicy()
	}

	// Enumerate every (kind, rate, design, trial) cell up front — the seed
	// derivation must see the same cell numbering the sequential sweep used —
	// then fan the independent trials out on the worker pool and fold each
	// trial's outcome into its point. Points keep enumeration order and each
	// point's Outcome is a commutative sum, so the result is identical at
	// any worker count.
	type trialJob struct {
		point int // index into out
		kind  Kind
		rate  float64
		d     protect.Design
		trial int
		seed  int64
	}
	var out []Point
	var jobs []trialJob
	cell := int64(0)
	for _, kind := range c.Faults {
		rates := c.Rates
		if kind == KindReplay || kind == KindMACRegister {
			rates = []float64{0} // rate-free classes get a single point
		}
		if len(rates) == 0 {
			rates = []float64{0.01}
		}
		for _, rate := range rates {
			for _, d := range c.Designs {
				cell++
				if kind == KindMACRegister && d != protect.Seculator {
					continue // no layer MAC registers to upset
				}
				out = append(out, Point{Fault: kind, Rate: rate, Design: d})
				for trial := 0; trial < c.Trials; trial++ {
					jobs = append(jobs, trialJob{
						point: len(out) - 1,
						kind:  kind, rate: rate, d: d, trial: trial,
						seed: c.Seed + cell*1009 + int64(trial)*7919,
					})
				}
			}
		}
	}

	outcomes, err := parallel.Map(ctx, 0, jobs, func(ctx context.Context, j trialJob) (Outcome, error) {
		var (
			o   Outcome
			err error
		)
		switch {
		case j.kind == KindMACRegister:
			o, err = macRegisterTrial(j.seed)
		case j.d == protect.Seculator:
			o, err = c.executorTrial(ctx, j.kind, j.rate, j.seed)
		default:
			o, err = designTrial(j.d, j.kind, j.rate, j.seed)
		}
		if err != nil {
			return Outcome{}, fmt.Errorf("fault: %s/%s rate %g trial %d: %w",
				j.d, j.kind, j.rate, j.trial, err)
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		out[j.point].Outcome.add(outcomes[i])
	}
	return out, nil
}

// executorTrial runs the full Seculator pipeline with the injector attached
// and classifies the outcome against the unprotected reference computation.
func (c Campaign) executorTrial(ctx context.Context, kind Kind, rate float64, seed int64) (Outcome, error) {
	in, ws := nn.RandomModel(c.Network, c.Model+seed%13)
	golden, err := nn.ForwardNetwork(c.Network, in, ws)
	if err != nil {
		return Outcome{}, err
	}
	inj := build(kind, rate, seed)
	x := secure.NewExecutor()
	x.Injector = inj
	x.Retry = c.Retry

	res, runErr := x.Run(ctx, c.Network, in, ws)
	o := Outcome{Runs: 1}
	switch {
	case runErr != nil:
		if ctx.Err() != nil {
			return Outcome{}, runErr // cancellation, not a verdict
		}
		o.Aborted = 1
	case res.Recovery.Recovered > 0:
		o.Recovered = 1
	case !res.Output.Equal(golden):
		o.FalseNegative = 1
	case inj != nil && inj.Injected() > 0:
		o.Benign = 1
	default:
		o.Clean = 1
	}
	return o, nil
}

// designTrial drives a per-block design's functional memory through the
// canonical two-layer workload with the injector attached. These designs
// have no recovery machinery: detection is terminal.
func designTrial(d protect.Design, kind Kind, rate float64, seed int64) (Outcome, error) {
	m, macs, dram, err := attack.NewFunctionalMemory(d)
	if err != nil {
		return Outcome{}, err
	}
	inj := build(kind, rate, seed)
	dram.SetInjector(inj)

	res, err := attack.RunMatrix(m, macs, dram, attack.DefaultScenario(), attack.AttackNone)
	if err != nil {
		return Outcome{}, err
	}
	o := Outcome{Runs: 1}
	switch {
	case res.Detected:
		o.Aborted = 1
	case res.Corrupted:
		o.FalseNegative = 1
	case inj != nil && inj.Injected() > 0:
		o.Benign = 1
	default:
		o.Clean = 1
	}
	return o, nil
}

// macRegisterTrial upsets one XOR-MAC register of the functional Seculator
// memory mid-layer, confirms the Equation 1 check catches it, then restarts
// the layer (the recovery primitive) and confirms re-verification passes —
// the on-chip analogue of a recovered transient.
func macRegisterTrial(seed int64) (Outcome, error) {
	dram, err := mem.New(mem.DefaultConfig())
	if err != nil {
		return Outcome{}, err
	}
	// The executor's layout: every line the trial writes reserved up front.
	const tiles, blocks = 2, 2
	dram.Reserve(tiles * blocks)
	sm := protect.NewSeculatorMemory(dram, 0x5ec0_1a70, uint64(seed)|1)
	sm.ReserveKeystreams(tiles * blocks)
	plain := func(tile, blk int) []byte {
		b := make([]byte, 64)
		for i := range b {
			b[i] = byte(tile*31 + blk*3 + i + int(seed%7))
		}
		return b
	}
	// Layer 1 writes its outputs.
	sm.BeginLayer(1)
	for t := 0; t < tiles; t++ {
		for b := 0; b < blocks; b++ {
			sm.WriteBlock(uint64(t*blocks+b), uint32(t), 1, uint32(b), plain(t, b))
		}
	}
	// Layer 2 consumes them; the upset hits its first-read register — the
	// live Equation 1 operand — before the deferred check runs. (W and R of
	// the in-flight bank are checked one layer later; IR only by the re-read
	// invariant.)
	readAll := func() {
		for t := 0; t < tiles; t++ {
			for b := 0; b < blocks; b++ {
				sm.ReadInput(uint64(t*blocks+b), 1, uint32(t), 1, uint32(b), true)
			}
		}
	}
	sm.BeginLayer(2)
	readAll()
	sm.TamperMACRegister("FR", byte(1)<<(seed%8))
	o := Outcome{Runs: 1}
	if err := sm.VerifyPreviousLayer(mac.Digest{}); err == nil {
		o.FalseNegative = 1 // Equation 1 operand upset slipped through
		return o, nil
	}
	// Recovery: restart the consumer layer's accumulation, re-read the
	// clean inputs, re-verify.
	sm.RestartLayer()
	readAll()
	if err := sm.VerifyPreviousLayer(mac.Digest{}); err != nil {
		o.Aborted = 1 // persisted through the retry
		return o, nil
	}
	o.Recovered = 1
	return o, nil
}
