// mix.go — the named serving-workload registry. The paper's evaluation
// sweeps a fixed benchmark grid; the serving tier's knobs (scheduler
// workers and queue bound, residency, quarantine, gateway spread) win or lose
// depending entirely on traffic *shape*. A Mix pins one shape down
// declaratively — model distribution, session behaviour, tenancy, arrival
// curve, attack fraction, residency policy — so the scenario runner can
// replay it, emit percentile trajectories, and gate regressions per mix
// (modeled on the T1–T5 OLTP/OLAP benchmark matrices).
package workload

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// ModelShare weights one network in a mix's model-shape distribution.
// Streams are assigned networks round-robin over the weight-expanded list,
// so a {Mini:2, ResNet18/16:1} mix offers two Mini streams per ResNet one.
type ModelShare struct {
	Network string `json:"network"`
	Weight  int    `json:"weight"`
}

// ArrivalKind names the offered-rate curve family of a mix.
type ArrivalKind string

// The arrival curve families.
const (
	// ArrivalConstant offers one flat rate for the whole run.
	ArrivalConstant ArrivalKind = "constant"
	// ArrivalRamp steps the rate from RPS up to PeakRPS in Steps equal
	// phases — the warming-traffic shape that exposes cold caches.
	ArrivalRamp ArrivalKind = "ramp"
	// ArrivalBurst alternates RPS and PeakRPS square-wave style for Steps
	// periods — the bursty shape that exposes shed behaviour and queueing
	// under pressure.
	ArrivalBurst ArrivalKind = "burst"
)

// ArrivalCurve is a mix's open-loop offered-rate trajectory. Each expanded
// phase runs at one constant target rate; Poisson controls whether arrivals
// inside a phase space uniformly or memorylessly.
type ArrivalCurve struct {
	Kind    ArrivalKind `json:"kind"`
	RPS     float64     `json:"rps"`                // base (low) rate
	PeakRPS float64     `json:"peak_rps,omitempty"` // ramp end / burst high
	Steps   int         `json:"steps,omitempty"`    // ramp steps or burst periods (default 3)
	Poisson bool        `json:"poisson,omitempty"`  // exponential inter-arrivals
}

// MixPhase is one constant-rate slice of an expanded arrival curve.
type MixPhase struct {
	Name string  `json:"name"`
	RPS  float64 `json:"rps"`
	Frac float64 `json:"frac"` // fraction of the run duration
}

// Phases expands the curve into its constant-rate slices; the fractions
// always sum to 1 so a runner splits any total duration exactly.
func (c ArrivalCurve) Phases() []MixPhase {
	steps := c.Steps
	if steps <= 0 {
		steps = 3
	}
	switch c.Kind {
	case ArrivalRamp:
		out := make([]MixPhase, 0, steps)
		for i := 0; i < steps; i++ {
			rps := c.RPS
			if steps > 1 {
				rps += (c.PeakRPS - c.RPS) * float64(i) / float64(steps-1)
			}
			out = append(out, MixPhase{
				Name: fmt.Sprintf("ramp-%d", i+1),
				RPS:  rps,
				Frac: 1 / float64(steps),
			})
		}
		return out
	case ArrivalBurst:
		out := make([]MixPhase, 0, 2*steps)
		for i := 0; i < steps; i++ {
			out = append(out,
				MixPhase{Name: fmt.Sprintf("calm-%d", i+1), RPS: c.RPS, Frac: 1 / float64(2*steps)},
				MixPhase{Name: fmt.Sprintf("burst-%d", i+1), RPS: c.PeakRPS, Frac: 1 / float64(2*steps)},
			)
		}
		return out
	default:
		return []MixPhase{{Name: "steady", RPS: c.RPS, Frac: 1}}
	}
}

// Validate checks the curve is runnable.
func (c ArrivalCurve) Validate() error {
	if c.RPS <= 0 {
		return fmt.Errorf("workload: arrival curve needs RPS > 0, got %v", c.RPS)
	}
	switch c.Kind {
	case ArrivalConstant:
	case ArrivalRamp, ArrivalBurst:
		if c.PeakRPS < c.RPS {
			return fmt.Errorf("workload: %s curve needs PeakRPS >= RPS (%v < %v)", c.Kind, c.PeakRPS, c.RPS)
		}
	default:
		return fmt.Errorf("workload: unknown arrival kind %q", c.Kind)
	}
	if f := sumFrac(c.Phases()); f < 0.999 || f > 1.001 {
		return fmt.Errorf("workload: %s curve phases cover %v of the run, want 1", c.Kind, f)
	}
	return nil
}

func sumFrac(ps []MixPhase) float64 {
	var f float64
	for _, p := range ps {
		f += p.Frac
	}
	return f
}

// Mix is one named serving workload: everything the scenario runner needs
// to reproduce a traffic shape against the serving stack.
type Mix struct {
	// Name is the registry key ("W1"…); Title and Description are for the
	// report.
	Name        string `json:"name"`
	Title       string `json:"title"`
	Description string `json:"description"`

	// Models is the model-shape distribution offered (registry names,
	// including "Name/div" shrink forms and "Mini").
	Models []ModelShare `json:"models"`
	// Tenants is the honest-tenant count; offered load splits evenly
	// across them.
	Tenants int `json:"tenants"`
	// SessionRatio is the fraction of honest tenant streams bound to
	// secure sessions (the command channel joins the measured path).
	SessionRatio float64 `json:"session_ratio"`
	// SessionEvery, for session streams, rotates to a fresh session every
	// N arrivals — the churn-heavy shape. Zero holds one session per
	// stream per phase.
	SessionEvery int `json:"session_every,omitempty"`
	// AttackFraction is the fraction of total offered load that is
	// attack-laced: a dedicated adversarial tenant drives replay-MITM
	// traffic at that share of the curve's rate.
	AttackFraction float64 `json:"attack_fraction,omitempty"`
	// Arrival is the offered-rate trajectory.
	Arrival ArrivalCurve `json:"arrival"`
	// Residency enables the verified-weight residency cache on the server
	// under test; FixedModel pins every honest request to one model seed
	// (the hit-path serving shape) instead of a model per request (the
	// residency-hostile shape).
	Residency  bool `json:"residency"`
	FixedModel bool `json:"fixed_model,omitempty"`
	// Replicas > 1 runs the mix against an in-process replica fleet behind
	// the gateway instead of a single server.
	Replicas int `json:"replicas,omitempty"`
}

// Validate checks the mix is runnable, resolving every model name against
// the registry (shrunk forms included).
func (m Mix) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("workload: mix has no name")
	}
	if len(m.Models) == 0 {
		return fmt.Errorf("workload: mix %s has no models", m.Name)
	}
	for _, ms := range m.Models {
		if ms.Weight <= 0 {
			return fmt.Errorf("workload: mix %s: model %q has weight %d", m.Name, ms.Network, ms.Weight)
		}
		if _, err := ResolveShape(ms.Network); err != nil {
			return fmt.Errorf("workload: mix %s: %w", m.Name, err)
		}
	}
	if m.Tenants <= 0 {
		return fmt.Errorf("workload: mix %s has %d tenants", m.Name, m.Tenants)
	}
	if m.SessionRatio < 0 || m.SessionRatio > 1 {
		return fmt.Errorf("workload: mix %s session ratio %v out of [0,1]", m.Name, m.SessionRatio)
	}
	if m.AttackFraction < 0 || m.AttackFraction >= 1 {
		return fmt.Errorf("workload: mix %s attack fraction %v out of [0,1)", m.Name, m.AttackFraction)
	}
	if err := m.Arrival.Validate(); err != nil {
		return fmt.Errorf("workload: mix %s: %w", m.Name, err)
	}
	return nil
}

// ModelCycle expands the weighted model distribution into the repeating
// assignment cycle streams draw from.
func (m Mix) ModelCycle() []string {
	var cycle []string
	for _, ms := range m.Models {
		for i := 0; i < ms.Weight; i++ {
			cycle = append(cycle, ms.Network)
		}
	}
	return cycle
}

// PhaseDurations splits a total run duration across the curve's phases.
func (m Mix) PhaseDurations(total time.Duration) []time.Duration {
	phases := m.Arrival.Phases()
	out := make([]time.Duration, len(phases))
	for i, p := range phases {
		out[i] = time.Duration(p.Frac * float64(total))
	}
	return out
}

// Mini is the serving demo network: one layer of every type, small enough
// that a functional secure inference completes in milliseconds — the unit
// of work for load generation, smoke tests and most workload mixes.
func Mini() Network {
	return Network{
		Name: "Mini",
		Note: "serving demo network (conv/pool/depthwise/pointwise/FC)",
		Layers: []Layer{
			{Name: "c1", Type: Conv, C: 3, H: 12, W: 12, K: 8, R: 3, S: 3, Stride: 1},
			{Name: "p1", Type: Pool, C: 8, H: 12, W: 12, K: 8, R: 2, S: 2, Stride: 2, Valid: true},
			{Name: "dw", Type: Depthwise, C: 8, H: 6, W: 6, K: 8, R: 3, S: 3, Stride: 1},
			{Name: "pw", Type: Pointwise, C: 8, H: 6, W: 6, K: 16, R: 1, S: 1, Stride: 1},
			{Name: "fc", Type: FC, C: 16 * 6 * 6, H: 1, W: 1, K: 10, R: 1, S: 1, Stride: 1},
		},
	}
}

// ResolveShape resolves a mix model name: "Mini", a registry network, or
// "Name/div" for a shrunk benchmark.
func ResolveShape(name string) (Network, error) {
	if name == Mini().Name {
		return Mini(), nil
	}
	if n, err := ByName(name); err == nil {
		return n, nil
	}
	if base, divs, ok := strings.Cut(name, "/"); ok {
		if div, err := strconv.Atoi(divs); err == nil {
			if n, err := ByName(base); err == nil {
				return Shrink(n, div)
			}
		}
	}
	return Network{}, fmt.Errorf("workload: unknown model shape %q", name)
}

// Mixes returns the named workload suite, W1–W6. Rates are sized for the
// one-core CI container: every mix completes a short-iteration smoke in a
// few seconds while still separating the phases' percentile trajectories.
func Mixes() []Mix {
	return []Mix{
		{
			Name:        "W1",
			Title:       "small-model-burst",
			Description: "stateless Mini traffic in Poisson square-wave bursts: shed behaviour and queueing under pressure",
			Models:      []ModelShare{{Network: "Mini", Weight: 1}},
			Tenants:     2,
			Arrival:     ArrivalCurve{Kind: ArrivalBurst, RPS: 40, PeakRPS: 240, Steps: 2, Poisson: true},
			Residency:   true,
			FixedModel:  true,
		},
		{
			Name:         "W2",
			Title:        "deep-model-steady",
			Description:  "one pinned deep model (MobileNet/8, 28 layers) on sessions at a steady Poisson rate: the residency hit path end to end",
			Models:       []ModelShare{{Network: "MobileNet/8", Weight: 1}},
			Tenants:      1,
			SessionRatio: 1,
			Arrival:      ArrivalCurve{Kind: ArrivalConstant, RPS: 20, Poisson: true},
			Residency:    true,
			FixedModel:   true,
		},
		{
			Name:         "W3",
			Title:        "session-churn",
			Description:  "session-bound Mini traffic rotating sessions every few requests: session setup joins the steady-state path",
			Models:       []ModelShare{{Network: "Mini", Weight: 1}},
			Tenants:      2,
			SessionRatio: 1,
			SessionEvery: 4,
			Arrival:      ArrivalCurve{Kind: ArrivalConstant, RPS: 60, Poisson: true},
			Residency:    true,
			FixedModel:   true,
		},
		{
			Name:           "W4",
			Title:          "attack-laced",
			Description:    "honest Mini traffic with a quarter of offered load replay-MITM attacks from one adversarial tenant: quarantine cost on the honest path",
			Models:         []ModelShare{{Network: "Mini", Weight: 1}},
			Tenants:        2,
			SessionRatio:   0.5,
			AttackFraction: 0.25,
			Arrival:        ArrivalCurve{Kind: ArrivalConstant, RPS: 60, Poisson: true},
			Residency:      true,
			FixedModel:     true,
		},
		{
			Name:        "W5",
			Title:       "mixed-designs",
			Description: "three model shapes with a fresh model seed per request on a ramp: the residency-hostile worst case",
			Models: []ModelShare{
				{Network: "Mini", Weight: 2},
				{Network: "ResNet18/16", Weight: 1},
				{Network: "MobileNet/16", Weight: 1},
			},
			Tenants:   4,
			Arrival:   ArrivalCurve{Kind: ArrivalRamp, RPS: 30, PeakRPS: 120, Steps: 3, Poisson: true},
			Residency: false,
		},
		{
			Name:         "W6",
			Title:        "gateway-pair",
			Description:  "mixed session/stateless Mini traffic through the 2-replica gateway fleet: routing, spread and the proxy hop under load",
			Models:       []ModelShare{{Network: "Mini", Weight: 1}},
			Tenants:      2,
			SessionRatio: 0.5,
			Arrival:      ArrivalCurve{Kind: ArrivalConstant, RPS: 80, Poisson: true},
			Residency:    true,
			FixedModel:   true,
			Replicas:     2,
		},
	}
}

// MixByName returns the named mix ("W1" or its title) or an error listing
// the registry.
func MixByName(name string) (Mix, error) {
	var names []string
	for _, m := range Mixes() {
		if m.Name == name || m.Title == name {
			return m, nil
		}
		names = append(names, m.Name)
	}
	return Mix{}, fmt.Errorf("workload: unknown mix %q (have %s)", name, strings.Join(names, ", "))
}
