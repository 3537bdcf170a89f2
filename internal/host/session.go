package host

import (
	"context"
	"fmt"

	"seculator/internal/dataflow"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/protect"
	"seculator/internal/resilience"
	"seculator/internal/runner"
	"seculator/internal/sched"
	"seculator/internal/secure"
	"seculator/internal/workload"
)

// SessionResult is the outcome of a full secure session: the simulated
// execution plus the command-channel accounting, and — when the session
// carried a functional model — the decrypted output with its layer-level
// recovery statistics.
type SessionResult struct {
	runner.Result
	Commands int // authenticated layer commands delivered
	// LastSeq is the channel sequence number of the final command issued —
	// the continuation point a stateful session persists so replay
	// protection spans inferences (and snapshot/restore cycles).
	LastSeq uint64

	// Output is the functional inference result when Options.Input was
	// provided; nil for timing-only sessions.
	Output *nn.Tensor
	// Recovery reports detect-and-recover activity of the functional
	// execution (zero for timing-only sessions).
	Recovery resilience.Stats
}

// Intercept lets tests play the man in the middle on the PCIe link: it may
// mutate the packet in flight. A nil Intercept is the honest link.
type Intercept func(layer int, p *Packet)

// SessionOptions extends a secure session beyond the timing simulation.
type SessionOptions struct {
	// Intercept, when non-nil, is the PCIe man in the middle.
	Intercept Intercept

	// Input and Weights, when Input is non-nil, make the session run the
	// commanded network functionally through the encrypted Seculator path
	// after the command phase, with layer-level detect-and-recover.
	Input   *nn.Tensor
	Weights []*nn.Weights

	// Retry is the recovery policy of the functional execution; the zero
	// policy uses resilience.DefaultPolicy().
	Retry resilience.Policy

	// Injector, when non-nil, attaches a fault injector to the functional
	// execution's DRAM.
	Injector mem.Injector

	// Hook, when non-nil, interposes an attacker between the functional
	// execution's phases (see secure.Hook) — the DRAM-level counterpart to
	// Intercept's command-channel man in the middle. Tests and demos use it
	// to mount replay/splice attacks against a session's encrypted memory.
	Hook secure.Hook

	// BaseSeq seeds the command channel's sequence window: the controller
	// issues BaseSeq+1 first and the endpoint rejects anything at or below
	// BaseSeq. A stateful session passes its last persisted sequence here so
	// the strictly-increasing guarantee holds across inferences and across
	// snapshot/restore, not just within one RunSession call.
	BaseSeq uint64

	// OnLayerMACs, when non-nil, observes the functional execution's XOR-MAC
	// registers at every layer boundary (see secure.Executor.OnLayerMACs) —
	// the final observation is the MAC-register state a session snapshot
	// carries.
	OnLayerMACs func(phase int, regs protect.RegisterState)

	// Residency, when non-nil, attaches the functional execution to a
	// pinned verify-once-then-resident weight cache
	// (secure.Executor.Residency); it is ignored — the full provisioning
	// path runs — unless it matches the session's config and weights and
	// no Hook/Injector is installed.
	Residency *secure.WeightResidency
}

// RunSession drives the complete Figure 6 flow for one inference on the
// Seculator design: the host maps every layer, derives its VN triplet, and
// issues an authenticated command over the session-key channel; the NPU
// endpoint authenticates each command and cross-checks the triplet against
// its own derivation from the commanded layer before executing. Any channel
// violation aborts the session with a typed resilience.ChannelError (reboot
// required). The returned result is the simulated execution of the
// commanded network, plus — when opts carries a model — the functional
// output and its recovery statistics. ctx cancels between layers; no panic
// escapes.
func RunSession(ctx context.Context, net workload.Network, cfg runner.Config, sessionKey []byte,
	opts SessionOptions) (res SessionResult, err error) {

	defer resilience.Recover(&err)
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return SessionResult{}, &resilience.ConfigError{Err: err}
	}
	if err := net.Validate(); err != nil {
		return SessionResult{}, &resilience.ConfigError{Err: err}
	}
	choices, err := sched.MapNetworkCached(net, cfg.NPU, cfg.DRAM)
	if err != nil {
		return SessionResult{}, err
	}
	ctrl := NewControllerAt(sessionKey, opts.BaseSeq)
	npu := NewEndpointAt(sessionKey, opts.BaseSeq)

	for i, c := range choices {
		if err := ctx.Err(); err != nil {
			return SessionResult{}, err
		}
		cmd := Command{
			LayerIndex: uint32(i),
			Layer:      c.Layer,
			Triplet:    dataflow.DeriveWrite(c.Mapping),
		}
		pkt := ctrl.Issue(cmd)
		if opts.Intercept != nil {
			opts.Intercept(i, &pkt)
		}
		rcvd, err := npu.Receive(pkt)
		if err != nil {
			return SessionResult{}, &resilience.ChannelError{
				Layer: i, Err: fmt.Errorf("host: layer %d command refused: %w", i, err),
			}
		}
		// The NPU sanity-checks the commanded triplet against its own
		// derivation for the commanded layer — a forged-but-authenticated
		// command from a compromised host library would diverge here.
		m, err := sched.MapCached(rcvd.Layer, cfg.NPU, cfg.DRAM)
		if err != nil {
			return SessionResult{}, fmt.Errorf("host: layer %d: commanded layer unmappable: %w", i, err)
		}
		if want := dataflow.DeriveWrite(m.Mapping); want != rcvd.Triplet {
			return SessionResult{}, &resilience.ChannelError{
				Layer: i,
				Err: fmt.Errorf("%w: layer %d triplet %v != derived %v",
					ErrChannel, i, rcvd.Triplet, want),
			}
		}
	}

	// The timing simulation is a pure function of (net, design, cfg); the
	// memoized path lets a serving host run many sessions of the same model
	// without re-simulating every request.
	r, err := runner.RunCached(ctx, net, protect.Seculator, cfg)
	if err != nil {
		return SessionResult{}, err
	}
	res = SessionResult{Result: r, Commands: len(choices), LastSeq: ctrl.LastSeq()}

	if opts.Input != nil {
		x := secure.NewExecutor()
		x.NPU, x.DRAM = cfg.NPU, cfg.DRAM
		x.Injector = opts.Injector
		x.AfterPhase = opts.Hook
		x.OnLayerMACs = opts.OnLayerMACs
		x.Residency = opts.Residency
		if opts.Retry != (resilience.Policy{}) {
			x.Retry = opts.Retry
		}
		fr, err := x.Run(ctx, net, opts.Input, opts.Weights)
		res.Recovery = fr.Recovery
		if err != nil {
			return res, fmt.Errorf("host: functional execution: %w", err)
		}
		res.Output = fr.Output
	}
	return res, nil
}
