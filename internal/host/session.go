package host

import (
	"context"
	"fmt"
	"sync"

	"seculator/internal/dataflow"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/pattern"
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

// ReplayIntercept is the command-replay man in the middle: it copies layer
// capture's packet, payload included, and writes the copy over layer
// replay's packet, an authentic command the endpoint must refuse as stale.
// Before any capture, layer replay's packet passes untouched. Each call
// returns a fresh attacker, safe for concurrent use.
func ReplayIntercept(capture, replay int) Intercept {
	var mu sync.Mutex
	var captured *Packet
	return func(layer int, p *Packet) {
		mu.Lock()
		defer mu.Unlock()
		switch layer {
		case capture:
			cp := *p
			cp.Payload = append([]byte(nil), p.Payload...)
			captured = &cp
		case replay:
			if captured != nil {
				*p = *captured
			}
		}
	}
}

// SessionOptions extends a secure session beyond the timing simulation.
type SessionOptions struct {
	// Intercept, when non-nil, is the PCIe man in the middle.
	Intercept Intercept

	// Input and Weights, when Input is non-nil, make the session run the
	// network functionally through the encrypted Seculator path, each
	// layer on the command it just received, with layer-level
	// detect-and-recover.
	Input   *nn.Tensor
	Weights []*nn.Weights

	// Retry is the recovery policy of the functional execution; the zero
	// policy uses resilience.DefaultPolicy() and resilience.Disabled()
	// disables recovery.
	Retry resilience.Policy

	// Injector, when non-nil, attaches a fault injector to the functional
	// execution's DRAM.
	Injector mem.Injector

	// Hook, when non-nil, interposes an attacker between the functional
	// execution's phases (see secure.Hook) — the DRAM-level counterpart to
	// Intercept's command-channel man in the middle. Tests and demos use it
	// to mount replay/splice attacks against a session's encrypted memory.
	Hook secure.Hook

	// BaseSeq seeds the command channel's sequence window (NewChannel).
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

// Channel is one session's command link, the secure.CommandSource of its
// executor: for layer i the host issues its command, the man in the middle
// (if any) sees the packet in flight, and the NPU endpoint authenticates it
// and checks it against the layer it is about to run.
type Channel struct {
	ctrl      Controller
	npu       Endpoint
	intercept Intercept
}

// NewChannel builds both ends of a session's channel, intercept (nil: the
// honest link) between them. Sequence numbers continue after baseSeq, a
// session's last persisted one: replay protection spans its whole life.
func NewChannel(sessionKey []byte, baseSeq uint64, intercept Intercept) *Channel {
	return &Channel{
		ctrl:      Controller{mac: newSessionMAC(sessionKey), seq: baseSeq},
		npu:       Endpoint{mac: newSessionMAC(sessionKey), lastSeq: baseSeq},
		intercept: intercept,
	}
}

// Command runs layer i's exchange and returns the write triplet the NPU
// received. The NPU refuses a packet that fails authentication or
// sequencing, and an authentic command whose layer index, geometry or
// triplet is not its own plan's — what a compromised host library would
// send. A refusal latches the breach and is a ChannelError at layer i.
func (ch *Channel) Command(i int, planned sched.Choice) (pattern.Triplet, error) {
	want := Command{LayerIndex: uint32(i), Layer: planned.Layer, Triplet: dataflow.DeriveWrite(planned.Mapping)}
	pkt := ch.ctrl.Issue(want)
	if ch.intercept != nil {
		ch.intercept(i, &pkt)
	}
	got, err := ch.npu.Receive(pkt)
	want.Seq, want.Layer.Name = got.Seq, "" // layer names are not on the wire
	if err == nil && got != want {
		ch.npu.breach = true
		err = fmt.Errorf("%w: got %+v, want %+v", ErrChannel, got, want)
	}
	if err != nil {
		return pattern.Triplet{}, &resilience.ChannelError{Layer: i, Err: fmt.Errorf("host: layer %d command refused: %w", i, err)}
	}
	return got.Triplet, nil
}

// LastSeq returns the sequence number of the last command issued.
func (ch *Channel) LastSeq() uint64 { return ch.ctrl.seq }

// RunSession drives the complete Figure 6 flow for one inference on the
// Seculator design: just before each layer runs, its command crosses the
// session's Channel. With a model (opts.Input) the executor runs each layer
// on the triplet it received; without one the commands are exchanged in a
// plain loop. A refused command stops the session at that layer with a
// typed resilience.ChannelError (reboot required) and no output. The
// result is the simulated execution of the network with the channel's
// accounting and — with a model — the functional output and its recovery
// statistics. ctx cancels between layers; no panic escapes.
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
	ch := NewChannel(sessionKey, opts.BaseSeq, opts.Intercept)
	if opts.Input == nil {
		choices, err := sched.MapNetworkCached(net, cfg.NPU, cfg.DRAM)
		if err != nil {
			return SessionResult{}, err
		}
		for i, c := range choices {
			if err := ctx.Err(); err != nil {
				return SessionResult{}, err
			}
			if _, err := ch.Command(i, c); err != nil {
				return SessionResult{}, err
			}
		}
	} else {
		x := secure.NewExecutor()
		x.NPU, x.DRAM = cfg.NPU, cfg.DRAM
		x.Commands = ch
		x.Injector = opts.Injector
		x.AfterPhase = opts.Hook
		x.OnLayerMACs = opts.OnLayerMACs
		x.Residency = opts.Residency
		if opts.Retry != (resilience.Policy{}) {
			x.Retry = opts.Retry
		}
		fr, err := x.Run(ctx, net, opts.Input, opts.Weights)
		res.Output, res.Recovery = fr.Output, fr.Recovery
		if err != nil {
			return res, err
		}
	}

	// The timing simulation is a pure function of (net, design, cfg); the
	// memoized path lets a serving host run many sessions of the same model
	// without re-simulating every request.
	if res.Result, err = runner.RunCached(ctx, net, protect.Seculator, cfg); err != nil {
		return SessionResult{}, err
	}
	res.Commands, res.LastSeq = len(net.Layers), ch.LastSeq() // a command per layer, all accepted
	return res, nil
}
