package seculator

import (
	"context"

	"seculator/internal/defence"
	"seculator/internal/host"
)

// HostCommand is one "run layer" order the host CPU issues to the NPU over
// the secure command channel just before the layer runs (Section 6.1): its
// sequence number, layer index, layer geometry and write VN triplet.
type HostCommand = host.Command

// HostPacket is the authenticated wire form of a command.
type HostPacket = host.Packet

// HostController is the CPU endpoint of the command channel.
type HostController = host.Controller

// NPUEndpoint is the accelerator endpoint: it authenticates commands and
// latches a security breach on any channel violation.
type NPUEndpoint = host.Endpoint

// NewHostController creates the CPU side for a session key.
func NewHostController(sessionKey []byte) *HostController { return host.NewController(sessionKey) }

// NewNPUEndpoint creates the NPU side for a session key.
func NewNPUEndpoint(sessionKey []byte) *NPUEndpoint { return host.NewEndpoint(sessionKey) }

// DefencePlan is a chosen Seculator+ obfuscation configuration.
type DefencePlan = defence.Plan

// DefenceOptions bound the planner's search.
type DefenceOptions = defence.Options

// DefaultDefenceOptions returns a pragmatic search space.
func DefaultDefenceOptions() DefenceOptions { return defence.DefaultOptions() }

// PlanDefenceContext searches widening factors (adding dummy-network
// injection when geometry alone cannot reach the target) for the cheapest
// Seculator+ configuration with model-extraction leakage error >= target
// and runtime overhead <= maxOverhead. The search's underlying simulations
// stop when ctx is cancelled.
func PlanDefenceContext(ctx context.Context, victim Network, cfg Config, target, maxOverhead float64, opt DefenceOptions) (DefencePlan, error) {
	return defence.PlanDefence(ctx, victim, cfg, target, maxOverhead, opt)
}

// SessionResult is a full secure-session outcome: the simulated execution
// plus command-channel accounting.
type SessionResult = host.SessionResult

// SessionIntercept lets tests/demos play the man in the middle on the
// PCIe link.
type SessionIntercept = host.Intercept

// SessionOptions extends a secure session beyond the timing simulation: a
// man-in-the-middle intercept, a functional model (Input/Weights) executed
// with layer-level detect-and-recover, a retry policy, a fault injector,
// and a DRAM-phase attack hook (Hook) for replay/splice demos.
type SessionOptions = host.SessionOptions

// RunSecureSessionContext drives the complete Figure 6 flow on the
// Seculator design: just before each layer runs, the host issues its
// authenticated command (geometry + VN triplet) and the NPU endpoint checks
// it against its plan; with a functional model (opts.Input) the layer then
// runs with every VN regenerated from the received triplet. A refused
// command stops the session at that layer with a typed ChannelError. ctx
// cancels between layers; opts can also attach a man in the middle, a
// recovery policy and a fault injector. No panic escapes.
func RunSecureSessionContext(ctx context.Context, net Network, cfg Config, sessionKey []byte, opts SessionOptions) (SessionResult, error) {
	return host.RunSession(ctx, net, cfg, sessionKey, opts)
}
