package seculator

import (
	"seculator/internal/fault"
	"seculator/internal/mem"
	"seculator/internal/resilience"
)

// The resilience error taxonomy. Every failure surfaced by RunContext,
// RunAllContext, RunSecureSessionContext and SecureInferenceContext is (or
// wraps) one of these typed errors; match with errors.As.
type (
	// IntegrityError reports an XOR-MAC or per-block MAC verification
	// failure, carrying the layer, tensor class and persistence verdict.
	IntegrityError = resilience.IntegrityError
	// FreshnessError reports a persistent replay/splice-signature violation
	// on versioned data; the session is aborted and the breach latched.
	FreshnessError = resilience.FreshnessError
	// ChannelError reports a host-NPU command-channel violation.
	ChannelError = resilience.ChannelError
	// ConfigError reports an invalid configuration at a public entry point.
	ConfigError = resilience.ConfigError
	// InternalError wraps a recovered panic that crossed a public API
	// boundary — always a bug, never an expected outcome.
	InternalError = resilience.InternalError
)

// TensorClass names the data class an integrity violation hit.
type TensorClass = resilience.TensorClass

// Tensor classes carried by IntegrityError and FreshnessError.
const (
	ClassInput      = resilience.ClassInput
	ClassWeight     = resilience.ClassWeight
	ClassActivation = resilience.ClassActivation
	ClassPartial    = resilience.ClassPartial
	ClassOutput     = resilience.ClassOutput
)

// Retryable reports whether err is worth a layer-level retry: true only
// for transient integrity violations, false for persistent tampering,
// freshness, channel, config and internal errors.
func Retryable(err error) bool { return resilience.Retryable(err) }

// RetryPolicy bounds the layer-level detect-and-recover loop: maximum
// re-executions per layer. Retries run back to back; none waits on a clock.
type RetryPolicy = resilience.Policy

// DefaultRetryPolicy returns the executor's default recovery policy
// (3 retries).
func DefaultRetryPolicy() RetryPolicy { return resilience.DefaultPolicy() }

// NoRetryPolicy disables layer-level recovery: the first violation aborts.
func NoRetryPolicy() RetryPolicy { return resilience.Disabled() }

// RecoveryStats counts detect-and-recover activity across a run.
type RecoveryStats = resilience.Stats

// FaultInjector mutates blocks on the functional DRAM's read/write paths;
// see the constructors below for the built-in fault models.
type FaultInjector = mem.Injector

// NewBitFlipInjector returns a seeded injector flipping one random bit of
// a read block with probability rate — the transient-upset model.
func NewBitFlipInjector(rate float64, seed int64) *BitFlipInjector {
	return fault.NewBitFlip(rate, seed)
}

// BitFlipInjector is the random single-bit-flip fault model.
type BitFlipInjector = fault.BitFlip

// NewStuckAtInjector returns an injector forcing one bit of every
// period-th stored block — the persistent stuck-at fault model.
func NewStuckAtInjector(period, phase uint64, bit uint) *StuckAtInjector {
	return fault.NewStuckAt(period, phase, bit)
}

// StuckAtInjector is the persistent stuck-at fault model.
type StuckAtInjector = fault.StuckAt

// NewBurstInjector returns a seeded injector corrupting a span of
// consecutive reads — the burst-noise model.
func NewBurstInjector(start, count uint64, bytesPerRead int, seed int64) *BurstInjector {
	return fault.NewBurst(start, count, bytesPerRead, seed)
}

// BurstInjector is the burst-corruption fault model.
type BurstInjector = fault.Burst

// NewReplayInjector returns an injector that snapshots the first write to
// every line and persistently serves the stale ciphertext once a line is
// overwritten — the classic replay attack as a fault model.
func NewReplayInjector() *ReplayInjector { return fault.NewReplay() }

// ReplayInjector is the stale-ciphertext replay fault model.
type ReplayInjector = fault.Replay

// FaultKind enumerates the campaign's injectable fault classes.
type FaultKind = fault.Kind

// The campaign fault classes.
const (
	FaultBitFlip     = fault.KindBitFlip
	FaultStuckAt     = fault.KindStuckAt
	FaultBurst       = fault.KindBurst
	FaultReplay      = fault.KindReplay
	FaultMACRegister = fault.KindMACRegister
)

// FaultKinds returns every campaign fault class.
func FaultKinds() []FaultKind { return fault.Kinds() }

// FaultCampaign sweeps fault models and rates against the secure executor
// and reports detection/recovery outcomes per point.
type FaultCampaign = fault.Campaign

// FaultPoint is one (fault, rate) campaign sample.
type FaultPoint = fault.Point

// RunFaultCampaign executes the campaign; see fault.Campaign.
var RunFaultCampaign = fault.Run
