// Package resilience defines the typed error taxonomy and the layer-level
// detect-and-recover machinery of the secure execution path.
//
// Seculator verifies off-chip data at layer granularity (the
// MAC_W = MAC_FR ⊕ MAC_R check), which makes the layer the natural unit of
// recovery: a transient DRAM bit flip caught by the check can be repaired by
// re-fetching the layer's working set and re-executing the layer, while a
// violation that persists across bounded retries indicates active tampering
// (replay, splicing) and must abort the session with the breach latched.
// This package provides the vocabulary for that distinction:
//
//   - IntegrityError  — a MAC/XOR-MAC verification failure. Retryable while
//     Persistent is false; a Persistent integrity failure on host-written
//     golden data (weights, layer-0 inputs) stays an IntegrityError.
//   - FreshnessError  — a persistent violation on the versioned activation
//     path, consistent with stale-ciphertext replay or splicing. Never
//     retryable; the session must abort and the breach latch.
//   - ChannelError    — a host↔NPU command-channel authentication failure
//     (bad tag, replayed sequence number). Never retryable: the endpoint
//     latches its breach flag and requires a reboot.
//   - ConfigError     — an invalid configuration rejected at a public entry
//     point, before any simulation state is built. Never retryable.
//   - InternalError   — a panic captured at a public API boundary by
//     Recover: a programmer error surfaced as an error instead of taking
//     down the host process. Never retryable.
//
// Policy bounds how many times the loop re-executes a failed layer; the
// retries run back to back. Backoff is the exponential schedule the
// serving tier paces its breakers and clients by.
//
// Error classification rule: errors.Is/As work through every type here, so
// callers match either the concrete class (resilience.IntegrityError) or the
// wrapped sentinel (mac.ErrIntegrity, host channel errors).
package resilience

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// TensorClass names the data class an integrity violation hit.
type TensorClass string

// The tensor classes carried by integrity and freshness errors.
const (
	ClassInput      TensorClass = "input"      // layer-0 inputs (host golden)
	ClassWeight     TensorClass = "weight"     // per-layer weights (host golden)
	ClassActivation TensorClass = "activation" // inter-layer activations (VN path)
	ClassPartial    TensorClass = "partial"    // in-layer partial sums
	ClassOutput     TensorClass = "output"     // final outputs at host readout
)

// IntegrityError reports a failed MAC verification: which layer, which data
// class, and (when known) the block address. Persistent marks a failure that
// survived the bounded retry policy.
type IntegrityError struct {
	Layer      int         // layer index the check covered (-1 if unknown)
	Tensor     TensorClass // data class of the failed check
	Addr       uint64      // offending block address, 0 if not localized
	Persistent bool        // survived all retries
	Err        error       // underlying check failure (wraps mac.ErrIntegrity)
}

// Error implements error.
func (e *IntegrityError) Error() string {
	state := "transient?"
	if e.Persistent {
		state = "persistent"
	}
	return fmt.Sprintf("integrity violation (%s) on %s data, layer %d: %v",
		state, e.Tensor, e.Layer, e.Err)
}

// Unwrap exposes the underlying verification error.
func (e *IntegrityError) Unwrap() error { return e.Err }

// FreshnessError reports a persistent violation on the versioned activation
// path — the signature of a replay or splice of stale ciphertext, which
// re-fetching cannot repair. It wraps the final IntegrityError.
type FreshnessError struct {
	Layer   int         // layer whose verification kept failing
	Tensor  TensorClass // data class (activation or output)
	Retries int         // recovery attempts that all failed
	Err     error       // the last integrity failure
}

// Error implements error.
func (e *FreshnessError) Error() string {
	return fmt.Sprintf("freshness violation on %s data, layer %d (persisted across %d retries): %v",
		e.Tensor, e.Layer, e.Retries, e.Err)
}

// Unwrap exposes the final integrity failure.
func (e *FreshnessError) Unwrap() error { return e.Err }

// ChannelError reports a host↔NPU command-channel authentication failure.
type ChannelError struct {
	Layer int   // index of the refused command (-1 if not per-layer)
	Err   error // underlying authentication failure
}

// Error implements error.
func (e *ChannelError) Error() string {
	return fmt.Sprintf("command channel violation at layer %d: %v", e.Layer, e.Err)
}

// Unwrap exposes the underlying channel failure.
func (e *ChannelError) Unwrap() error { return e.Err }

// ConfigError reports an invalid configuration rejected at an API boundary.
type ConfigError struct {
	Err error
}

// Error implements error.
func (e *ConfigError) Error() string { return fmt.Sprintf("invalid configuration: %v", e.Err) }

// Unwrap exposes the underlying validation failure.
func (e *ConfigError) Unwrap() error { return e.Err }

// QuarantineError reports that a tenant's work was refused by the serving
// layer's breach quarantine: the tenant accumulated security breaches and
// its per-tenant circuit breaker is throttled or open. It is the
// service-level escalation of the per-session breach latch — the session
// died with its breach, the tenant is contained here. Never retryable
// before RetryAfter elapses.
type QuarantineError struct {
	Tenant     string        // tenant the breaker contains
	State      string        // breaker state ("throttled", "open", "half-open")
	Breaches   int           // breach events inside the observation window
	RetryAfter time.Duration // when the breaker will consider work again
}

// Error implements error.
func (e *QuarantineError) Error() string {
	return fmt.Sprintf("tenant %s quarantined (breaker %s after %d breaches), retry after %v",
		e.Tenant, e.State, e.Breaches, e.RetryAfter)
}

// SnapshotIntegrityError reports that an imported session snapshot failed
// its integrity check: the envelope MAC did not verify, the version is
// unknown, or the payload does not decode. A snapshot is host-golden data
// crossing a trust boundary; a failed check means tampering or corruption
// and the import must not create any session state. Never retryable.
type SnapshotIntegrityError struct {
	Reason string // what failed ("mac", "version", "payload")
	Err    error  // underlying failure, when one exists
}

// Error implements error.
func (e *SnapshotIntegrityError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("session snapshot integrity violation (%s): %v", e.Reason, e.Err)
	}
	return fmt.Sprintf("session snapshot integrity violation (%s)", e.Reason)
}

// Unwrap exposes the underlying failure.
func (e *SnapshotIntegrityError) Unwrap() error { return e.Err }

// InternalError is a panic captured at a public API boundary.
type InternalError struct {
	Value any    // the recovered panic value
	Stack []byte // stack trace at the panic site
}

// Error implements error.
func (e *InternalError) Error() string {
	return fmt.Sprintf("internal error (recovered panic): %v", e.Value)
}

// Retryable reports whether layer-level re-execution can plausibly repair
// the failure: only non-persistent integrity violations qualify. Freshness,
// channel, config and internal errors never do.
func Retryable(err error) bool {
	// Terminal classes first: a FreshnessError wraps the final
	// IntegrityError, so the outermost classification must win.
	var fe *FreshnessError
	var ce *ChannelError
	var cfg *ConfigError
	var internal *InternalError
	var quar *QuarantineError
	var snap *SnapshotIntegrityError
	if errors.As(err, &fe) || errors.As(err, &ce) || errors.As(err, &cfg) ||
		errors.As(err, &internal) || errors.As(err, &quar) || errors.As(err, &snap) {
		return false
	}
	var ie *IntegrityError
	if errors.As(err, &ie) {
		return !ie.Persistent
	}
	return false
}

// Recover is the panic backstop for public API boundaries: deferred as
//
//	defer resilience.Recover(&err)
//
// it converts a panic on the data path into an *InternalError assigned to
// *errp, so no library panic ever escapes a public entry point.
func Recover(errp *error) {
	if r := recover(); r != nil {
		*errp = &InternalError{Value: r, Stack: debug.Stack()}
	}
}
