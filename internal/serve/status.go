package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"seculator/internal/resilience"
)

// Error classes carried in ErrorBody.Class. They are the wire names of the
// resilience taxonomy plus the serving layer's own admission classes;
// statusFor below is the error→status table (DESIGN.md §9 renders it).
const (
	ClassBadRequest     = "bad_request"
	ClassConfig         = "config"
	ClassUnknownSession = "unknown_session"
	ClassQueueFull      = "queue_full"
	ClassDeadline       = "deadline"
	ClassShutdown       = "shutdown"
	ClassIntegrity      = "integrity"
	ClassFreshness      = "freshness"
	ClassChannel        = "channel"
	ClassInternal       = "internal"
	ClassUnauthorized   = "unauthorized"
	ClassRateLimited    = "rate_limited"
	ClassQuarantined    = "quarantined"
	ClassSnapshot       = "snapshot_integrity"
	ClassSessionExists  = "session_exists"
)

// retryAfter is the hint sent with 429/503 backpressure responses.
const retryAfter = 1 * time.Second

// badRequest is a body that is not JSON of its type, an unknown network or
// an input of the wrong length. Its message is the whole error.
type badRequest string

func (e badRequest) Error() string { return string(e) }

// rateLimited is ErrRateLimited with the wait its tenant's bucket names.
type rateLimited struct{ wait time.Duration }

func (e rateLimited) Error() string { return ErrRateLimited.Error() }
func (e rateLimited) Unwrap() error { return ErrRateLimited }

// evicted is a breach whose session the server evicted for it.
type evicted struct{ error }

func (e evicted) Unwrap() error { return e.error }

// A refusal is an error that maps itself: the gateway's own refusals.
type refusal interface{ ErrorBody() (int, ErrorBody) }

// Refuse writes the status and body statusFor maps err to and returns the
// status: every refusal of this package and of the gateway tier.
func Refuse(w http.ResponseWriter, err error) int {
	status, body := statusFor(err)
	WriteError(w, status, body)
	return status
}

// WriteError writes an error body, with a Retry-After header (whole
// seconds, rounded up) when the body carries a retry hint.
func WriteError(w http.ResponseWriter, status int, body ErrorBody) {
	if body.RetryAfterMs > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt((body.RetryAfterMs+999)/1000, 10))
	}
	WriteJSON(w, status, body)
}

// statusFor maps an error to its HTTP status and JSON body — the
// serving-layer rendering of the resilience taxonomy and the single source
// of DESIGN.md §9's error→status table:
//
//	badRequest                → 400 (unparseable body, unknown network, bad input)
//	ConfigError               → 400 (the request described an invalid run)
//	ErrSessionUnknown         → 404 (expired, evicted, or never issued)
//	FreshnessError            → 409 (replay/splice breach; session evicted)
//	ChannelError              → 409 (command-channel breach; session evicted)
//	IntegrityError            → 409 (persistent tampering on golden data)
//	ErrQueueFull              → 429 + Retry-After (admission control)
//	ErrTenantQueueFull        → 429 + Retry-After (tenant sub-queue full)
//	ErrRateLimited            → 429 + Retry-After (tenant token bucket empty)
//	ErrUnauthorized           → 401 (unknown or missing API key)
//	ErrSessionExists          → 409 (snapshot import collides with live ID)
//	QuarantineError           → 429 throttled / 451 open + Retry-After
//	SnapshotIntegrityError    → 422 (tampered or malformed snapshot)
//	deadline/cancel           → 503 + Retry-After (the request ran out of time)
//	ErrShuttingDown           → 503 + Retry-After (drain in progress)
//	a refusal                 → its own (the gateway's 502 upstream)
//	InternalError, everything else → 500
//
// 409 Conflict is deliberate for the breach classes: the request conflicted
// with the security state of the NPU (the breach latch), re-sending it
// unchanged can never succeed, and the body says what to do instead (open
// a new session).
func statusFor(err error) (int, ErrorBody) {
	var own refusal
	if errors.As(err, &own) {
		return own.ErrorBody()
	}
	var (
		ev  evicted
		br  badRequest
		rl  rateLimited
		qe  *resilience.QuarantineError
		se  *resilience.SnapshotIntegrityError
		fe  *resilience.FreshnessError
		ce  *resilience.ChannelError
		ie  *resilience.IntegrityError
		cfg *resilience.ConfigError
	)
	b := ErrorBody{Error: err.Error(), SessionEvicted: errors.As(err, &ev)}
	retry := retryAfter.Milliseconds()
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest, b.of(ClassBadRequest, 0)
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantQueueFull):
		return http.StatusTooManyRequests, b.of(ClassQueueFull, retry)
	case errors.Is(err, ErrRateLimited):
		if errors.As(err, &rl) && rl.wait.Milliseconds() > 0 {
			retry = rl.wait.Milliseconds()
		}
		return http.StatusTooManyRequests, b.of(ClassRateLimited, retry)
	case errors.Is(err, ErrUnauthorized):
		return http.StatusUnauthorized, b.of(ClassUnauthorized, 0)
	case errors.Is(err, ErrSessionExists):
		return http.StatusConflict, b.of(ClassSessionExists, 0)
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable, b.of(ClassShutdown, retry)
	case errors.Is(err, ErrSessionUnknown):
		return http.StatusNotFound, b.of(ClassUnknownSession, 0)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, b.of(ClassDeadline, retry)
	case errors.As(err, &qe):
		b = b.of(ClassQuarantined, max(qe.RetryAfter.Milliseconds(), 1))
		if qe.State == BreakerThrottled.String() {
			// Throttled is ordinary backpressure: retry slower.
			return http.StatusTooManyRequests, b
		}
		// Open/half-open refusal: the tenant is quarantined for what its own
		// traffic did, not for load — 451 keeps it distinguishable from 429
		// so clients don't treat a security quarantine as a congestion hint.
		return http.StatusUnavailableForLegalReasons, b
	case errors.As(err, &se):
		return http.StatusUnprocessableEntity, b.of(ClassSnapshot, 0)
	case errors.As(err, &fe):
		return http.StatusConflict, b.at(ClassFreshness, fe.Layer)
	case errors.As(err, &ce):
		return http.StatusConflict, b.at(ClassChannel, ce.Layer)
	case errors.As(err, &ie):
		return http.StatusConflict, b.at(ClassIntegrity, ie.Layer)
	case errors.As(err, &cfg):
		return http.StatusBadRequest, b.of(ClassConfig, 0)
	}
	return http.StatusInternalServerError, b.of(ClassInternal, 0)
}

// of sets the body's class and retry hint (0 for none).
func (b ErrorBody) of(class string, retryMs int64) ErrorBody {
	b.Class, b.RetryAfterMs = class, retryMs
	return b
}

// at sets the body's class and the layer a security violation names.
func (b ErrorBody) at(class string, layer int) ErrorBody {
	b.Class, b.Layer = class, &layer
	return b
}

// breachError reports whether err is a security breach that must evict the
// offending session: freshness and channel violations always latch the
// breach; an integrity violation only when it survived recovery.
func breachError(err error) bool {
	var fe *resilience.FreshnessError
	var ce *resilience.ChannelError
	if errors.As(err, &fe) || errors.As(err, &ce) {
		return true
	}
	var ie *resilience.IntegrityError
	return errors.As(err, &ie) && ie.Persistent
}
