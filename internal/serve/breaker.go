package serve

import (
	"sync"
	"time"

	"seculator/internal/resilience"
)

// BreakerState is the quarantine state of one tenant's circuit breaker.
type BreakerState int32

// The quarantine state machine. A tenant starts Closed; breach-class
// errors (replay, splice, channel tampering — the typed resilience breach
// taxonomy) escalate it:
//
//	Closed ──breach──▶ Throttled ──more breaches──▶ Open ──timer──▶ HalfOpen
//	   ▲                   │                          ▲                 │
//	   │          window drains clean                 │ probe breaches  │
//	   └───────────────────┘            └─────────────┘  probes clean ──▶ Closed
//
// Throttled still admits, but only at a probation rate — one noisy-but-
// possibly-honest breach does not cut a tenant off. Open refuses
// everything until its hold expires (the hold doubles on every re-open,
// capped), then HalfOpen lets exactly one probe through at a time; enough
// consecutive clean probes close the breaker, a probe breach re-opens it.
const (
	BreakerClosed BreakerState = iota
	BreakerThrottled
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state for errors and /metrics.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerThrottled:
		return "throttled"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// QuarantineConfig shapes the per-tenant breach quarantine. The zero value
// gets defaults suitable for the simulated system.
type QuarantineConfig struct {
	// ThrottleAfter is how many breaches inside Window move a closed
	// breaker to throttled (default 1).
	ThrottleAfter int
	// OpenAfter is how many breaches inside Window open the breaker
	// (default 3).
	OpenAfter int
	// Window is the breach observation window (default 30s): breaches
	// older than it stop counting against the tenant.
	Window time.Duration
	// OpenFor is the first open hold before half-open probing (default 5s);
	// every re-open doubles it, capped at MaxOpenFor (default 60s).
	OpenFor    time.Duration
	MaxOpenFor time.Duration
	// ThrottleRPS and ThrottleBurst are the probation token bucket while
	// throttled (default 1 rps, burst 1).
	ThrottleRPS   float64
	ThrottleBurst int
	// ProbeSuccesses is how many consecutive clean half-open probes close
	// the breaker (default 2).
	ProbeSuccesses int
}

func (c *QuarantineConfig) setDefaults() {
	if c.ThrottleAfter <= 0 {
		c.ThrottleAfter = 1
	}
	if c.OpenAfter <= 0 {
		c.OpenAfter = 3
	}
	if c.OpenAfter < c.ThrottleAfter {
		c.OpenAfter = c.ThrottleAfter
	}
	if c.Window <= 0 {
		c.Window = 30 * time.Second
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 5 * time.Second
	}
	if c.MaxOpenFor <= 0 {
		c.MaxOpenFor = 60 * time.Second
	}
	if c.MaxOpenFor < c.OpenFor {
		c.MaxOpenFor = c.OpenFor
	}
	if c.ThrottleRPS <= 0 {
		c.ThrottleRPS = 1
	}
	if c.ThrottleBurst <= 0 {
		c.ThrottleBurst = 1
	}
	if c.ProbeSuccesses <= 0 {
		c.ProbeSuccesses = 2
	}
}

// Breaker is one tenant's breach-quarantine circuit breaker. All methods
// take the current time explicitly so tests drive it deterministically.
type Breaker struct {
	mu  sync.Mutex
	cfg QuarantineConfig

	state    BreakerState
	breaches []time.Time // inside the window
	until    time.Time   // open hold deadline
	opens    uint64      // times the breaker opened (monotone, for metrics)
	opensRow uint64      // consecutive opens without a close (escalation exponent)
	probing  bool        // a half-open probe is in flight
	probeOK  int         // consecutive clean probes

	throttle tokenBucket // the probation bucket while throttled
}

// NewBreaker builds a breaker with defaults applied.
func NewBreaker(cfg QuarantineConfig) *Breaker {
	cfg.setDefaults()
	return &Breaker{cfg: cfg, throttle: tokenBucket{rate: cfg.ThrottleRPS, burst: float64(cfg.ThrottleBurst)}}
}

// prune drops breaches older than the window. Caller holds b.mu.
func (b *Breaker) prune(now time.Time) {
	cut := now.Add(-b.cfg.Window)
	i := 0
	for i < len(b.breaches) && !b.breaches[i].After(cut) {
		i++
	}
	if i > 0 {
		b.breaches = append(b.breaches[:0], b.breaches[i:]...)
	}
}

// Allow decides admission for tenant work. probe reports that this request
// is the half-open probe — the caller must hand the same flag back to
// Record so the probe's outcome drives the state machine. A refusal returns
// the typed *resilience.QuarantineError carrying the state and Retry-After.
func (b *Breaker) Allow(tenant string, now time.Time) (probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.prune(now)

	if b.state == BreakerOpen && !now.Before(b.until) {
		b.state = BreakerHalfOpen
		b.probing = false
		b.probeOK = 0
	}
	if b.state == BreakerThrottled && len(b.breaches) == 0 {
		b.state = BreakerClosed
	}

	switch b.state {
	case BreakerClosed:
		return false, nil
	case BreakerThrottled:
		ok, wait := b.throttle.take(now)
		if ok {
			return false, nil
		}
		return false, &resilience.QuarantineError{
			Tenant: tenant, State: b.state.String(), Breaches: len(b.breaches),
			RetryAfter: wait,
		}
	case BreakerOpen:
		return false, &resilience.QuarantineError{
			Tenant: tenant, State: b.state.String(), Breaches: len(b.breaches),
			RetryAfter: b.until.Sub(now),
		}
	default: // BreakerHalfOpen
		if !b.probing {
			b.probing = true
			return true, nil
		}
		return false, &resilience.QuarantineError{
			Tenant: tenant, State: b.state.String(), Breaches: len(b.breaches),
			RetryAfter: b.cfg.OpenFor / 4,
		}
	}
}

// Record feeds a completed request's outcome back: breach says it latched
// a security breach, probe must be the flag Allow returned for it. It
// reports whether the breaker opened on this event (for metrics).
func (b *Breaker) Record(breach, probe bool, now time.Time) (opened bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.prune(now)
	if probe {
		b.probing = false
	}

	if breach {
		b.breaches = append(b.breaches, now)
		switch {
		case b.state == BreakerHalfOpen:
			b.open(now)
			return true
		case len(b.breaches) >= b.cfg.OpenAfter:
			b.open(now)
			return true
		case b.state == BreakerClosed && len(b.breaches) >= b.cfg.ThrottleAfter:
			b.state = BreakerThrottled
			b.throttle.last = time.Time{} // probation starts with a full bucket
		}
		return false
	}

	if b.state == BreakerHalfOpen && probe {
		b.probeOK++
		if b.probeOK >= b.cfg.ProbeSuccesses {
			b.state = BreakerClosed
			b.breaches = nil
			b.opensRow = 0
		}
	}
	if b.state == BreakerThrottled && len(b.breaches) == 0 {
		b.state = BreakerClosed
	}
	return false
}

// Release abandons a probe admission whose request never reached the NPU
// (validation failure, queue shed): the probe slot frees without counting
// as a clean probe, so a quarantined tenant cannot talk its breaker closed
// with requests that never execute.
func (b *Breaker) Release(probe bool) {
	if !probe {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// open transitions to Open with the escalated hold. Caller holds b.mu.
func (b *Breaker) open(now time.Time) {
	hold := resilience.Backoff(b.cfg.OpenFor, b.cfg.MaxOpenFor, int(b.opensRow)+1)
	b.state = BreakerOpen
	b.until = now.Add(hold)
	b.opens++
	b.opensRow++
	b.probing = false
	b.probeOK = 0
}

// State returns the current state without advancing timers.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns how many times the breaker has opened (monotone).
func (b *Breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
