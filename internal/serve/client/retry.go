package client

import (
	"errors"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"seculator/internal/resilience"
)

// retry.go — capped exponential backoff with jitter for backpressure
// responses. The policy retries only rejections that re-sending an
// unchanged request can cure: 429 (queue full, rate limited) and 503
// (deadline, drain), optionally transport errors. It deliberately does NOT
// retry 451 quarantine refusals (the tenant is cut off for what its traffic
// did — hammering the breaker only keeps it open), 409 breaches (the
// session is evicted; re-sending can never succeed), or any 4xx request
// error. A server Retry-After hint, when longer than the computed backoff,
// wins: the server knows its own queue.

// RetryPolicy shapes the client's automatic retries. The zero value
// disables them.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (<=1 disables retries).
	MaxAttempts int
	// BaseDelay is the first backoff (default 50ms); each retry doubles it,
	// capped at MaxDelay (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter is the uniform ± fraction applied to each delay (default 0.2,
	// clamped to [0,1]).
	Jitter float64
	// Seed makes the jitter sequence deterministic for tests; 0 seeds from
	// BaseDelay (still deterministic, but distinct policies diverge).
	Seed int64
	// RetryTransport also retries transport-level failures (connection
	// refused, reset) — useful against a restarting server, wrong against
	// a non-idempotent API. The serving API's inference is a pure function
	// of the request, so the chaos harness turns this on.
	RetryTransport bool
}

func (p *RetryPolicy) setDefaults() {
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
}

// retrier is the runtime state of a policy: the jitter source is shared
// across a client's concurrent requests, so it locks.
type retrier struct {
	policy RetryPolicy
	mu     *sync.Mutex
	rng    *rand.Rand
}

func newRetrier(p RetryPolicy) retrier {
	p.setDefaults()
	seed := p.Seed
	if seed == 0 {
		seed = int64(p.BaseDelay)
	}
	return retrier{policy: p, mu: &sync.Mutex{}, rng: rand.New(rand.NewSource(seed))}
}

// next decides whether attempt's failure is retried and with what delay.
func (r retrier) next(attempt int, err error) (time.Duration, bool) {
	if attempt >= r.policy.MaxAttempts-1 || !retryable(err, r.policy.RetryTransport) {
		return 0, false
	}
	return r.delay(attempt, retryAfterHint(err)), true
}

// retryable classifies an error: 429/503 API rejections always, transport
// errors when asked, everything else never.
func retryable(err error, transport bool) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.StatusCode == http.StatusTooManyRequests ||
			ae.StatusCode == http.StatusServiceUnavailable
	}
	return transport
}

// retryAfterHint extracts the server's Retry-After (zero if none).
func retryAfterHint(err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.RetryAfter()
	}
	return 0
}

// delay computes the attempt's backoff: doubled base capped at max,
// jittered, floored at the server hint.
func (r retrier) delay(attempt int, hint time.Duration) time.Duration {
	d := resilience.Backoff(r.policy.BaseDelay, r.policy.MaxDelay, attempt+1)
	r.mu.Lock()
	f := 1 + r.policy.Jitter*(2*r.rng.Float64()-1)
	r.mu.Unlock()
	// Jitter scales in floating point and caps there: a product at or past
	// the cap must not wrap on its way back to a Duration.
	if j := float64(d) * f; j < float64(r.policy.MaxDelay) {
		d = time.Duration(j)
	} else {
		d = r.policy.MaxDelay
	}
	if hint > d {
		d = hint
	}
	if d > r.policy.MaxDelay {
		d = r.policy.MaxDelay
	}
	return d
}
