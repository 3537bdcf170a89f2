package serve_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"seculator/internal/resilience"
	"seculator/internal/serve"
)

// The breaker FSM under a hand-driven clock: throttle on the first breach,
// open on the third, escalate the hold on re-open, recover through
// half-open probes.
func TestBreakerStateMachine(t *testing.T) {
	b := serve.NewBreaker(serve.QuarantineConfig{
		ThrottleAfter: 1, OpenAfter: 3, Window: time.Minute,
		OpenFor: time.Second, MaxOpenFor: 8 * time.Second,
		ThrottleRPS: 1000, ThrottleBurst: 1000, ProbeSuccesses: 2,
	})
	now := time.Unix(1000, 0)

	// Closed admits freely.
	probe, err := b.Allow("t", now)
	if probe || err != nil {
		t.Fatalf("closed breaker: probe=%v err=%v", probe, err)
	}
	// First breach: throttled, still admitting (big probation bucket).
	if opened := b.Record(true, false, now); opened {
		t.Fatal("one breach must not open")
	}
	if st := b.State(); st != serve.BreakerThrottled {
		t.Fatalf("state %v, want throttled", st)
	}
	if _, err := b.Allow("t", now); err != nil {
		t.Fatalf("throttled probation should admit: %v", err)
	}
	// Second and third breach: opens.
	b.Record(true, false, now)
	if opened := b.Record(true, false, now); !opened {
		t.Fatal("third breach in window must open")
	}
	if st := b.State(); st != serve.BreakerOpen {
		t.Fatalf("state %v, want open", st)
	}
	// Open refuses with a Retry-After bounded by the hold.
	_, err = b.Allow("t", now)
	var qe *resilience.QuarantineError
	if !errors.As(err, &qe) || qe.RetryAfter <= 0 || qe.RetryAfter > time.Second {
		t.Fatalf("open refusal: %v", err)
	}
	// Before the hold expires: still refused.
	if _, err := b.Allow("t", now.Add(900*time.Millisecond)); err == nil {
		t.Fatal("hold not yet expired")
	}
	// After the hold: half-open, exactly one probe at a time.
	now = now.Add(1100 * time.Millisecond)
	probe, err = b.Allow("t", now)
	if !probe || err != nil {
		t.Fatalf("first half-open admission should be the probe: probe=%v err=%v", probe, err)
	}
	if _, err := b.Allow("t", now); err == nil {
		t.Fatal("second admission during an in-flight probe must refuse")
	}
	// The probe breaches: re-open with a doubled hold.
	if opened := b.Record(true, true, now); !opened {
		t.Fatal("probe breach must re-open")
	}
	if _, err := b.Allow("t", now.Add(1500*time.Millisecond)); err == nil {
		t.Fatal("escalated hold (2s) should still refuse at +1.5s")
	}
	now = now.Add(2100 * time.Millisecond)
	// Two clean probes close the breaker.
	for i := 0; i < 2; i++ {
		probe, err = b.Allow("t", now)
		if !probe || err != nil {
			t.Fatalf("probe %d: probe=%v err=%v", i, probe, err)
		}
		b.Record(false, probe, now)
		now = now.Add(10 * time.Millisecond)
	}
	if st := b.State(); st != serve.BreakerClosed {
		t.Fatalf("state %v after clean probes, want closed", st)
	}
	if b.Opens() != 2 {
		t.Fatalf("opens = %d, want 2", b.Opens())
	}
	// Closing reset the escalation: a fresh open uses the base hold again.
	for i := 0; i < 3; i++ {
		b.Record(true, false, now)
	}
	_, err = b.Allow("t", now)
	if !errors.As(err, &qe) || qe.RetryAfter > time.Second {
		t.Fatalf("escalation not reset after close: %v", err)
	}
}

// The throttled probation bucket sheds above its own rate with a
// Retry-After, and the window draining clean closes the breaker.
func TestBreakerThrottleBucketAndWindow(t *testing.T) {
	b := serve.NewBreaker(serve.QuarantineConfig{
		ThrottleAfter: 1, OpenAfter: 10, Window: time.Second,
		ThrottleRPS: 1, ThrottleBurst: 1,
	})
	now := time.Unix(2000, 0)
	b.Record(true, false, now)
	if st := b.State(); st != serve.BreakerThrottled {
		t.Fatalf("state %v, want throttled", st)
	}
	if _, err := b.Allow("t", now); err != nil {
		t.Fatalf("burst token: %v", err)
	}
	_, err := b.Allow("t", now)
	var qe *resilience.QuarantineError
	if !errors.As(err, &qe) || qe.State != "throttled" || qe.RetryAfter <= 0 {
		t.Fatalf("empty probation bucket should refuse with Retry-After: %v", err)
	}
	// The breach ages out of the window: closed again, unlimited.
	now = now.Add(2 * time.Second)
	if _, err := b.Allow("t", now); err != nil {
		t.Fatalf("window drained, should be closed: %v", err)
	}
	if st := b.State(); st != serve.BreakerClosed {
		t.Fatalf("state %v after window drain, want closed", st)
	}
}

// Release frees an abandoned probe slot without counting a clean probe, so
// non-executing requests cannot close a breaker.
func TestBreakerProbeRelease(t *testing.T) {
	b := serve.NewBreaker(serve.QuarantineConfig{
		ThrottleAfter: 1, OpenAfter: 1, Window: time.Minute,
		OpenFor: time.Second, ProbeSuccesses: 1,
	})
	now := time.Unix(3000, 0)
	b.Record(true, false, now) // opens (OpenAfter: 1)
	now = now.Add(1100 * time.Millisecond)
	probe, err := b.Allow("t", now)
	if !probe || err != nil {
		t.Fatalf("want probe: %v", err)
	}
	b.Release(probe)
	if st := b.State(); st != serve.BreakerHalfOpen {
		t.Fatalf("release must not close: state %v", st)
	}
	// The slot is free again for a real probe.
	probe, err = b.Allow("t", now)
	if !probe || err != nil {
		t.Fatalf("slot not freed: %v", err)
	}
	b.Record(false, probe, now)
	if st := b.State(); st != serve.BreakerClosed {
		t.Fatalf("clean probe should close: state %v", st)
	}
}

// An escalating hold saturates at MaxOpenFor instead of wrapping. With a
// 1 h first hold, no effective cap and every half-open probe breaching,
// the 22nd re-open doubles past math.MaxInt64 nanoseconds; a wrapped hold
// would admit the next probe at once and leave every later hold at zero,
// so the quarantine would stop holding anyone.
func TestBreakerHoldSaturates(t *testing.T) {
	b := serve.NewBreaker(serve.QuarantineConfig{OpenAfter: 1, OpenFor: time.Hour, MaxOpenFor: math.MaxInt64})
	now := time.Unix(1000, 0)
	if opened := b.Record(true, false, now); !opened {
		t.Fatal("first breach must open with OpenAfter 1")
	}
	hold := time.Hour
	for reopen := 1; reopen <= 30; reopen++ {
		_, err := b.Allow("t", now)
		var qe *resilience.QuarantineError
		if !errors.As(err, &qe) || qe.RetryAfter != hold {
			t.Fatalf("open %d: refusal %v, want a hold of %v", reopen, err, hold)
		}
		now = now.Add(hold)
		probe, err := b.Allow("t", now)
		if !probe || err != nil {
			t.Fatalf("open %d: expired hold admits no probe: probe=%v err=%v", reopen, probe, err)
		}
		if opened := b.Record(true, probe, now); !opened {
			t.Fatalf("open %d: breaching probe did not re-open", reopen)
		}
		if hold > math.MaxInt64/2 {
			hold = math.MaxInt64
		} else {
			hold *= 2
		}
	}
}
