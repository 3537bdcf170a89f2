package resilience

import (
	"context"
	"math"
	"time"
)

// Policy bounds the layer-level recovery loop: how many re-executions a
// failed layer gets and how the backoff between them grows. Backoff is
// exponential (Base, 2·Base, 4·Base, …) capped at Max; the wait is
// context-aware so cancellation and deadlines cut recovery short.
//
// A wait is a runtime timer, so a sub-millisecond backoff sleeps to the
// timer's granularity: on a 2-vCPU Linux x86 VM (go1.24) waits of 100, 200
// and 400 µs each take ≈ 1.07 ms at the median (EXPERIMENTS E32). The
// default policy's three retries therefore cost ≈ 3.2 ms of sleep, which
// is most of a detected-tamper run.
type Policy struct {
	MaxRetries int           // re-executions after the first failure (0 disables recovery)
	Base       time.Duration // first backoff; 0 means no waiting between retries
	Max        time.Duration // backoff cap; 0 means uncapped
}

// DefaultPolicy returns the recovery policy of the simulated system: three
// layer re-executions with a short exponential backoff. The backoff models
// the DRAM scrub window a real controller would allow a transient upset to
// clear in; it is deliberately tiny so simulations stay fast.
func DefaultPolicy() Policy {
	return Policy{MaxRetries: 3, Base: 100 * time.Microsecond, Max: 5 * time.Millisecond}
}

// Disabled returns the fail-fast policy: every detection is terminal.
func Disabled() Policy { return Policy{} }

// BackoffFor returns the wait before retry attempt n (1-based). Uncapped, it
// saturates at the longest Duration instead of overflowing.
func (p Policy) BackoffFor(attempt int) time.Duration {
	if p.Base <= 0 || attempt <= 0 {
		return 0
	}
	d := p.Base
	for i := 1; i < attempt; i++ {
		if d > math.MaxInt64/2 {
			return math.MaxInt64
		}
		d *= 2
		if p.Max > 0 && d >= p.Max {
			return p.Max
		}
	}
	if p.Max > 0 && d > p.Max {
		return p.Max
	}
	return d
}

// Wait sleeps the backoff for retry attempt n (1-based), returning early
// with the context's error if it is cancelled first.
func (p Policy) Wait(ctx context.Context, attempt int) error {
	d := p.BackoffFor(attempt)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Stats counts recovery activity across one run or session.
type Stats struct {
	Retries    int  // layer re-executions performed
	Recovered  int  // layers that verified after at least one retry
	Persistent int  // layers whose violation survived every retry
	Breached   bool // the run aborted with the security breach latched
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Retries += o.Retries
	s.Recovered += o.Recovered
	s.Persistent += o.Persistent
	s.Breached = s.Breached || o.Breached
}
