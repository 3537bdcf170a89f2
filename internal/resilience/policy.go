package resilience

import (
	"math"
	"time"
)

// Policy bounds the layer-level recovery loop: how many re-executions a
// failed layer gets. A retry re-fetches the layer's working set and
// re-derives its VNs, which depends on the schedule alone, so retries run
// back to back: nothing in the recovery waits on a clock.
type Policy struct {
	MaxRetries int // re-executions after the first failure (0 or less disables recovery)
}

// DefaultPolicy returns the recovery policy of the simulated system: three
// layer re-executions.
func DefaultPolicy() Policy { return Policy{MaxRetries: 3} }

// Disabled returns the fail-fast policy: every detection is terminal. It is
// not the zero Policy, so options structs that read the zero value as "use
// DefaultPolicy" still honour it.
func Disabled() Policy { return Policy{MaxRetries: -1} }

// Backoff returns the wait before retry attempt n (1-based) of an
// exponential schedule: base, 2·base, 4·base, … capped at limit (0 means
// uncapped). Uncapped, it saturates at the longest Duration instead of
// overflowing. It paces another party (a breaker's open hold, a client's
// retry delay); layer recovery never waits.
func Backoff(base, limit time.Duration, attempt int) time.Duration {
	if base <= 0 || attempt <= 0 {
		return 0
	}
	d := base
	for i := 1; i < attempt; i++ {
		if d > math.MaxInt64/2 {
			return math.MaxInt64
		}
		d *= 2
		if limit > 0 && d >= limit {
			return limit
		}
	}
	if limit > 0 && d > limit {
		return limit
	}
	return d
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
