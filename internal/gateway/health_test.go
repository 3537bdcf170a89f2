package gateway

import (
	"testing"
	"time"
)

// TestProberFSM drives one replica's health record through every edge of
// its state machine on a stepped clock: a failure count that a success
// resets, one ejection after FailAfter consecutive failures, an ejected
// replica deaf to successes and failures for a fixed EjectFor hold, a
// probing replica that one failure re-ejects for the same hold and
// recoverAfter successes return to service, and the drain overlay, which
// reports only its rising edge and refuses new sessions while leaving the
// replica available.
func TestProberFSM(t *testing.T) {
	cfg := HealthConfig{FailAfter: 3, EjectFor: 2 * time.Second}
	const (
		fail = iota
		succeed
		look
		drain
		undrain
	)
	type step struct {
		why      string
		at       time.Duration // since the start of the test's clock
		op       int
		edge     bool // ObserveFailure ejected, or SetDraining newly drained
		state    HealthState
		ejects   uint64
		draining bool
	}
	var steps []step
	add := func(n int, s step) {
		for i := 0; i < n; i++ {
			steps = append(steps, s)
		}
	}
	hold := cfg.EjectFor
	add(cfg.FailAfter-1, step{"FailAfter-1 failures leave it healthy", 0, fail, false, HealthHealthy, 0, false})
	add(1, step{"a success resets the count", 0, succeed, false, HealthHealthy, 0, false})
	add(cfg.FailAfter-1, step{"the count starts over", 0, fail, false, HealthHealthy, 0, false})
	add(1, step{"FailAfter consecutive failures eject", 0, fail, true, HealthEjected, 1, false})
	add(1, step{"an ejected replica ignores a success", hold / 4, succeed, false, HealthEjected, 1, false})
	add(cfg.FailAfter, step{"and failures: no re-eject, no extra ejection", hold / 2, fail, false, HealthEjected, 1, false})
	add(1, step{"the hold runs from the ejection", hold - time.Nanosecond, look, false, HealthEjected, 1, false})
	add(1, step{"EjectFor later it is probing", hold, look, false, HealthProbing, 1, false})
	add(1, step{"one probing failure re-ejects", hold, fail, true, HealthEjected, 2, false})
	add(1, step{"for the same fixed hold", 2*hold - time.Nanosecond, look, false, HealthEjected, 2, false})
	add(1, step{"then probes again", 2 * hold, look, false, HealthProbing, 2, false})
	add(recoverAfter-1, step{"short of recoverAfter successes it keeps probing", 2 * hold, succeed, false, HealthProbing, 2, false})
	add(1, step{"recoverAfter successes return it to healthy", 2 * hold, succeed, false, HealthHealthy, 2, false})
	add(cfg.FailAfter-1, step{"with a fresh failure count", 2 * hold, fail, false, HealthHealthy, 2, false})
	add(1, step{"draining reports its rising edge", 2 * hold, drain, true, HealthHealthy, 2, true})
	add(1, step{"and only that edge", 2 * hold, drain, false, HealthHealthy, 2, true})
	add(1, step{"the drain lifts", 2 * hold, undrain, false, HealthHealthy, 2, false})
	add(1, step{"a new drain is a new edge", 2 * hold, drain, true, HealthHealthy, 2, true})

	p := newProber(cfg)
	t0 := time.Unix(1_000_000, 0)
	for i, s := range steps {
		now := t0.Add(s.at)
		var edge bool
		switch s.op {
		case fail:
			edge = p.ObserveFailure(now)
		case succeed:
			p.ObserveSuccess(now)
		case drain:
			edge = p.SetDraining(true)
		case undrain:
			edge = p.SetDraining(false)
		}
		state, draining, ejects := p.Snapshot(now)
		available, accepting := p.Available(now), p.AcceptingSessions(now)
		wantAvailable := s.state != HealthEjected
		if edge != s.edge || state != s.state || ejects != s.ejects || draining != s.draining ||
			available != wantAvailable || accepting != (wantAvailable && !s.draining) {
			t.Fatalf("step %d (%s): edge %v, state %d, ejects %d, draining %v, available %v, accepting %v; "+
				"want %v, %d, %d, %v, %v, %v", i, s.why, edge, state, ejects, draining, available, accepting,
				s.edge, s.state, s.ejects, s.draining, wantAvailable, wantAvailable && !s.draining)
		}
	}
}
