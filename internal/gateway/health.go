package gateway

import (
	"sync"
	"time"
)

// health.go — per-replica availability tracking. The state machine
// mirrors the tenant quarantine Breaker of internal/serve, transposed
// from "is this tenant attacking us" to "is this replica alive":
//
//	Healthy ──FailAfter consecutive failures──▶ Ejected ──EjectFor──▶ Probing
//	   ▲                                           ▲                    │
//	   │                                           │ probe failure      │
//	   └──────── recoverAfter clean probes ────────┴────────────────────┘
//
// The gateway fails open: a replica starts Healthy and serves traffic
// until observed otherwise, so a cold gateway in front of a warm fleet
// never blackholes requests waiting for its first probe round. Failures
// come from two feeds — the active /healthz prober and forward-path
// transport errors — so a dead replica ejects after FailAfter quick
// forward failures without waiting out probe intervals.
//
// Draining is deliberately not a state of this FSM: a draining replica is
// *healthy* (it finishes in-flight requests and still serves
// session inference while its sessions migrate away); it just refuses new
// placements. It is tracked as an overlay flag read from the replica's
// own /healthz status.

// HealthState is one replica's availability state.
type HealthState int32

const (
	HealthHealthy HealthState = iota
	HealthEjected
	HealthProbing
)

const (
	// probeTimeout bounds one /healthz round trip.
	probeTimeout = 2 * time.Second
	// recoverAfter is how many consecutive probe successes return an
	// ejected replica to service.
	recoverAfter = 2
)

// HealthConfig shapes the prober. The zero value gets defaults sized for
// the simulated system (sub-second detection without probe spam).
type HealthConfig struct {
	// ProbeInterval is the active /healthz probe period (default 500ms).
	ProbeInterval time.Duration
	// FailAfter is how many consecutive failures (probe or forward) eject
	// a replica (default 3).
	FailAfter int
	// EjectFor is the hold before an ejected replica is probed again
	// (default 2s).
	EjectFor time.Duration
}

func (c *HealthConfig) setDefaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 3
	}
	if c.EjectFor <= 0 {
		c.EjectFor = 2 * time.Second
	}
}

// prober is one replica's health record. All methods take the current
// time explicitly so tests drive the FSM deterministically.
type prober struct {
	mu  sync.Mutex
	cfg HealthConfig

	state    HealthState
	fails    int       // consecutive failures while Healthy
	oks      int       // consecutive successes while Probing
	until    time.Time // eject hold deadline
	draining bool      // overlay: replica reported "draining"
	ejects   uint64    // monotone ejection count (metrics)
}

func newProber(cfg HealthConfig) *prober {
	cfg.setDefaults()
	return &prober{cfg: cfg, state: HealthHealthy}
}

// advance moves Ejected→Probing once the hold expires. Caller holds p.mu.
func (p *prober) advance(now time.Time) {
	if p.state == HealthEjected && !now.Before(p.until) {
		p.state = HealthProbing
		p.oks = 0
	}
}

// Available reports whether the replica may receive forwarded traffic:
// healthy, or probing (half-open lets real requests double as probes).
func (p *prober) Available(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advance(now)
	return p.state != HealthEjected
}

// AcceptingSessions reports whether new sessions may be placed here:
// available and not draining.
func (p *prober) AcceptingSessions(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advance(now)
	return p.state != HealthEjected && !p.draining
}

// ObserveSuccess feeds one successful probe or forward.
func (p *prober) ObserveSuccess(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advance(now)
	switch p.state {
	case HealthHealthy:
		p.fails = 0
	case HealthProbing:
		p.oks++
		if p.oks >= recoverAfter {
			p.state = HealthHealthy
			p.fails = 0
		}
	}
}

// ObserveFailure feeds one failed probe or forward-path transport error.
// It reports whether this observation ejected the replica.
func (p *prober) ObserveFailure(now time.Time) (ejected bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advance(now)
	switch p.state {
	case HealthHealthy:
		p.fails++
		if p.fails >= p.cfg.FailAfter {
			p.eject(now)
			return true
		}
	case HealthProbing:
		// One bad probe re-ejects: a recovering replica earns its way
		// back with recoverAfter consecutive successes.
		p.eject(now)
		return true
	}
	return false
}

// eject transitions to Ejected. Caller holds p.mu.
func (p *prober) eject(now time.Time) {
	p.state = HealthEjected
	p.until = now.Add(p.cfg.EjectFor)
	p.fails = 0
	p.oks = 0
	p.ejects++
}

// SetDraining updates the drain overlay from a probe's /healthz body and
// reports whether the flag newly turned on (the evacuate trigger).
func (p *prober) SetDraining(d bool) (newlyDraining bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	newlyDraining = d && !p.draining
	p.draining = d
	return newlyDraining
}

// Snapshot returns (state, draining, ejections) for /metrics.
func (p *prober) Snapshot(now time.Time) (HealthState, bool, uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.advance(now)
	return p.state, p.draining, p.ejects
}
