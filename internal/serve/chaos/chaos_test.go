package chaos_test

import (
	"context"
	"testing"
	"time"

	"seculator/internal/serve"
	"seculator/internal/serve/chaos"
)

// The acceptance campaign: one adversarial tenant at 2x its rate limit
// lacing traffic with command replays, one slow tenant stalling in the
// executor, one strict honest tenant on sessions — with a full process
// restart between the attack and recovery phases. Every isolation
// invariant must hold: honest error rate 0, honest p99 within 2x baseline,
// the adversary's breaker opens and recovers via half-open probes, and the
// restart restores the snapshotted sessions bit-identically.
func TestChaosCampaign(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	res, err := chaos.Run(ctx, chaos.Options{
		Seed: 1,
		Plans: []chaos.TenantPlan{
			{
				Tenant:   serve.TenantConfig{Key: "k-good", Name: "good", Weight: 2, RateRPS: 200, Burst: 50, MaxPending: 64},
				RPS:      30,
				Sessions: true,
			},
			{
				Tenant:           serve.TenantConfig{Key: "k-slow", Name: "slow", Weight: 1, RateRPS: 200, Burst: 50, MaxPending: 64},
				RPS:              10,
				SlowEveryLayerMs: 2,
			},
			{
				Tenant:      serve.TenantConfig{Key: "k-evil", Name: "evil", Weight: 1, RateRPS: 40, Burst: 10, MaxPending: 64},
				RPS:         20,
				Adversarial: true, // AttackRPS defaults to 2x the rate limit
			},
		},
		Scheduler:   serve.SchedulerConfig{Workers: 4, MaxQueue: 256},
		Quarantine:  serve.QuarantineConfig{ThrottleAfter: 1, OpenAfter: 3, Window: time.Minute, OpenFor: 50 * time.Millisecond, MaxOpenFor: 300 * time.Millisecond, ThrottleRPS: 1000, ThrottleBurst: 1000, ProbeSuccesses: 2},
		SnapshotKey: []byte("chaos-campaign-snapshot-key-----"),
		PhaseFor:    time.Second,
		Restart:     true,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatalf("campaign harness: %v", err)
	}
	t.Logf("\n%s", res)
	if !res.Ok() {
		t.Fatalf("isolation invariants violated:\n%s", res)
	}
	if !res.RestartVerified {
		t.Fatal("mid-campaign restart not verified bit-identical")
	}
	if res.BreakerOpens["evil"] < 1 {
		t.Fatalf("adversary breaker opens = %v", res.BreakerOpens["evil"])
	}
	// The attack really was offered at ~2x the rate limit, and the
	// adversary really was refused service while quarantined.
	atk := res.Reports[chaos.PhaseAttack]["evil"]
	if atk.Sent < 40 {
		t.Fatalf("adversary only offered %d attack requests", atk.Sent)
	}
	if atk.OK+len(atk.Errors) == 0 {
		t.Fatal("adversary attack traffic produced no outcomes")
	}
}

// A campaign with no adversary and no restart still runs and passes — the
// harness itself must not manufacture violations.
func TestChaosQuietCampaign(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := chaos.Run(ctx, chaos.Options{
		Seed: 7,
		Plans: []chaos.TenantPlan{
			{Tenant: serve.TenantConfig{Key: "k-a", Name: "a", Weight: 1, RateRPS: 200, Burst: 50, MaxPending: 64}, RPS: 20, Sessions: true},
			{Tenant: serve.TenantConfig{Key: "k-b", Name: "b", Weight: 1, RateRPS: 200, Burst: 50, MaxPending: 64}, RPS: 20},
		},
		Scheduler: serve.SchedulerConfig{Workers: 2, MaxQueue: 128},
		PhaseFor:  400 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("campaign harness: %v", err)
	}
	if !res.Ok() {
		t.Fatalf("quiet campaign violated invariants:\n%s", res)
	}
}
