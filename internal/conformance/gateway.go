package conformance

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seculator"
	"seculator/internal/gateway"
	"seculator/internal/host"
	"seculator/internal/serve"
	"seculator/internal/serve/client"
	"seculator/internal/workload"
)

// ---------------------------------------------------------------------------
// Oracle 6: attack detection through the replica-sharding gateway.
// ---------------------------------------------------------------------------

// CheckGatewayAttack replays the command-channel MITM through a 2-replica
// gateway fleet and demands the same zero-FN/zero-FP detection the
// single-process attack oracle proves, with one property only the fleet
// can exhibit: a session migrated mid-attack (hot reload removes its home
// from the ring, so the gateway live-migrates it on sealed snapshots)
// must still breach-latch on its *new* replica — migration transports the
// MAC registers and replay window, never launders an attacker's state.
//
//   - honest traffic through the gateway is a transparent proxy: zero
//     errors and an output checksum equal to the local reference;
//   - an attacked inference is detected (breach-class error) wherever the
//     session lives, and the breach latch evicts it fleet-wide (the
//     gateway's vault drops it too);
//   - after the attack stops, honest traffic is clean again.
func CheckGatewayAttack(cfg Config) error {
	var attacking atomic.Bool
	lc, err := gateway.StartLocal(gateway.LocalOptions{
		Replicas: 2,
		ServeOptions: func(int) serve.Options {
			return serve.Options{
				Tenants: []serve.TenantConfig{
					{Key: "k-good", Name: "good", Weight: 1, RateRPS: 10000, Burst: 1000, MaxPending: 64},
					{Key: "k-evil", Name: "evil", Weight: 1, RateRPS: 10000, Burst: 1000, MaxPending: 64},
				},
				// Generous quarantine: this oracle isolates detection and
				// migration; the breaker dynamics have their own campaign.
				Quarantine: serve.QuarantineConfig{
					ThrottleAfter: 50, OpenAfter: 100, Window: time.Minute,
					ThrottleRPS: 10000, ThrottleBurst: 10000,
				},
				InterceptFor: func(tenant string) host.Intercept {
					if tenant == "evil" && attacking.Load() {
						return gatewayMITM()
					}
					return nil
				},
			}
		},
	})
	if err != nil {
		return fmt.Errorf("gateway: cluster: %w", err)
	}
	defer lc.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	good := client.New(lc.GatewayURL, nil)
	good.SetAPIKey("k-good")
	evil := client.New(lc.GatewayURL, nil)
	evil.SetAPIKey("k-evil")

	// Honest phase: the gateway must be a transparent proxy — the output
	// checksum through two hops equals the local reference computation.
	net := workload.Mini()
	in, ws := seculator.RandomModel(net, cfg.Seed)
	golden, err := seculator.ReferenceInference(net, in, ws)
	if err != nil {
		return fmt.Errorf("gateway: reference: %w", err)
	}
	honest, err := good.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: cfg.Seed})
	if err != nil {
		return fmt.Errorf("gateway: honest infer rejected (false positive): %w", err)
	}
	if want := serve.OutputSum(golden); honest.OutputSum != want {
		return fmt.Errorf("gateway: proxied checksum %#x, reference %#x", honest.OutputSum, want)
	}

	// The adversary's session accumulates honest state first — the state
	// the mid-attack migration must transport without laundering.
	sess, err := evil.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		return fmt.Errorf("gateway: evil session: %w", err)
	}
	id := sess.SessionID
	if _, err := evil.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: cfg.Seed + 1, Session: id}); err != nil {
		return fmt.Errorf("gateway: evil pre-attack infer rejected (false positive): %w", err)
	}
	home := lc.Gateway.Locations()[id]
	if home == "" {
		return fmt.Errorf("gateway: evil session not vaulted")
	}

	attacking.Store(true)

	// Zero FN, plain path: a fresh attacked session is detected wherever
	// the gateway homes it.
	fresh, err := evil.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		return fmt.Errorf("gateway: fresh evil session: %w", err)
	}
	_, err = evil.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: cfg.Seed + 2, Session: fresh.SessionID})
	if err := wantBreach(err, "fresh-session attack"); err != nil {
		return err
	}

	// Mid-attack migration: remove the session's home from the ring. The
	// reload live-migrates it to the survivor on sealed snapshots.
	var survivor *gateway.ReplicaConfig
	for _, rep := range lc.Replicas {
		if rep.Name != home {
			survivor = &gateway.ReplicaConfig{Name: rep.Name, URL: rep.URL}
			break
		}
	}
	if _, err := lc.Gateway.Reload(gateway.Config{Replicas: []gateway.ReplicaConfig{*survivor}}); err != nil {
		return fmt.Errorf("gateway: mid-attack reload: %w", err)
	}
	if moved := lc.Gateway.Locations()[id]; moved != survivor.Name {
		return fmt.Errorf("gateway: session not migrated off %s (home now %q)", home, moved)
	}

	// The migrated session must still latch the breach on its new replica:
	// detection, eviction, and the gateway vault dropping it.
	_, err = evil.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: cfg.Seed + 3, Session: id})
	if err := wantBreach(err, "post-migration attack"); err != nil {
		return err
	}
	var ae *client.APIError
	if errors.As(err, &ae) && !ae.Body.SessionEvicted {
		return fmt.Errorf("gateway: post-migration breach did not evict the session")
	}
	if h := lc.Gateway.Locations()[id]; h != "" {
		return fmt.Errorf("gateway: vault still homes breached session on %s", h)
	}
	breaches, err := scrapeBreaches(ctx, survivor.URL, "evil")
	if err != nil {
		return fmt.Errorf("gateway: survivor scrape: %w", err)
	}
	if breaches < 1 {
		return fmt.Errorf("gateway: survivor %s attributes no breach to evil (got %v)", survivor.Name, breaches)
	}

	// Recovery: honest traffic through the shrunken fleet stays clean.
	attacking.Store(false)
	if _, err := good.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: cfg.Seed + 4}); err != nil {
		return fmt.Errorf("gateway: honest infer after attack rejected (false positive): %w", err)
	}
	return nil
}

// wantBreach demands a breach-class rejection: the integrity, freshness or
// channel classes the VN machinery raises. nil or any other class is a
// false negative (or a misclassified detection).
func wantBreach(err error, what string) error {
	if err == nil {
		return fmt.Errorf("gateway: %s undetected (false negative)", what)
	}
	var ae *client.APIError
	if !errors.As(err, &ae) {
		return fmt.Errorf("gateway: %s raised a non-API error: %w", what, err)
	}
	switch ae.Body.Class {
	case serve.ClassIntegrity, serve.ClassFreshness, serve.ClassChannel:
		return nil
	}
	return fmt.Errorf("gateway: %s raised class %q, want a breach class", what, ae.Body.Class)
}

// scrapeBreaches reads one replica's tenant breach counter directly from
// its /metrics — the fleet-side evidence the latch landed where the
// session lives now.
func scrapeBreaches(ctx context.Context, replicaURL, tenant string) (float64, error) {
	scrape, err := client.New(replicaURL, nil).Metrics(ctx)
	if err != nil {
		return 0, err
	}
	needle := fmt.Sprintf("seculator_serve_tenant_breaches_total{tenant=%q}", tenant)
	for _, line := range strings.Split(scrape, "\n") {
		if rest, ok := strings.CutPrefix(line, needle); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, nil
}

// gatewayMITM is the command-channel man-in-the-middle (the same splice
// the chaos campaigns mount): capture the layer-2 packet, replay it over
// layer 4 — a guaranteed version-number breach downstream.
func gatewayMITM() host.Intercept {
	var mu sync.Mutex
	var captured *host.Packet
	return func(layer int, p *host.Packet) {
		mu.Lock()
		defer mu.Unlock()
		switch layer {
		case 2:
			cp := *p
			cp.Payload = append([]byte(nil), p.Payload...)
			captured = &cp
		case 4:
			if captured != nil {
				*p = *captured
			}
		}
	}
}
