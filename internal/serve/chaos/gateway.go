package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"seculator/internal/gateway"
	"seculator/internal/metrics"
	"seculator/internal/serve"
	"seculator/internal/serve/client"
	"seculator/internal/serve/loadgen"
)

// gateway.go — the multi-replica campaign: kill a replica under load
// behind the replica-sharding gateway and prove the fleet absorbs it.
//
// The single-process campaign (chaos.Run) already proves tenant isolation
// and snapshot-carried restarts; this campaign proves the *routing* layer:
// while stateless traffic flows through the gateway, one replica dies
// abruptly mid-run, and
//
//   - every live session homed on the victim fails over to a survivor
//     with bit-identical sealed state (zero session loss),
//   - the open-loop traffic sees no errors: the gateway's
//     retry-once-on-alternate budget absorbs the crash entirely,
//   - the gateway's own evidence agrees: the victim was ejected and the
//     failover migrations are counted.

// GatewayOptions shapes a gateway campaign.
type GatewayOptions struct {
	// Seed drives the deterministic parts (load seeds).
	Seed int64
	// Replicas is the fleet size (default 3, min 2 — someone must survive).
	Replicas int
	// Sessions is how many live sessions ride through the kill (default 4).
	Sessions int
	// RPS is the stateless open-loop rate through the gateway (default 50).
	RPS float64
	// Duration is the traffic window; the kill lands halfway (default 2s).
	Duration time.Duration
	// Logf, when set, narrates the campaign.
	Logf func(format string, args ...any)
}

func (o *GatewayOptions) setDefaults() {
	if o.Replicas < 2 {
		o.Replicas = 3
	}
	if o.Sessions <= 0 {
		o.Sessions = 4
	}
	if o.RPS <= 0 {
		o.RPS = 50
	}
	if o.Duration <= 0 {
		o.Duration = 2 * time.Second
	}
}

// GatewayResult is the campaign outcome.
type GatewayResult struct {
	Victim     string         // replica killed mid-run
	Moved      int            // sessions that failed over off the victim
	Sessions   int            // live sessions carried through the campaign
	Traffic    loadgen.Report // the open-loop stateless run
	Ejections  float64        // gateway replica ejections at campaign end
	Failovers  float64        // gateway failover migrations at campaign end
	Violations []string
}

// Ok reports whether every invariant held.
func (r GatewayResult) Ok() bool { return len(r.Violations) == 0 }

// String renders the outcome for humans.
func (r GatewayResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gateway chaos: killed %s, %d/%d sessions failed over, %v ejections, %v failover migrations\n",
		r.Victim, r.Moved, r.Sessions, r.Ejections, r.Failovers)
	fmt.Fprintf(&b, "traffic: %d sent, %d ok, %d shed, %d errors, p99 %v\n",
		r.Traffic.Sent, r.Traffic.OK, r.Traffic.Shed,
		r.Traffic.Sent-r.Traffic.OK-r.Traffic.Shed, r.Traffic.P99.Round(time.Millisecond))
	for name, rs := range r.Traffic.ByReplica {
		fmt.Fprintf(&b, "  replica %s: %d ok  p99 %v\n", name, rs.OK, rs.P99.Round(time.Millisecond))
	}
	if r.Ok() {
		fmt.Fprintf(&b, "gateway campaign PASS\n")
	} else {
		fmt.Fprintf(&b, "gateway campaign FAIL: %d violations\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  - %s\n", v)
		}
	}
	return b.String()
}

// sealedSeq peeks the replay-window position out of a sealed payload (the
// payload is plain JSON; only its integrity is MAC-protected).
func sealedSeq(payload []byte) uint64 {
	var st struct {
		LastSeq uint64 `json:"last_seq"`
	}
	_ = json.Unmarshal(payload, &st)
	return st.LastSeq
}

// RunGateway executes the replica-kill campaign. The error covers harness
// failures; invariant breaks land in GatewayResult.Violations.
func RunGateway(ctx context.Context, opts GatewayOptions) (GatewayResult, error) {
	opts.setDefaults()
	res := GatewayResult{Sessions: opts.Sessions}

	lc, err := gateway.StartLocal(gateway.LocalOptions{
		Replicas: opts.Replicas,
		Gateway: gateway.Options{
			Health: gateway.HealthConfig{
				ProbeInterval: 50 * time.Millisecond,
				FailAfter:     2,
				EjectFor:      300 * time.Millisecond,
			},
		},
	})
	if err != nil {
		return res, fmt.Errorf("gateway chaos: cluster: %w", err)
	}
	defer lc.Stop()
	logf := func(format string, args ...any) {
		if opts.Logf != nil {
			opts.Logf(format, args...)
		}
	}
	gc := client.New(lc.GatewayURL, nil)

	// Phase 1: open the live sessions and give each durable state; the last
	// piggybacked snapshot per session is the bit-identity reference.
	type liveSession struct {
		id      string
		payload []byte
		sum     uint64
	}
	sessions := make([]liveSession, 0, opts.Sessions)
	for i := 0; i < opts.Sessions; i++ {
		sres, err := gc.CreateSession(ctx, serve.SessionCreateRequest{})
		if err != nil {
			return res, fmt.Errorf("gateway chaos: session %d: %w", i, err)
		}
		var ls liveSession
		ls.id = sres.SessionID
		for j := 0; j < 2; j++ {
			resp, err := gc.Infer(ctx, serve.InferRequest{
				Network: network, Seed: opts.Seed + int64(i*10+j),
				Session: ls.id, ReturnSnapshot: true,
			})
			if err != nil {
				return res, fmt.Errorf("gateway chaos: warm session %d: %w", i, err)
			}
			if resp.Snapshot == nil {
				return res, fmt.Errorf("gateway chaos: session %d infer returned no snapshot", i)
			}
			ls.payload = resp.Snapshot.Payload
			ls.sum = resp.OutputSum
		}
		sessions = append(sessions, ls)
	}

	// The victim is the replica homing the most sessions (ties break on
	// name) so the kill always exercises failover.
	homes := lc.Gateway.Locations()
	count := make(map[string]int)
	for _, ls := range sessions {
		count[homes[ls.id]]++
	}
	for name, n := range count {
		if name == "" {
			return res, fmt.Errorf("gateway chaos: %d sessions not vaulted", n)
		}
		if res.Victim == "" || n > count[res.Victim] || (n == count[res.Victim] && name < res.Victim) {
			res.Victim = name
		}
	}
	victimSessions := count[res.Victim]
	logf("gateway chaos: %d replicas, %d sessions (%d homed on victim %s)",
		opts.Replicas, len(sessions), victimSessions, res.Victim)

	// Phase 2: stateless open-loop traffic; the kill lands halfway through.
	trafficDone := make(chan struct{})
	var trafficErr error
	go func() {
		defer close(trafficDone)
		res.Traffic, trafficErr = loadgen.Run(ctx, gc, loadgen.Options{
			RPS: opts.RPS, Duration: opts.Duration, Network: network,
		})
	}()
	select {
	case <-time.After(opts.Duration / 2):
	case <-ctx.Done():
		return res, ctx.Err()
	}
	logf("gateway chaos: killing %s mid-traffic", res.Victim)
	lc.Kill(res.Victim)

	// Failover completes when no session calls the victim home anymore.
	moveDeadline := time.Now().Add(15 * time.Second)
	for {
		moved := 0
		homes = lc.Gateway.Locations()
		for _, ls := range sessions {
			if h := homes[ls.id]; h != "" && h != res.Victim {
				moved++
			}
		}
		if moved == len(sessions) {
			break
		}
		if time.Now().After(moveDeadline) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("failover incomplete: %d/%d sessions off the victim after 15s", moved, len(sessions)))
			break
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-ctx.Done():
			return res, ctx.Err()
		}
	}
	res.Moved = victimSessions
	<-trafficDone
	if trafficErr != nil {
		return res, fmt.Errorf("gateway chaos: traffic: %w", trafficErr)
	}

	// Phase 3: zero session loss, bit-identically. Every session's sealed
	// state on its survivor must equal the last payload its old home
	// acknowledged, and inference must continue with the replay window
	// advancing — never rewinding (a rewind would be a resurrected MAC
	// register fork, exactly what the liveness-checked failover prevents).
	for i, ls := range sessions {
		snap, err := gc.SnapshotSession(ctx, ls.id)
		if err != nil {
			res.Violations = append(res.Violations,
				fmt.Sprintf("session %d lost after kill: %v", i, err))
			continue
		}
		if !bytes.Equal(snap.Snapshot.Payload, ls.payload) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("session %d state diverged across failover", i))
			continue
		}
		resp, err := gc.Infer(ctx, serve.InferRequest{
			Network: network, Seed: opts.Seed + 1000 + int64(i),
			Session: ls.id, ReturnSnapshot: true,
		})
		if err != nil {
			res.Violations = append(res.Violations,
				fmt.Sprintf("session %d infer after failover: %v", i, err))
			continue
		}
		if resp.Commands == 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("session %d post-failover inference skipped the command channel", i))
		}
		if resp.Replica == res.Victim {
			res.Violations = append(res.Violations,
				fmt.Sprintf("session %d served by the dead replica %s", i, res.Victim))
		}
		if resp.Snapshot != nil && sealedSeq(resp.Snapshot.Payload) <= sealedSeq(ls.payload) {
			res.Violations = append(res.Violations,
				fmt.Sprintf("session %d replay window rewound across failover", i))
		}
	}

	// Traffic invariant: the crash must be absorbed by the retry budget.
	if errs := res.Traffic.Sent - res.Traffic.OK - res.Traffic.Shed; errs > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("traffic: %d errors (%v)", errs, res.Traffic.Errors))
	}
	if res.Traffic.OK == 0 {
		res.Violations = append(res.Violations, "traffic: nothing completed")
	}

	// The gateway's own evidence: the victim was ejected and the failovers
	// were counted and attributed.
	scrape, err := gc.Metrics(ctx)
	if err != nil {
		return res, fmt.Errorf("gateway chaos: final scrape: %w", err)
	}
	res.Ejections, _ = metrics.Value(scrape, "seculator_gateway_replica_ejections_total", "replica", res.Victim)
	res.Failovers, _ = metrics.Value(scrape, "seculator_gateway_migrations_total", "reason", "failover")
	if res.Ejections < 1 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("victim %s never ejected (ejections=%v)", res.Victim, res.Ejections))
	}
	if res.Failovers < float64(victimSessions) {
		res.Violations = append(res.Violations,
			fmt.Sprintf("failover migrations %v < victim sessions %d", res.Failovers, victimSessions))
	}
	if v, _ := metrics.Value(scrape, "seculator_gateway_requests_total", "code", "502"); v > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("gateway returned %v upstream 502s", v))
	}
	logf("gateway chaos: done (%d violations)", len(res.Violations))
	return res, nil
}
