package serve_test

import (
	"errors"
	"sync"
	"testing"

	"seculator"
	"seculator/internal/host"
	"seculator/internal/serve"
	"seculator/internal/serve/client"
	"seculator/internal/workload"
)

// Server-level residency and concurrency tests: running requests at once
// and the resident weight cache must be invisible to clients except in
// speed — same checksums as the one-worker configuration and the local
// reference — and a breach must drop the offending tenant's pinned trust
// epoch.

// TestPipelinedBatchMatchesSerial is the serve-level twin of conformance
// oracle 5 (concurrent resident requests vs serial baseline): it fires a
// concurrent burst at two servers — one with a worker per request of the
// burst, one with a single worker (every request runs alone) — and
// cross-checks every response against the local reference. Identical
// checksums on both sides mean running alongside other requests, and the
// interleaving among them, changed nothing observable.
func TestPipelinedBatchMatchesSerial(t *testing.T) {
	const burst = 8
	_, piped := newTestServer(t, serve.Options{
		Scheduler: serve.SchedulerConfig{Workers: burst, MaxQueue: 256},
	})
	_, serial := newTestServer(t, serve.Options{
		Scheduler: serve.SchedulerConfig{Workers: 1, MaxQueue: 256},
	})
	ctx := ctxT(t)

	net := workload.Mini()
	golden := make([]uint64, burst)
	for i := range golden {
		in, ws := seculator.RandomModel(net, int64(i))
		ref, err := seculator.ReferenceInference(net, in, ws)
		if err != nil {
			t.Fatal(err)
		}
		golden[i] = serve.OutputSum(ref)
	}

	for name, c := range map[string]*client.Client{"concurrent": piped, "serial": serial} {
		sums := make([]uint64, burst)
		errs := make([]error, burst)
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: int64(i)})
				if err != nil {
					errs[i] = err
					return
				}
				sums[i] = resp.OutputSum
			}(i)
		}
		wg.Wait()
		for i := 0; i < burst; i++ {
			if errs[i] != nil {
				t.Fatalf("%s seed %d: %v", name, i, errs[i])
			}
			if sums[i] != golden[i] {
				t.Fatalf("%s seed %d: checksum %#x, reference %#x", name, i, sums[i], golden[i])
			}
		}
	}
}

// TestResidencyHitOverHTTP: the second request for a (network, seed) rides
// the pinned weights and says so; a different input on the same model still
// hits (weights are what's resident, not activations).
func TestResidencyHitOverHTTP(t *testing.T) {
	_, c := newTestServer(t, serve.Options{})
	ctx := ctxT(t)

	first, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if first.ResidencyHit {
		t.Fatal("first request for the model claims a residency hit")
	}
	second, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !second.ResidencyHit {
		t.Fatal("second request for the model did not attach to the pin")
	}
	if second.OutputSum != first.OutputSum {
		t.Fatalf("resident checksum %#x, first %#x", second.OutputSum, first.OutputSum)
	}

	net := workload.Mini()
	in := make([]int32, net.Layers[0].C*net.Layers[0].H*net.Layers[0].W)
	for i := range in {
		in[i] = int32(i%13 - 6)
	}
	withInput, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 3, Input: in})
	if err != nil {
		t.Fatal(err)
	}
	if !withInput.ResidencyHit {
		t.Fatal("input override lost the residency hit")
	}
	if withInput.OutputSum == first.OutputSum {
		t.Fatal("distinct input produced the cached output")
	}
	// The resident path builds its input only from the seed when the request
	// carries none; a request's own input is the whole of it.
	ref, ws := seculator.RandomModel(net, 3)
	copy(ref.Data, in)
	golden, err := seculator.ReferenceInference(net, ref, ws)
	if err != nil {
		t.Fatal(err)
	}
	if withInput.OutputSum != serve.OutputSum(golden) {
		t.Fatalf("resident checksum with an input %#x, reference %#x", withInput.OutputSum, serve.OutputSum(golden))
	}
}

// TestBreachDropsTenantResidencyEpoch: a command-channel breach moves the
// tenant's verification floor, so the tenant's next attach re-verifies the
// pinned weights before use — visible as a reverify on /metrics.
func TestBreachDropsTenantResidencyEpoch(t *testing.T) {
	var captured *host.Packet
	armed := false
	_, c := newTestServer(t, serve.Options{
		InterceptFor: interceptAll(func(layer int, p *host.Packet) {
			if !armed {
				return
			}
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
		}),
	})
	ctx := ctxT(t)

	// Warm the pin, then breach from a session run.
	if _, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	sess, err := c.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	armed = true
	_, err = c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1, Session: sess.SessionID})
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("replayed command accepted: %v", err)
	}
	armed = false

	scrape, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rev := metricValue(t, scrape, "seculator_serve_residency_reverifies_total"); rev != 0 {
		t.Fatalf("reverifies=%v before the tenant's next attach, want 0", rev)
	}

	// The breached tenant's next request re-verifies the pin first.
	resp, err := c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.ResidencyHit {
		t.Fatal("post-breach request should hit after a clean reverify")
	}
	scrape, err = c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rev := metricValue(t, scrape, "seculator_serve_residency_reverifies_total"); rev != 1 {
		t.Fatalf("reverifies=%v after the breached tenant reattached, want 1", rev)
	}
	if fails := metricValue(t, scrape, "seculator_serve_residency_verify_failures_total"); fails != 0 {
		t.Fatalf("verify_failures=%v on clean pinned state", fails)
	}
}

// TestSnapshotCarriesNoResidency: a snapshot taken from a server running
// resident inferences restores into a server with residency disabled and
// continues bit-identically — proof the envelope carries only the
// session's own state (key, sequence window, MAC registers), never the
// shared pinned weights.
func TestSnapshotCarriesNoResidency(t *testing.T) {
	key := []byte("snapshot-sealing-key-for-tests--")
	_, c1 := newTestServer(t, serve.Options{SnapshotKey: key})
	ctx := ctxT(t)

	sess, err := c1.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	// Two infers so the exported session has resident history (the second
	// is a residency hit).
	if _, err := c1.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 11, Session: sess.SessionID}); err != nil {
		t.Fatal(err)
	}
	before, err := c1.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 11, Session: sess.SessionID})
	if err != nil {
		t.Fatal(err)
	}
	if !before.ResidencyHit {
		t.Fatal("session inference never attached to the pin; test exercised nothing")
	}
	snap, err := c1.SnapshotSession(ctx, sess.SessionID)
	if err != nil {
		t.Fatal(err)
	}

	_, c2 := newTestServer(t, serve.Options{
		SnapshotKey: key,
		Residency:   serve.ResidencyConfig{Disabled: true},
	})
	if _, err := c2.RestoreSession(ctx, snap.Snapshot); err != nil {
		t.Fatalf("restore into a residency-free server: %v", err)
	}
	after, err := c2.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 11, Session: sess.SessionID})
	if err != nil {
		t.Fatal(err)
	}
	if after.ResidencyHit {
		t.Fatal("residency-disabled server reported a hit")
	}
	if after.OutputSum != before.OutputSum || after.Commands != before.Commands {
		t.Fatalf("restored session diverged without residency: sum %#x/%#x commands %d/%d",
			after.OutputSum, before.OutputSum, after.Commands, before.Commands)
	}
}
