package serve_test

import (
	"errors"
	"net/http"
	"testing"

	"seculator/internal/host"
	"seculator/internal/mem"
	"seculator/internal/serve"
	"seculator/internal/serve/client"
)

// A command-channel replay through the server: the MITM captures layer 2's
// authenticated packet and plays it back in place of layer 4's command.
// The NPU endpoint rejects the stale sequence number, the server maps the
// typed ChannelError to 409 with the layer index in the body, and the
// session is evicted — reuse must 404.
func TestSessionChannelReplayOverHTTP(t *testing.T) {
	_, c := newTestServer(t, serve.Options{
		InterceptFor: func(string) host.Intercept { return host.ReplayIntercept(2, 4) },
	})
	ctx := ctxT(t)
	sess, err := c.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1, Session: sess.SessionID})
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("replayed command accepted: %v", err)
	}
	if ae.StatusCode != http.StatusConflict || ae.Body.Class != serve.ClassChannel {
		t.Fatalf("got %d/%s, want 409/channel", ae.StatusCode, ae.Body.Class)
	}
	if ae.Body.Layer == nil || *ae.Body.Layer != 4 {
		t.Fatalf("violation layer %v, want 4", ae.Body.Layer)
	}
	if !ae.Body.SessionEvicted {
		t.Fatal("breach did not evict the session")
	}
	_, err = c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 1, Session: sess.SessionID})
	if !client.IsUnknownSession(err) {
		t.Fatalf("evicted session still resolvable: %v", err)
	}
}

// A DRAM-level replay through the server: the attacker restores stale
// layer-0 ciphertext over a block of layer 1's freshly written output.
// Layer 2's verification keeps failing across every recovery retry — the
// signature of stale-ciphertext replay — so the typed FreshnessError
// surfaces as 409 with the violated layer index, and the session is
// evicted.
func TestSessionFreshnessReplayOverHTTP(t *testing.T) {
	const scan = 1 << 14
	written := func(d *mem.DRAM) map[uint64][]byte {
		m := make(map[uint64][]byte)
		for a := uint64(0); a < scan; a++ {
			if p, ok := d.Snapshot(a); ok {
				m[a] = p
			}
		}
		return m
	}
	var afterLoad, afterL0 map[uint64][]byte
	fired := false
	hook := func(phase int, d *mem.DRAM) {
		switch phase {
		case -1:
			afterLoad = written(d)
		case 0:
			afterL0 = written(d)
		case 1:
			if fired {
				return
			}
			// Stale ciphertext: a block layer 0 wrote (absent after load).
			var stale []byte
			for a, p := range afterL0 {
				if _, old := afterLoad[a]; !old {
					stale = p
					break
				}
			}
			// Victim: a block layer 1 just wrote (absent after layer 0).
			cur := written(d)
			for a := range cur {
				if _, old := afterL0[a]; !old {
					d.Restore(a, stale)
					fired = true
					return
				}
			}
		}
	}
	_, c := newTestServer(t, serve.Options{HookFor: hookAll(hook)})
	ctx := ctxT(t)
	sess, err := c.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 5, Session: sess.SessionID})
	if !fired {
		t.Fatal("replay hook never fired; test exercised nothing")
	}
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("stale-ciphertext replay went undetected: %v", err)
	}
	if ae.StatusCode != http.StatusConflict || ae.Body.Class != serve.ClassFreshness {
		t.Fatalf("got %d/%s, want 409/freshness", ae.StatusCode, ae.Body.Class)
	}
	if ae.Body.Layer == nil || *ae.Body.Layer != 1 {
		t.Fatalf("violation layer %v, want 1 (the replayed layer)", ae.Body.Layer)
	}
	if !ae.Body.SessionEvicted {
		t.Fatal("freshness breach did not evict the session")
	}
	_, err = c.Infer(ctx, serve.InferRequest{Network: "Mini", Seed: 5, Session: sess.SessionID})
	if !client.IsUnknownSession(err) {
		t.Fatalf("evicted session still resolvable: %v", err)
	}
}

// A sessionless breach must not crash anything and still carry the typed
// class; there is no session to evict.
func TestSessionlessBreachMapsWithoutEviction(t *testing.T) {
	fired := false
	_, c := newTestServer(t, serve.Options{
		HookFor: hookAll(func(phase int, d *mem.DRAM) {
			if phase == 1 && !fired {
				// Corrupt a line layer 2 will consume.
				for a := uint64(1 << 14); a > 0; a-- {
					if d.Peek(a-1) != nil {
						d.Tamper(a-1, 3, 0x40)
						fired = true
						return
					}
				}
			}
		}),
	})
	_, err := c.Infer(ctxT(t), serve.InferRequest{Network: "Mini", Seed: 9})
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("tamper went undetected: %v", err)
	}
	if ae.StatusCode != http.StatusConflict {
		t.Fatalf("status %d, want 409", ae.StatusCode)
	}
	if ae.Body.SessionEvicted {
		t.Fatal("sessionless request reported a session eviction")
	}
}
