package serve

import (
	"context"
	"testing"
	"time"

	"seculator/internal/metrics"
	"seculator/internal/nn"
	"seculator/internal/runner"
	"seculator/internal/secure"
	"seculator/internal/workload"
)

// Manager-level residency tests with an injected clock: epoch expiry,
// corruption caught on the epoch check, per-tenant verification floors,
// and LRU capacity eviction.

type resHarness struct {
	m     *residencyManager
	clock time.Time
}

func newResHarness(cfg ResidencyConfig) *resHarness {
	h := &resHarness{m: newResidencyManager(cfg, &Metrics{}), clock: time.Unix(1_000_000, 0)}
	h.m.now = func() time.Time { return h.clock }
	return h
}

func (h *resHarness) build(seed int64) func() (*secure.WeightResidency, error) {
	return func() (*secure.WeightResidency, error) {
		net := workload.Mini()
		cfg := runner.DefaultConfig()
		_, ws := nn.RandomModel(net, seed)
		return secure.BuildWeightResidency(context.Background(), net, cfg.NPU, cfg.DRAM,
			secure.DefaultSecret, secure.DefaultRandom, ws)
	}
}

func (h *resHarness) counters() (hits, misses, reverifies, fails, evictions uint64, bytes int64) {
	m := h.m.metrics
	n := func(c *metrics.Counter) uint64 { return uint64(c.Value()) }
	return n(&m.residencyHits), n(&m.residencyMisses), n(&m.residencyReverifies),
		n(&m.residencyVerifyFails), n(&m.residencyEvictions), m.residentBytes.Value()
}

func TestResidencyEpochExpiryForcesReverify(t *testing.T) {
	h := newResHarness(ResidencyConfig{Epoch: time.Minute})

	r1, hit, err := h.m.attach("a", "Mini", 1, h.build(1))
	if err != nil || hit {
		t.Fatalf("first attach: hit=%v err=%v", hit, err)
	}
	r2, hit, err := h.m.attach("a", "Mini", 1, h.build(1))
	if err != nil || !hit || r2 != r1 {
		t.Fatalf("in-epoch attach: hit=%v same=%v err=%v", hit, r2 == r1, err)
	}
	if _, _, rev, _, _, _ := h.counters(); rev != 0 {
		t.Fatalf("in-epoch attach re-verified (%d)", rev)
	}

	h.clock = h.clock.Add(61 * time.Second)
	r3, hit, err := h.m.attach("a", "Mini", 1, h.build(1))
	if err != nil || !hit || r3 != r1 {
		t.Fatalf("post-epoch attach: hit=%v same=%v err=%v", hit, r3 == r1, err)
	}
	hits, misses, rev, fails, _, bytes := h.counters()
	if rev != 1 || fails != 0 {
		t.Fatalf("post-epoch reverifies=%d fails=%d, want 1/0", rev, fails)
	}
	if hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}
	if bytes != r1.Bytes() {
		t.Fatalf("resident_bytes=%d, want %d", bytes, r1.Bytes())
	}

	// The epoch check was just paid; the next attach inside the window
	// must not pay it again.
	h.clock = h.clock.Add(30 * time.Second)
	if _, hit, _ := h.m.attach("a", "Mini", 1, h.build(1)); !hit {
		t.Fatal("attach after refreshed epoch missed")
	}
	if _, _, rev, _, _, _ := h.counters(); rev != 1 {
		t.Fatalf("refreshed epoch re-verified again (%d)", rev)
	}
}

func TestResidencyTamperCaughtOnEpochCheck(t *testing.T) {
	h := newResHarness(ResidencyConfig{Epoch: time.Minute})

	r1, _, err := h.m.attach("a", "Mini", 1, h.build(1))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.TamperCiphertext(0, 3) {
		t.Fatal("TamperCiphertext found nothing to flip")
	}

	// Inside the epoch the corruption is latent — that's the trust window
	// the epoch bounds.
	h.clock = h.clock.Add(61 * time.Second)
	r2, hit, err := h.m.attach("a", "Mini", 1, h.build(1))
	if err != nil {
		t.Fatalf("rebuild after failed epoch check: %v", err)
	}
	if hit || r2 == r1 {
		t.Fatalf("tampered entry served: hit=%v same=%v", hit, r2 == r1)
	}
	if err := r2.Verify(); err != nil {
		t.Fatalf("rebuilt residency dirty: %v", err)
	}
	hits, misses, rev, fails, evict, bytes := h.counters()
	if rev != 1 || fails != 1 || evict != 1 {
		t.Fatalf("reverifies=%d fails=%d evictions=%d, want 1/1/1", rev, fails, evict)
	}
	if hits != 0 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0/2", hits, misses)
	}
	if bytes != r2.Bytes() {
		t.Fatalf("resident_bytes=%d after rebuild, want %d", bytes, r2.Bytes())
	}
}

func TestResidencyTenantFloorForcesReverify(t *testing.T) {
	h := newResHarness(ResidencyConfig{Epoch: time.Hour})

	if _, _, err := h.m.attach("a", "Mini", 1, h.build(1)); err != nil {
		t.Fatal(err)
	}
	h.clock = h.clock.Add(time.Second)
	h.m.InvalidateTenant("a")
	h.clock = h.clock.Add(time.Second)

	// An untouched tenant rides the pin without a re-check.
	if _, hit, _ := h.m.attach("b", "Mini", 1, h.build(1)); !hit {
		t.Fatal("clean tenant missed")
	}
	if _, _, rev, _, _, _ := h.counters(); rev != 0 {
		t.Fatalf("clean tenant triggered a reverify (%d)", rev)
	}

	// The quarantined tenant pays a fresh verification first.
	if _, hit, _ := h.m.attach("a", "Mini", 1, h.build(1)); !hit {
		t.Fatal("quarantined tenant should still hit after a clean reverify")
	}
	if _, _, rev, fails, _, _ := h.counters(); rev != 1 || fails != 0 {
		t.Fatalf("quarantined tenant reverifies=%d fails=%d, want 1/0", rev, fails)
	}
}

func TestResidencyCapacityEviction(t *testing.T) {
	h := newResHarness(ResidencyConfig{Epoch: time.Hour, MaxModels: 2})

	var sizes []int64
	for seed := int64(1); seed <= 3; seed++ {
		r, _, err := h.m.attach("a", "Mini", seed, h.build(seed))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, r.Bytes())
		h.clock = h.clock.Add(time.Second)
	}
	h.m.mu.Lock()
	n := len(h.m.entries)
	_, oldest := h.m.entries[resKey{network: "Mini", seed: 1}]
	h.m.mu.Unlock()
	if n != 2 || oldest {
		t.Fatalf("entries=%d oldestPresent=%v, want 2/false", n, oldest)
	}
	_, _, _, _, evict, bytes := h.counters()
	if evict != 1 {
		t.Fatalf("evictions=%d, want 1", evict)
	}
	if want := sizes[1] + sizes[2]; bytes != want {
		t.Fatalf("resident_bytes=%d, want %d", bytes, want)
	}
}
