package seculator

import (
	"context"
	"testing"
)

// sweepNet is a two-conv network small enough that the four sensitivity
// sweeps finish quickly at every worker count.
func sweepNet() Network {
	return Network{
		Name: "det-sweep",
		Layers: []Layer{
			{Name: "c1", Type: Conv, C: 3, H: 16, W: 16, K: 8, R: 3, S: 3, Stride: 1},
			{Name: "c2", Type: Conv, C: 8, H: 16, W: 16, K: 8, R: 3, S: 3, Stride: 1},
		},
	}
}

// TestParallelDeterminism is the acceptance check for the worker-pool
// rewiring: Fig4/Fig5 and all four sensitivity sweeps render byte-identical
// tables no matter the worker count, because every fan-out lands results by
// item index, never by completion order.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment regeneration in -short mode")
	}
	cfg := DefaultConfig()
	net := sweepNet()

	render := func() []string {
		ResetSimCache()
		var out []string
		ch, err := Fig4Characterization(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ch.Fig4Table().String(), ch.Fig5Table().String())
		bw, err := SweepBandwidthContext(context.Background(), net, cfg, []float64{0.11, 0.44})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, SweepTable(bw).String())
		gb, err := SweepGlobalBufferContext(context.Background(), net, cfg, []int{120, 480})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, SweepTable(gb).String())
		pe, err := SweepPEArrayContext(context.Background(), net, cfg, []int{16, 64})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, SweepTable(pe).String())
		mc, err := SweepMACCacheContext(context.Background(), net, cfg, []int{2, 64})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, SweepTable(mc).String())
		return out
	}

	defer SetParallelism(0)
	defer ResetSimCache()
	SetParallelism(1)
	serial := render()

	for _, workers := range []int{4, 16} {
		SetParallelism(workers)
		got := render()
		for i := range serial {
			if got[i] != serial[i] {
				t.Errorf("workers=%d: table %d differs from serial run:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
					workers, i, serial[i], workers, got[i])
			}
		}
	}
}

// TestSimCacheReuse: regenerating the same experiment hits the memoized
// simulation cache instead of re-simulating.
func TestSimCacheReuse(t *testing.T) {
	cfg := DefaultConfig()
	net := sweepNet()
	ResetSimCache()
	defer ResetSimCache()

	if _, err := SweepBandwidthContext(context.Background(), net, cfg, []float64{0.11, 0.44}); err != nil {
		t.Fatal(err)
	}
	cold := SimCacheStats()
	if cold.Misses == 0 {
		t.Fatal("cold sweep recorded no cache misses")
	}
	if _, err := SweepBandwidthContext(context.Background(), net, cfg, []float64{0.11, 0.44}); err != nil {
		t.Fatal(err)
	}
	warm := SimCacheStats()
	if warm.Misses != cold.Misses {
		t.Fatalf("warm sweep re-simulated: misses %d -> %d", cold.Misses, warm.Misses)
	}
	if warm.Hits <= cold.Hits {
		t.Fatalf("warm sweep recorded no cache hits: %+v", warm)
	}
}
