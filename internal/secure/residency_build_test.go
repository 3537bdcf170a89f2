package secure

import (
	"context"
	"testing"

	"seculator/internal/mac"
	"seculator/internal/nn"
	"seculator/internal/protect"
	"seculator/internal/tensor"
	"seculator/internal/workload"
)

// A residency pins the golden digest a run's weight check holds its reads
// to; these tests tie the pinned digest and layout to a run's plan and hold
// the build to its allocation budget.

func buildDefaultResidency(tb testing.TB, net workload.Network, ws []*nn.Weights) *WeightResidency {
	tb.Helper()
	x := NewExecutor()
	res, err := BuildWeightResidency(context.Background(), net, x.NPU, x.DRAM, x.Secret, x.Random, ws)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestResidencyGoldenIsHostPlaintextFold: every layer's pinned weight
// layout is the one a run plans, and its pinned golden digest is the XOR of
// mac.BlockMAC over the host's plaintext blocks at their positions, folded
// here block by block rather than by the build's row hasher — the value a
// non-resident run's weight check holds its reads to.
func TestResidencyGoldenIsHostPlaintextFold(t *testing.T) {
	for _, net := range []workload.Network{miniNet(), resolveShape(t, "Mini"), resolveShape(t, "MobileNet/8")} {
		_, ws := nn.RandomModel(net, 3)
		res := buildDefaultResidency(t, net, ws)
		x := NewExecutor()
		states, _, _, err := x.plan(net, ws)
		if err != nil {
			t.Fatal(err)
		}
		if len(states) != len(res.layers) {
			t.Fatalf("%s: %d planned layers, residency pins %d", net.Name, len(states), len(res.layers))
		}
		var blk [tensor.BlockBytes]byte
		for i := range states {
			if ws[i] != nil && res.layers[i].wl != states[i].wl {
				t.Fatalf("%s layer %d: pinned weight layout %+v, a run plans %+v", net.Name, i, res.layers[i].wl, states[i].wl)
			}
			var want mac.Digest
			if wl := states[i].wl; ws[i] != nil {
				for k := 0; k < wl.k; k++ {
					for cg := 0; cg < wl.cGroups; cg++ {
						run := weightRun(states[i].layer, ws[i], k, cg, wl.sliceInts)
						for j := 0; j < wl.sliceBlocks; j++ {
							protect.EncodeBlock(&blk, protect.BlockOf(run, j))
							want = want.Xor(mac.BlockMAC(mac.BlockRef{Secret: x.Secret, Layer: wl.ownerID,
								Fmap: uint32(k), VN: 1, Index: uint32(cg*wl.sliceBlocks + j)}, blk[:]))
						}
					}
				}
			}
			if res.layers[i].golden != want {
				t.Fatalf("%s layer %d: pinned golden digest is not the fold of the host plaintext's block MACs", net.Name, i)
			}
		}
	}
}

// portableAllocs is what a stack mac.RowHasher allocates on path p: on the
// portable one, its SHA-256 state and crypto/sha256's digest, once per
// hasher; on a kernel path, nothing.
func portableAllocs(p mac.Path) float64 {
	if p.Name == "portable" {
		return 2
	}
	return 0
}

// TestResidencyBuildAllocBudget: the build pins the caller's tensors and
// folds one digest per layer, so it allocates per build, not per layer or
// line — its row hasher on the stack — and pins exactly the weight values
// a run computes from.
func TestResidencyBuildAllocBudget(t *testing.T) {
	net := resolveShape(t, "Mini")
	_, ws := nn.RandomModel(net, 1)
	if got := buildDefaultResidency(t, net, ws).Bytes(); got != 24704 {
		t.Fatalf("Mini pins %d bytes, want its 6,176 weight values' 24,704", got)
	}
	for _, p := range mac.Paths() {
		restore := mac.UsePath(p)
		budget := 4 + portableAllocs(p)
		if allocs := testing.AllocsPerRun(20, func() { buildDefaultResidency(t, net, ws) }); allocs > budget {
			t.Errorf("%s: BuildWeightResidency(Mini) makes %.0f allocations, budget is %.0f", p.Name, allocs, budget)
		}
		restore()
	}
}

// TestResidencyVerifyAllocatesNothing: the epoch check folds every layer's
// digest again with a row hasher on its own stack, so on a kernel path it
// allocates nothing.
func TestResidencyVerifyAllocatesNothing(t *testing.T) {
	net := resolveShape(t, "MobileNet/8")
	_, ws := nn.RandomModel(net, 1)
	res := buildDefaultResidency(t, net, ws)
	for _, p := range mac.Paths() {
		restore := mac.UsePath(p)
		budget := portableAllocs(p)
		if allocs := testing.AllocsPerRun(20, func() {
			if err := res.Verify(); err != nil {
				t.Fatal(err)
			}
		}); allocs > budget {
			t.Errorf("%s: Verify makes %.0f allocations, budget is %.0f", p.Name, allocs, budget)
		}
		restore()
	}
}

func BenchmarkBuildWeightResidency(b *testing.B) {
	for _, tc := range []struct{ name, shape string }{{"mini", "Mini"}, {"deep", "MobileNet/8"}} {
		b.Run(tc.name, func(b *testing.B) {
			net, err := workload.ResolveShape(tc.shape)
			if err != nil {
				b.Fatal(err)
			}
			_, ws := nn.RandomModel(net, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buildDefaultResidency(b, net, ws)
			}
		})
	}
}

// BenchmarkResidencyVerify prices the epoch check: every weighted layer's
// golden digest folded again from the pinned tensors.
func BenchmarkResidencyVerify(b *testing.B) {
	for _, tc := range []struct{ name, shape string }{{"mini", "Mini"}, {"deep", "MobileNet/8"}} {
		b.Run(tc.name, func(b *testing.B) {
			net, err := workload.ResolveShape(tc.shape)
			if err != nil {
				b.Fatal(err)
			}
			_, ws := nn.RandomModel(net, 1)
			res := buildDefaultResidency(b, net, ws)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := res.Verify(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
