package secure

import (
	"bytes"
	"context"
	"testing"

	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/protect"
	"seculator/internal/tensor"
	"seculator/internal/workload"
)

// The residency build and the per-run host load are two provisioning loops
// over the same weights; these tests tie them together byte for byte and
// hold the build to its allocation budget.

func buildDefaultResidency(tb testing.TB, net workload.Network, ws []*nn.Weights) *WeightResidency {
	tb.Helper()
	x := NewExecutor()
	res, err := BuildWeightResidency(context.Background(), net, x.NPU, x.DRAM, x.Secret, x.Random, ws)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestResidencyCiphertextIsHostLoadImage: every layer's pinned ciphertext
// equals the weight region a hooked run's DRAM holds right after model load
// (phase -1) — install() works because of this, and nothing else asserted
// it — and its pinned golden digest is the XOR of mac.BlockMAC over the
// host's plaintext blocks at their positions, folded here block by block
// rather than by the build's row hasher. (Runs no longer fold a golden
// digest: the host load hashes nothing, so the pinned one is checked
// against the definition instead.)
func TestResidencyCiphertextIsHostLoadImage(t *testing.T) {
	for _, net := range []workload.Network{miniNet(), resolveShape(t, "Mini"), resolveShape(t, "MobileNet/8")} {
		in, ws := nn.RandomModel(net, 3)
		res := buildDefaultResidency(t, net, ws)

		var plan PlanInfo
		x := NewExecutor()
		x.OnPlan = func(pi PlanInfo) { plan = pi }
		x.AfterPhase = func(phase int, d *mem.DRAM) {
			if phase != -1 {
				return
			}
			for i, w := range plan.Weights {
				ct := res.layers[i].ct
				if len(ct) != w.Blocks*tensor.BlockBytes {
					t.Fatalf("%s layer %d: %d pinned bytes for a %d-line region", net.Name, i, len(ct), w.Blocks)
				}
				for b := 0; b < w.Blocks; b++ {
					if !bytes.Equal(d.Peek(w.Base+uint64(b)), ct[b*tensor.BlockBytes:(b+1)*tensor.BlockBytes]) {
						t.Fatalf("%s layer %d: pinned line %d differs from the host load's", net.Name, i, b)
					}
				}
			}
		}
		if _, err := x.Run(context.Background(), net, in, ws); err != nil {
			t.Fatal(err)
		}
		if len(plan.Weights) != len(res.layers) {
			t.Fatalf("%s: hook saw %d weight regions, residency pins %d", net.Name, len(plan.Weights), len(res.layers))
		}

		states, _, _, err := x.plan(net, ws)
		if err != nil {
			t.Fatal(err)
		}
		var blk [tensor.BlockBytes]byte
		for i := range states {
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

// TestResidencyBuildAllocBudget: rows are sealed straight into the pinned
// image, so a build allocates per layer, not per line. Through PR 18 every
// line went through a DRAM that never Reserved — a make and a map insert
// each, over 400 for Mini.
func TestResidencyBuildAllocBudget(t *testing.T) {
	net := resolveShape(t, "Mini")
	_, ws := nn.RandomModel(net, 1)
	if got := buildDefaultResidency(t, net, ws).Bytes(); got != 2*400*tensor.BlockBytes {
		t.Fatalf("Mini pins %d bytes, want 400 lines of ciphertext and of pads", got)
	}
	if allocs := testing.AllocsPerRun(20, func() { buildDefaultResidency(t, net, ws) }); allocs > 64 {
		t.Fatalf("BuildWeightResidency(Mini) makes %.0f allocations, budget is 64", allocs)
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
