// residency.go — the verify-once-then-resident weight cache.
//
// GuardNN and MGX both observe that DNN weights are read-only at inference
// time: their integrity can be verified once and then trusted for an
// epoch, instead of being re-proven on every access. The serving tier
// applies that insight at the request level. A WeightResidency pins what a
// resident run reads of one model — the mapping choices, the verified
// plaintext weight tensors and one golden digest per weighted layer — as an
// immutable object shared across requests. A resident run skips the host
// weight load and every weight tile's fetch, decrypt and check, and
// computes straight from the pinned tensors: its weight region is planned
// but never written.
//
// Security argument. A layer's golden digest is the XOR of mac.BlockMAC over
// the plaintext of each of its weight blocks at its host-load position —
// the host's owner tag for the layer, fmap k, the block's index, version 1,
// under the accelerator secret — which is what a non-resident run's weight
// check holds its reads to. Verify folds it again from the pinned tensors
// themselves, so the epoch check covers exactly the values a resident run
// computes from: a weight value changed since the build fails it, naming
// its layer. Between checks such a change is served; the epoch bounds that
// trust window. The weight-read path (ReadStatic) never folds into the four
// XOR-MAC registers — weight integrity is a private golden-digest
// comparison, not part of the Equation 1 chain — so skipping it leaves
// every register, every activation MAC and the final output MAC
// bit-identical to the non-resident run; only the moment of weight
// verification moves, from per-request to per-epoch. The attach is refused
// outright when an attacker hook or fault injector is installed (those
// observe or mutate the DRAM image mid-run, and the per-request
// verification is exactly what detects them) and when the caller's weights
// are not the residency's own verified tensors.
package secure

import (
	"context"
	"fmt"

	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/npu"
	"seculator/internal/protect"
	"seculator/internal/sched"
	"seculator/internal/workload"
)

// residentLayer is one layer's pinned weight state: where a run plans its
// weight region and the golden digest of its weights. Pool/upsample layers
// (no weights) pin nothing.
type residentLayer struct {
	wl     weightLayout
	golden mac.Digest
}

// WeightResidency is the immutable pinned state of one verified model.
// Build it once with BuildWeightResidency, re-check it per epoch with
// Verify, and share it freely: attaching executors only read it.
type WeightResidency struct {
	net     workload.Network
	npuCfg  npu.Config
	dramCfg mem.Config
	secret  uint64
	random  uint64

	choices []sched.Choice
	weights []*nn.Weights
	layers  []residentLayer
	bytes   int64
}

// BuildWeightResidency provisions the weights once: it maps the network
// (memoized), lays out the address space exactly as a run's plan would,
// and folds each weighted layer's golden digest from the given tensors
// (weightGolden), which it pins as the verified weights. It writes no
// DRAM and encrypts nothing: a resident run reads neither.
func BuildWeightResidency(ctx context.Context, net workload.Network,
	npuCfg npu.Config, dramCfg mem.Config, secret, random uint64,
	weights []*nn.Weights) (*WeightResidency, error) {

	if ctx == nil {
		ctx = context.Background()
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if len(weights) != len(net.Layers) {
		return nil, fmt.Errorf("secure: residency: %d weight tensors for %d layers", len(weights), len(net.Layers))
	}
	choices, err := sched.MapNetworkCached(net, npuCfg, dramCfg)
	if err != nil {
		return nil, err
	}
	states, _, _ := planLayout(net, weights, choices)

	res := &WeightResidency{
		net: net, npuCfg: npuCfg, dramCfg: dramCfg,
		secret: secret, random: random,
		choices: choices, weights: weights,
		layers: make([]residentLayer, len(states)),
	}
	var rowh mac.RowHasher
	for i := range states {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if weights[i] == nil {
			continue
		}
		rl := &res.layers[i]
		rl.wl = states[i].wl
		rl.golden = weightGolden(&rowh, secret, net.Layers[i], rl.wl, weights[i])
		res.bytes += int64(len(weights[i].Data)) * 4
	}
	return res, nil
}

// weightGolden folds one layer's golden digest from its weight tensor: the
// XOR of mac.BlockMAC over every weight block's plaintext at its host-load
// position. Each (k, c-group) slice is encoded block by block straight into
// a lane of rowh, and the lanes are hashed sixteen at a time.
func weightGolden(rowh *mac.RowHasher, secret uint64, l workload.Layer, wl weightLayout, w *nn.Weights) mac.Digest {
	var d mac.Digest
	for k := 0; k < wl.k; k++ {
		for cg := 0; cg < wl.cGroups; cg++ {
			run := weightRun(l, w, k, cg, wl.sliceInts)
			for j := 0; j < wl.sliceBlocks; j++ {
				lane, n := rowh.Slot(mac.BlockRef{Secret: secret, Layer: wl.ownerID, Fmap: uint32(k),
					VN: 1, Index: uint32(cg*wl.sliceBlocks + j)})
				protect.EncodeBlock(lane, protect.BlockOf(run, j))
				if n == mac.LaneCount {
					d = d.Xor(mac.XorAll(rowh.Sum()))
				}
			}
		}
	}
	return d.Xor(mac.XorAll(rowh.Sum()))
}

// Verify re-establishes the residency's integrity: it folds every weighted
// layer's golden digest again from the pinned tensors (weightGolden) and
// compares it with the pinned one. A mismatch means a weight value a
// resident run computes from changed since the build; callers must drop
// the residency and re-provision from scratch.
func (res *WeightResidency) Verify() error {
	var rowh mac.RowHasher
	for i := range res.layers {
		rl := &res.layers[i]
		if res.weights[i] == nil {
			continue
		}
		if weightGolden(&rowh, res.secret, res.net.Layers[i], rl.wl, res.weights[i]) != rl.golden {
			return fmt.Errorf("%w: resident layer %q weights: digest mismatch",
				mac.ErrIntegrity, res.net.Layers[i].Name)
		}
	}
	return nil
}

// Weights returns the verified plaintext weight tensors. Treat them as
// immutable: they are shared by every attached run, and Verify fails on
// any value changed since the build.
func (res *WeightResidency) Weights() []*nn.Weights { return res.weights }

// Network returns the residency's network.
func (res *WeightResidency) Network() workload.Network { return res.net }

// Bytes reports the pinned footprint: the verified weight tensors' values.
func (res *WeightResidency) Bytes() int64 { return res.bytes }

// matches reports whether an executor configured with (npu, dram, secret,
// random) running net with the given weight tensors can attach: the
// configuration must be the one the residency was built under — it fixes
// the mapping choices, the planned layout and the MAC positions the
// digests fold at — and the weights must be the residency's own verified
// tensors (pointer identity — trusting lookalike tensors would bypass
// verification).
func (res *WeightResidency) matches(net workload.Network, npuCfg npu.Config,
	dramCfg mem.Config, secret, random uint64, weights []*nn.Weights) bool {
	if res == nil || npuCfg != res.npuCfg || dramCfg != res.dramCfg ||
		secret != res.secret || random != res.random {
		return false
	}
	if len(net.Layers) != len(res.net.Layers) || len(weights) != len(res.weights) {
		return false
	}
	for i := range net.Layers {
		if net.Layers[i] != res.net.Layers[i] {
			return false
		}
		if weights[i] != res.weights[i] {
			return false
		}
	}
	return true
}
