package secure

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/protect"
	"seculator/internal/tensor"
	"seculator/internal/workload"
)

// miniNet exercises every layer type: conv (same pad), pool (valid),
// depthwise, pointwise, and a flattening FC.
func miniNet() workload.Network {
	return workload.Network{
		Name: "mini",
		Layers: []workload.Layer{
			{Name: "c1", Type: workload.Conv, C: 3, H: 12, W: 12, K: 8, R: 3, S: 3, Stride: 1},
			{Name: "p1", Type: workload.Pool, C: 8, H: 12, W: 12, K: 8, R: 2, S: 2, Stride: 2, Valid: true},
			{Name: "dw", Type: workload.Depthwise, C: 8, H: 6, W: 6, K: 8, R: 3, S: 3, Stride: 1},
			{Name: "pw", Type: workload.Pointwise, C: 8, H: 6, W: 6, K: 16, R: 1, S: 1, Stride: 1},
			{Name: "fc", Type: workload.FC, C: 16 * 6 * 6, H: 1, W: 1, K: 5, R: 1, S: 1, Stride: 1},
		},
	}
}

// The headline functional test: the encrypted, MAC-verified, tile-by-tile
// execution must produce bit-identical results to the direct reference.
func TestSecureExecutionMatchesGolden(t *testing.T) {
	net := miniNet()
	in, ws := nn.RandomModel(net, 42)

	golden, err := nn.ForwardNetwork(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewExecutor().Run(context.Background(), net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(golden) {
		t.Fatal("secure execution diverged from the golden reference")
	}
	if res.Layers != len(net.Layers) || res.Blocks == 0 {
		t.Fatalf("result metadata: %+v", res)
	}
}

// Strided same-pad convolutions and valid convolutions must round-trip too.
func TestSecureExecutionStridesAndValid(t *testing.T) {
	net := workload.Network{
		Name: "strided",
		Layers: []workload.Layer{
			{Name: "c1", Type: workload.Conv, C: 2, H: 11, W: 11, K: 4, R: 5, S: 5, Stride: 2, Valid: true},
			{Name: "c2", Type: workload.Conv, C: 4, H: 4, W: 4, K: 6, R: 3, S: 3, Stride: 2},
		},
	}
	in, ws := nn.RandomModel(net, 7)
	golden, err := nn.ForwardNetwork(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewExecutor().Run(context.Background(), net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(golden) {
		t.Fatal("strided/valid execution diverged from reference")
	}
}

// Multiple seeds: the equivalence is not an artifact of one weight draw.
func TestSecureExecutionSeeds(t *testing.T) {
	net := workload.Network{
		Name: "two",
		Layers: []workload.Layer{
			{Name: "c1", Type: workload.Conv, C: 2, H: 8, W: 8, K: 4, R: 3, S: 3, Stride: 1},
			{Name: "c2", Type: workload.Conv, C: 4, H: 8, W: 8, K: 4, R: 3, S: 3, Stride: 1},
		},
	}
	for seed := int64(1); seed <= 5; seed++ {
		in, ws := nn.RandomModel(net, seed)
		golden, err := nn.ForwardNetwork(net, in, ws)
		if err != nil {
			t.Fatal(err)
		}
		res, err := NewExecutor().Run(context.Background(), net, in, ws)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Output.Equal(golden) {
			t.Fatalf("seed %d diverged", seed)
		}
	}
}

func runWithHook(t *testing.T, hook Hook) error {
	t.Helper()
	net := miniNet()
	in, ws := nn.RandomModel(net, 42)
	x := NewExecutor()
	x.AfterPhase = hook
	_, err := x.Run(context.Background(), net, in, ws)
	return err
}

// Tampering with an activation block between layers must break Equation 1.
func TestTamperBetweenLayersDetected(t *testing.T) {
	err := runWithHook(t, func(phase int, d *mem.DRAM) {
		if phase == 1 { // after the pool layer wrote its outputs
			// Corrupt the highest allocated line: the most recently
			// written region is the pool layer's output, which the
			// depthwise layer is about to consume.
			var last uint64
			found := false
			for addr := uint64(0); addr < 100000; addr++ {
				if d.Peek(addr) != nil {
					last, found = addr, true
				}
			}
			if !found {
				t.Fatal("no DRAM line to tamper")
			}
			d.Tamper(last, 5, 0x80)
		}
	})
	if !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("tamper not detected: %v", err)
	}
}

// Tampering the model input after load must fail the golden input check.
func TestTamperInputDetected(t *testing.T) {
	err := runWithHook(t, func(phase int, d *mem.DRAM) {
		if phase == -1 {
			d.Tamper(0, 0, 0x01) // input region starts at address 0
		}
	})
	if !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("input tamper not detected: %v", err)
	}
}

// Replaying a stale input block (captured before a later overwrite doesn't
// apply here, so emulate via direct corruption of high addresses where
// weights live) must fail the weight golden check.
func TestTamperWeightsDetected(t *testing.T) {
	err := runWithHook(t, func(phase int, d *mem.DRAM) {
		if phase != -1 {
			return
		}
		// Weights live in the highest allocated lines; corrupt the last one.
		var last uint64
		for addr := uint64(0); addr < 100000; addr++ {
			if d.Peek(addr) != nil {
				last = addr
			}
		}
		d.Tamper(last, 3, 0xFF)
	})
	if !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("weight tamper not detected: %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	x := NewExecutor()
	if _, err := x.Run(context.Background(), workload.Network{Name: "empty"}, nil, nil); err == nil {
		t.Fatal("invalid network accepted")
	}
	net := miniNet()
	in, _ := nn.RandomModel(net, 1)
	if _, err := x.Run(context.Background(), net, in, nil); err == nil {
		t.Fatal("weight count mismatch accepted")
	}
}

// weightSliceRef is the element-wise (k, c-group) slice extraction that
// weightRun replaced, kept as its oracle: every element through
// Weights.At, padded channels written as explicit zeros.
func weightSliceRef(l workload.Layer, w *nn.Weights, k, cg, sliceInts int) []int32 {
	out := make([]int32, 0, sliceInts)
	if l.Type == workload.Depthwise {
		for r := 0; r < l.R; r++ {
			for s := 0; s < l.S; s++ {
				out = append(out, w.At(k, 0, r, s))
			}
		}
		return out
	}
	ct := sliceInts / (l.R * l.S)
	for c := cg * ct; c < (cg+1)*ct; c++ {
		for r := 0; r < l.R; r++ {
			for s := 0; s < l.S; s++ {
				if c < l.C {
					out = append(out, w.At(k, c, r, s))
				} else {
					out = append(out, 0) // padded channel group
				}
			}
		}
	}
	return out
}

// TestWeightRunMatchesReference: encoding a (k, c-group) slice straight
// from its run of the weight tensor, block by block (protect.BlockOf, as
// the host store and the residency seal do), stores the same bytes as
// encoding the staged element-wise copy, and decoding those bytes straight
// into the run of an empty tensor restores exactly the slice's real
// channels — over conv and depthwise shapes, channel groups that divide C,
// that straddle its end, and that lie wholly past it.
func TestWeightRunMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		l := workload.Layer{Type: workload.Conv, C: 1 + rng.Intn(9), K: 1 + rng.Intn(4),
			R: 1 + rng.Intn(3), S: 1 + rng.Intn(3)}
		ct := 1 + rng.Intn(l.C+2) // channels per group; may exceed C
		cGroups := tensor.CeilDiv(l.C, ct) + rng.Intn(2)
		if rng.Intn(3) == 0 {
			l.Type, l.K, ct = workload.Depthwise, l.C, 1
		}
		w := nn.WeightsFor(l)
		for i := range w.Data {
			w.Data[i] = int32(rng.Uint32())
		}
		sliceInts := ct * l.R * l.S
		sliceBlocks := tensor.CeilDiv(sliceInts*4, tensor.BlockBytes)
		got := make([][tensor.BlockBytes]byte, sliceBlocks)
		want := make([][tensor.BlockBytes]byte, sliceBlocks)
		back := nn.WeightsFor(l)
		for k := 0; k < l.K; k++ {
			for cg := 0; cg < cGroups; cg++ {
				run, ref := weightRun(l, w, k, cg, sliceInts), weightSliceRef(l, w, k, cg, sliceInts)
				for j := range got {
					protect.EncodeBlock(&got[j], protect.BlockOf(run, j))
					protect.EncodeBlock(&want[j], protect.BlockOf(ref, j))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("layer %+v ct=%d k=%d cg=%d: encoded slice differs from the element-wise reference", l, ct, k, cg)
				}
				run = weightRun(l, back, k, cg, sliceInts)
				for j := range got {
					protect.DecodeBlock(protect.BlockOf(run, j), &got[j])
				}
			}
		}
		for i, v := range w.Data {
			if back.Data[i] != v {
				t.Fatalf("layer %+v ct=%d: decoded weight %d = %d, want %d", l, ct, i, back.Data[i], v)
			}
		}
	}
}

// Property: for randomly shaped small networks and random models, the
// secure execution always matches the reference bit for bit and always
// verifies. This fuzzes tile geometry (strides, kernels, paddings, channel
// counts) against the executor's block layout and MAC accounting.
func TestSecureExecutionRandomNetsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz in -short mode")
	}
	f := func(seed int64, c0, k1, k2, r1, stride, hsel, pad uint8) bool {
		h := []int{8, 11, 12, 16}[int(hsel)%4]
		l1 := workload.Layer{
			Name: "c1", Type: workload.Conv,
			C: int(c0%3) + 1, H: h, W: h,
			K: int(k1%6) + 1, R: int(r1%2)*2 + 1, S: int(r1%2)*2 + 1,
			Stride: int(stride%2) + 1, Valid: pad%2 == 0,
		}
		if l1.Valid && (l1.H < l1.R) {
			return true // degenerate
		}
		l2 := workload.Layer{
			Name: "c2", Type: workload.Conv,
			C: l1.K, H: l1.OutH(), W: l1.OutW(),
			K: int(k2%6) + 1, R: 3, S: 3, Stride: 1,
		}
		if l2.H < 1 || l2.W < 1 {
			return true
		}
		net := workload.Network{Name: "fuzz", Layers: []workload.Layer{l1, l2}}
		if net.Validate() != nil {
			return true
		}
		in, ws := nn.RandomModel(net, seed)
		golden, err := nn.ForwardNetwork(net, in, ws)
		if err != nil {
			return false
		}
		res, err := NewExecutor().Run(context.Background(), net, in, ws)
		if err != nil {
			t.Logf("seed=%d l1=%+v: %v", seed, l1, err)
			return false
		}
		return res.Output.Equal(golden)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// GAN generator end to end: the deconvolution (upsample + conv) chain must
// round-trip through the secure path bit-exactly — the paper's Section 5.2
// claim that its machinery covers deconvolution.
func TestSecureExecutionGANGenerator(t *testing.T) {
	net, err := workload.GANGenerator(workload.TinyGAN())
	if err != nil {
		t.Fatal(err)
	}
	in, ws := nn.RandomModel(net, 17)
	golden, err := nn.ForwardNetwork(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewExecutor().Run(context.Background(), net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(golden) {
		t.Fatal("GAN generator execution diverged from reference")
	}
	if res.Output.Chans != 3 || res.Output.H != 16 {
		t.Fatalf("unexpected generator output shape %dx%dx%d", res.Output.Chans, res.Output.H, res.Output.W)
	}
}

// The image pre-processing pipeline (Styles 1-3) round-trips functionally.
func TestSecureExecutionPreprocPipeline(t *testing.T) {
	net, err := workload.PreprocPipeline(16, 16)
	if err != nil {
		t.Fatal(err)
	}
	in, ws := nn.RandomModel(net, 23)
	golden, err := nn.ForwardNetwork(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewExecutor().Run(context.Background(), net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(golden) {
		t.Fatal("preprocessing pipeline diverged from reference")
	}
}

// A tiny transformer's matmul chain (Table 4's class) round-trips too.
func TestSecureExecutionTransformer(t *testing.T) {
	net, err := workload.Transformer(workload.TransformerConfig{
		Name: "micro", Layers: 1, SeqLen: 4, Model: 8, FFN: 16, AttnMats: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	in, ws := nn.RandomModel(net, 31)
	golden, err := nn.ForwardNetwork(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewExecutor().Run(context.Background(), net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(golden) {
		t.Fatal("transformer matmul chain diverged from reference")
	}
}

// The headline functional validation: every Table 1 benchmark topology —
// all layers with their types, kernels, strides and padding intact, shrunk
// 16x for tractability — executes through the encrypted path bit-exactly.
func TestSecureExecutionMiniBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("mini benchmarks in -short mode")
	}
	for _, full := range workload.All() {
		net, err := workload.Shrink(full, 16)
		if err != nil {
			t.Fatalf("%s: %v", full.Name, err)
		}
		in, ws := nn.RandomModel(net, 2026)
		golden, err := nn.ForwardNetwork(net, in, ws)
		if err != nil {
			t.Fatalf("%s: %v", net.Name, err)
		}
		res, err := NewExecutor().Run(context.Background(), net, in, ws)
		if err != nil {
			t.Fatalf("%s: %v", net.Name, err)
		}
		if !res.Output.Equal(golden) {
			t.Fatalf("%s diverged from reference", net.Name)
		}
		if res.Layers != len(net.Layers) {
			t.Fatalf("%s: executed %d layers, want %d", net.Name, res.Layers, len(net.Layers))
		}
	}
}
