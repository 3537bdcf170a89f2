package nn

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"seculator/internal/workload"
)

func convLayer() workload.Layer {
	return workload.Layer{
		Name: "conv", Type: workload.Conv,
		C: 3, H: 8, W: 8, K: 4, R: 3, S: 3, Stride: 1,
	}
}

func TestTensorBasics(t *testing.T) {
	tt := NewTensor(2, 3, 4)
	tt.Set(1, 2, 3, 42)
	if tt.At(1, 2, 3) != 42 {
		t.Fatal("Set/At broken")
	}
	if tt.AtPadded(1, -1, 0) != 0 || tt.AtPadded(1, 3, 0) != 0 || tt.AtPadded(1, 0, 4) != 0 {
		t.Fatal("padding must read as zero")
	}
	o := NewTensor(2, 3, 4)
	if tt.Equal(o) {
		t.Fatal("different tensors reported equal")
	}
	o.Set(1, 2, 3, 42)
	if !tt.Equal(o) {
		t.Fatal("equal tensors reported different")
	}
	if tt.Equal(NewTensor(1, 3, 4)) {
		t.Fatal("shape mismatch reported equal")
	}
}

func TestNewTensorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid shape should panic")
		}
	}()
	NewTensor(0, 1, 1)
}

func TestRandomizeDeterministic(t *testing.T) {
	a := NewTensor(2, 4, 4)
	b := NewTensor(2, 4, 4)
	a.Randomize(7)
	b.Randomize(7)
	if !a.Equal(b) {
		t.Fatal("same seed must give same tensor")
	}
	b.Randomize(8)
	if a.Equal(b) {
		t.Fatal("different seeds should differ")
	}
	for _, v := range a.Data {
		if v < -8 || v >= 8 {
			t.Fatalf("value %d out of range", v)
		}
	}
}

func TestWeights(t *testing.T) {
	w := NewWeights(2, 3, 3, 3)
	w.Data[((1*3+2)*3+1)*3+2] = 9
	if w.At(1, 2, 1, 2) != 9 {
		t.Fatal("Weights.At broken")
	}
	if WeightsFor(workload.Layer{Type: workload.Pool, C: 1, K: 1, R: 1, S: 1}) != nil {
		t.Fatal("pool has no weights")
	}
	dw := WeightsFor(workload.Layer{Type: workload.Depthwise, C: 4, K: 4, R: 3, S: 3})
	if dw.C != 1 || dw.K != 4 {
		t.Fatalf("depthwise weights shape: %+v", dw)
	}
}

func TestPadOrigin(t *testing.T) {
	l := convLayer() // same padding, 3x3 stride 1 on 8x8 -> pad 1
	if py, px := PadOrigin(l); py != 1 || px != 1 {
		t.Fatalf("same pad = (%d,%d)", py, px)
	}
	l.Valid = true
	if py, px := PadOrigin(l); py != 0 || px != 0 {
		t.Fatal("valid padding must be zero")
	}
	// 1x1 conv: no padding needed even in same mode.
	pw := workload.Layer{Type: workload.Pointwise, C: 2, H: 4, W: 4, K: 2, R: 1, S: 1, Stride: 1}
	if py, px := PadOrigin(pw); py != 0 || px != 0 {
		t.Fatal("1x1 conv needs no padding")
	}
}

// A hand-computed 1-channel convolution.
func TestForwardKnownValues(t *testing.T) {
	l := workload.Layer{Type: workload.Conv, C: 1, H: 3, W: 3, K: 1, R: 3, S: 3, Stride: 1, Valid: true}
	in := NewTensor(1, 3, 3)
	w := NewWeights(1, 1, 3, 3)
	for i := range in.Data {
		in.Data[i] = int32(i + 1) // 1..9
	}
	for i := range w.Data {
		w.Data[i] = 1
	}
	out, err := Forward(l, in, w)
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 1 || out.W != 1 || out.At(0, 0, 0) != 45 {
		t.Fatalf("conv sum = %d, want 45", out.At(0, 0, 0))
	}
}

func TestForwardPoolKnownValues(t *testing.T) {
	l := workload.Layer{Type: workload.Pool, C: 1, H: 4, W: 4, K: 1, R: 2, S: 2, Stride: 2, Valid: true}
	in := NewTensor(1, 4, 4)
	for i := range in.Data {
		in.Data[i] = int32(i)
	}
	out, err := Forward(l, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int32{{5, 7}, {13, 15}}
	for y := 0; y < 2; y++ {
		for x := 0; x < 2; x++ {
			if out.At(0, y, x) != want[y][x] {
				t.Fatalf("pool[%d][%d] = %d, want %d", y, x, out.At(0, y, x), want[y][x])
			}
		}
	}
}

func TestForwardFCFlatten(t *testing.T) {
	l := workload.Layer{Type: workload.FC, C: 8, H: 1, W: 1, K: 2, R: 1, S: 1, Stride: 1}
	in := NewTensor(2, 2, 2) // flattens to 8
	for i := range in.Data {
		in.Data[i] = 1
	}
	w := NewWeights(2, 8, 1, 1)
	for i := range w.Data {
		w.Data[i] = 2
	}
	out, err := Forward(l, in, w)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0, 0) != 16 || out.At(1, 0, 0) != 16 {
		t.Fatalf("fc out = %d,%d want 16,16", out.At(0, 0, 0), out.At(1, 0, 0))
	}
}

func TestForwardErrors(t *testing.T) {
	l := convLayer()
	if _, err := Forward(l, NewTensor(1, 8, 8), NewWeights(4, 3, 3, 3)); err == nil {
		t.Fatal("channel mismatch accepted")
	}
	if _, err := Forward(l, NewTensor(3, 8, 8), nil); err == nil {
		t.Fatal("missing weights accepted")
	}
	bad := workload.Layer{Type: workload.FC, C: 9, H: 1, W: 1, K: 2, R: 1, S: 1, Stride: 1}
	if _, err := Forward(bad, NewTensor(2, 2, 2), NewWeights(2, 9, 1, 1)); err == nil {
		t.Fatal("flatten size mismatch accepted")
	}
}

// Partial accumulation must compose: summing contributions over channel
// groups and row bands in any split equals the direct computation.
func TestAccumulateConvComposesProperty(t *testing.T) {
	l := convLayer()
	f := func(seed int64, split uint8) bool {
		in := NewTensor(l.C, l.H, l.W)
		in.Randomize(seed)
		w := NewWeights(l.K, l.C, l.R, l.S)
		w.Randomize(seed + 1)

		direct, err := Forward(l, in, w)
		if err != nil {
			return false
		}

		tiled := NewTensor(l.K, l.OutH(), l.OutW())
		cSplit := int(split%3) + 1
		for c0 := 0; c0 < l.C; c0 += cSplit {
			for y0 := 0; y0 < l.OutH(); y0 += 3 {
				for k0 := 0; k0 < l.K; k0 += 2 {
					AccumulateConv(tiled, in, w, l, k0, k0+2, c0, c0+cSplit, y0, y0+3)
				}
			}
		}
		return tiled.Equal(direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDepthwiseForward(t *testing.T) {
	l := workload.Layer{Type: workload.Depthwise, C: 2, H: 4, W: 4, K: 2, R: 3, S: 3, Stride: 1}
	in := NewTensor(2, 4, 4)
	in.Randomize(3)
	w := NewWeights(2, 1, 3, 3)
	w.Randomize(4)
	out, err := Forward(l, in, w)
	if err != nil {
		t.Fatal(err)
	}
	// Channel 0 of the output must be independent of channel 1 of the input.
	in2 := NewTensor(2, 4, 4)
	copy(in2.Data, in.Data)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			in2.Set(1, y, x, 99)
		}
	}
	out2, err := Forward(l, in2, w)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < out.H; y++ {
		for x := 0; x < out.W; x++ {
			if out.At(0, y, x) != out2.At(0, y, x) {
				t.Fatal("depthwise channel 0 depends on input channel 1")
			}
		}
	}
}

func TestForwardNetworkAndRandomModel(t *testing.T) {
	net := workload.Network{
		Name: "mini",
		Layers: []workload.Layer{
			{Name: "c1", Type: workload.Conv, C: 2, H: 8, W: 8, K: 4, R: 3, S: 3, Stride: 1},
			{Name: "p1", Type: workload.Pool, C: 4, H: 8, W: 8, K: 4, R: 2, S: 2, Stride: 2, Valid: true},
			{Name: "fc", Type: workload.FC, C: 4 * 4 * 4, H: 1, W: 1, K: 3, R: 1, S: 1, Stride: 1},
		},
	}
	in, ws := RandomModel(net, 11)
	out, err := ForwardNetwork(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	if out.Chans != 3 || out.H != 1 || out.W != 1 {
		t.Fatalf("output shape %dx%dx%d", out.Chans, out.H, out.W)
	}
	if _, err := ForwardNetwork(net, in, ws[:1]); err == nil {
		t.Fatal("weight count mismatch accepted")
	}
}

// accumulateConvRef is the element-wise convolution AccumulateConv replaced,
// kept as its oracle: every operand goes through AtPadded / At, one bounds
// branch and one three-term index per element.
func accumulateConvRef(out *Tensor, in *Tensor, w *Weights, l workload.Layer,
	k0, k1, c0, c1, y0, y1 int) {
	padY, padX := PadOrigin(l)
	depthwise := l.Type == workload.Depthwise
	for k := k0; k < k1 && k < l.K; k++ {
		for y := y0; y < y1 && y < out.H; y++ {
			for x := 0; x < out.W; x++ {
				var sum int32
				if depthwise {
					if c0 > 0 {
						continue // single reduction step: only c-group 0 contributes
					}
					for r := 0; r < l.R; r++ {
						for s := 0; s < l.S; s++ {
							sum += in.AtPadded(k, y*l.Stride+r-padY, x*l.Stride+s-padX) * w.At(k, 0, r, s)
						}
					}
				} else {
					for c := c0; c < c1 && c < l.C; c++ {
						for r := 0; r < l.R; r++ {
							for s := 0; s < l.S; s++ {
								sum += in.AtPadded(c, y*l.Stride+r-padY, x*l.Stride+s-padX) * w.At(k, c, r, s)
							}
						}
					}
				}
				out.Set(k, y, x, out.At(k, y, x)+sum)
			}
		}
	}
}

// fillFullRange fills data with values over the whole int32 range, so the
// products and sums of a reduction wrap mod 2³².
func fillFullRange(rng *rand.Rand, data []int32) {
	for i := range data {
		data[i] = int32(rng.Uint32())
	}
}

// checkConvAgainstRef runs AccumulateConv and the oracle over the same
// sub-range into identical non-zero accumulators and compares every element,
// the ones outside the sub-range included.
func checkConvAgainstRef(t *testing.T, rng *rand.Rand, l workload.Layer, in *Tensor, w *Weights,
	k0, k1, c0, c1, y0, y1 int) {
	t.Helper()
	got := NewTensor(l.K, l.OutH(), l.OutW())
	fillFullRange(rng, got.Data)
	want := NewTensor(got.Chans, got.H, got.W)
	copy(want.Data, got.Data)
	AccumulateConv(got, in, w, l, k0, k1, c0, c1, y0, y1)
	accumulateConvRef(want, in, w, l, k0, k1, c0, c1, y0, y1)
	if !got.Equal(want) {
		t.Fatalf("layer %+v k[%d,%d) c[%d,%d) y[%d,%d): differs from the element-wise reference",
			l, k0, k1, c0, c1, y0, y1)
	}
}

// TestAccumulateConvMatchesReference is the seeded differential test of the
// slice-indexed convolution: random layers over {Conv, Depthwise} × stride
// 1–3 × same / valid padding × R ≠ S × kernels wider than the input ×
// R = S = 1 × R = S = 3, full-range operands, and random sub-ranges whose
// upper bounds may lie past K, C and OutH.
func TestAccumulateConvMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const want = 10000
	shapes, wider, oneTap := 0, 0, 0
	reached := map[string]int{} // the cases of the 3×3 path, below
	for shapes < want {
		l := workload.Layer{
			Name: "rand", Type: workload.Conv,
			C: 1 + rng.Intn(5), H: 1 + rng.Intn(7), W: 1 + rng.Intn(7), K: 1 + rng.Intn(5),
			R: 1 + rng.Intn(5), S: 1 + rng.Intn(5), Stride: 1 + rng.Intn(3), Valid: rng.Intn(2) == 0,
		}
		switch rng.Intn(4) {
		case 0:
			l.R, l.S = 1, 1
		case 1:
			l.R, l.S = 3, 3
		}
		if rng.Intn(2) == 0 {
			l.Type, l.K = workload.Depthwise, l.C
		}
		if l.Validate() != nil || l.OutH() < 1 || l.OutW() < 1 {
			continue // valid padding with a kernel wider than the input has no output
		}
		shapes++
		if l.R > l.H || l.S > l.W {
			wider++
		}
		if l.R == 1 && l.S == 1 {
			oneTap++
		}
		in := NewTensor(l.C, l.H, l.W)
		fillFullRange(rng, in.Data)
		w := WeightsFor(l)
		fillFullRange(rng, w.Data)

		checkConvAgainstRef(t, rng, l, in, w, 0, l.K, 0, l.ReductionChannels(), 0, l.OutH())
		k0, c0, y0 := rng.Intn(l.K), rng.Intn(l.C), rng.Intn(l.OutH())
		checkConvAgainstRef(t, rng, l, in, w,
			k0, k0+rng.Intn(l.K+2), c0, c0+rng.Intn(l.C+2), y0, y0+rng.Intn(l.OutH()+2))
		if l.R == 3 && l.S == 3 {
			for _, c := range conv3x3Cases(l, k0, c0, y0) {
				reached[c]++
			}
		}
	}
	// The generator must reach the corners the kernel branches on.
	if wider < want/20 || oneTap < want/10 {
		t.Fatalf("of %d shapes only %d have a kernel wider than the input and %d have R = S = 1",
			shapes, wider, oneTap)
	}
	for _, c := range []string{
		"stride 1", "stride 2", "stride 3", "1×1 plane", "2×2 plane", "plane with an interior",
		"same padding", "valid padding", "conv", "depthwise",
		"conv sub-range from k0, c0, y0 > 0", "depthwise sub-range from k0, y0 > 0",
	} {
		if reached[c] < want/500 {
			t.Errorf("of %d shapes only %d are 3×3 layers with %s", shapes, reached[c], c)
		}
	}
}

// conv3x3Cases names what a 3×3 layer, checked over a sub-range starting
// at (k0, c0, y0), exercises of the 3×3 path: the stride, the plane (an
// interior is an output pixel whose window lies wholly inside the input),
// the padding, the layer type and a sub-range starting mid-tensor.
func conv3x3Cases(l workload.Layer, k0, c0, y0 int) []string {
	padY, padX := PadOrigin(l)
	inside := func(pad, n, outN int) bool {
		for o := 0; o < outN; o++ {
			if i := o*l.Stride - pad; i >= 0 && i+3 <= n {
				return true
			}
		}
		return false
	}
	cases := []string{fmt.Sprintf("stride %d", l.Stride), "same padding", "conv"}
	if l.Valid {
		cases[1] = "valid padding"
	}
	switch {
	case inside(padY, l.H, l.OutH()) && inside(padX, l.W, l.OutW()):
		cases = append(cases, "plane with an interior")
	case l.H == 1 && l.W == 1:
		cases = append(cases, "1×1 plane")
	case l.H == 2 && l.W == 2:
		cases = append(cases, "2×2 plane")
	}
	if l.Type == workload.Depthwise {
		cases[2] = "depthwise"
		if k0 > 0 && c0 == 0 && y0 > 0 {
			cases = append(cases, "depthwise sub-range from k0, y0 > 0")
		}
	} else if k0 > 0 && c0 > 0 && y0 > 0 {
		cases = append(cases, "conv sub-range from k0, c0, y0 > 0")
	}
	return cases
}

// TestAccumulateConvMatchesReferenceOnNetworks checks every weighted layer
// of the two networks the benchmark runs, on the activations the layers
// really see.
func TestAccumulateConvMatchesReferenceOnNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, name := range []string{"MobileNet/8", "Mini"} {
		net, err := workload.ResolveShape(name)
		if err != nil {
			t.Fatal(err)
		}
		cur, ws := RandomModel(net, 1)
		for i, l := range net.Layers {
			if ws[i] != nil {
				in, err := reshapeInput(l, cur)
				if err != nil {
					t.Fatal(err)
				}
				checkConvAgainstRef(t, rng, l, in, ws[i], 0, l.K, 0, l.ReductionChannels(), 0, l.OutH())
			}
			if cur, err = Forward(l, cur, ws[i]); err != nil {
				t.Fatalf("%s layer %d: %v", name, i, err)
			}
		}
	}
}

// TestRandomWeightsMatchesRandomModel: the weights RandomWeights draws are
// RandomModel's, value for value.
func TestRandomWeightsMatchesRandomModel(t *testing.T) {
	for _, name := range []string{"Mini", "MobileNet/8"} {
		net, err := workload.ResolveShape(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{0, 1, 0x5eed} {
			_, want := RandomModel(net, seed)
			if got := RandomWeights(net, seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: RandomWeights differs from RandomModel's weights", name, seed)
			}
		}
	}
}

var benchSink int32

// BenchmarkAccumulateConv times one full layer of each kernel shape
// MobileNet/8 runs: the first 3×3 convolution, the first depthwise and
// pointwise layers, and the classifier; and, as 3x3, Mini's stride-1 3×3
// convolution, the layer the unrolled interior path was written for.
func BenchmarkAccumulateConv(b *testing.B) {
	net, err := workload.ResolveShape("MobileNet/8")
	if err != nil {
		b.Fatal(err)
	}
	first := map[workload.LayerType]workload.Layer{}
	for _, l := range net.Layers {
		if _, ok := first[l.Type]; !ok {
			first[l.Type] = l
		}
	}
	arms := []struct {
		name string
		l    workload.Layer
	}{
		{"conv", first[workload.Conv]}, {"depthwise", first[workload.Depthwise]},
		{"pointwise", first[workload.Pointwise]}, {"fc", first[workload.FC]},
		{"3x3", workload.Mini().Layers[0]},
	}
	for _, arm := range arms {
		l := arm.l
		if l.K == 0 {
			b.Fatalf("MobileNet/8 has no %s layer", arm.name)
		}
		b.Run(arm.name, func(b *testing.B) {
			in := NewTensor(l.C, l.H, l.W)
			in.Randomize(1)
			w := WeightsFor(l)
			w.Randomize(2)
			out := NewTensor(l.K, l.OutH(), l.OutW())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				AccumulateConv(out, in, w, l, 0, l.K, 0, l.ReductionChannels(), 0, out.H)
			}
			benchSink = out.Data[0]
		})
	}
}
