package nn

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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
// R = S = 1 (a quarter of them on a 1×1 plane) × R = S = 3, full-range
// operands, and random sub-ranges whose upper bounds may lie past K, C and
// OutH. It fails unless every path of the one-tap and 3×3 kernels is hit.
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
			if rng.Intn(4) == 0 {
				l.H, l.W = 1, 1 // the plane of an FC layer
			}
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
		cases := oneTapCases(l, y0)
		if l.R == 3 && l.S == 3 {
			cases = conv3x3Cases(l, k0, c0, y0)
		}
		for _, c := range cases {
			reached[c]++
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
		"border rows at stride 1", "border rows at stride 2", "border rows at stride 3",
		"H < 3 with an interior column", "sub-range from a border row y0 > 0",
		"one-tap 1×1 plane", "one-tap 1×1 plane, K ≥ 4", "one-tap plane of 2 – 3",
		"one-tap plane ≥ 4 without a tail", "one-tap plane ≥ 4 with a tail",
		"one-tap sub-range from y0 > 0", "strided one-tap",
	} {
		if reached[c] < want/500 {
			t.Errorf("of %d shapes only %d reach the case %q", shapes, reached[c], c)
		}
	}
}

// oneTapCases names what a one-tap convolution (R = S = 1), checked over a
// sub-range starting at row y0, exercises of its paths: at stride 1,
// pointwise1's four-pixel blocks, its tail, and the four-channel blocks of a
// 1×1 plane; strided, the clipped loop.
func oneTapCases(l workload.Layer, y0 int) []string {
	if l.R != 1 || l.S != 1 || l.Type == workload.Depthwise {
		return nil
	}
	if l.Stride > 1 {
		return []string{"strided one-tap"}
	}
	var cases []string
	switch plane := l.H * l.W; {
	case plane == 1 && l.K >= 4:
		cases = append(cases, "one-tap 1×1 plane", "one-tap 1×1 plane, K ≥ 4")
	case plane == 1:
		cases = append(cases, "one-tap 1×1 plane")
	case plane < 4:
		cases = append(cases, "one-tap plane of 2 – 3")
	case plane%4 == 0:
		cases = append(cases, "one-tap plane ≥ 4 without a tail")
	default:
		cases = append(cases, "one-tap plane ≥ 4 with a tail")
	}
	if y0 > 0 {
		cases = append(cases, "one-tap sub-range from y0 > 0")
	}
	return cases
}

// conv3x3Cases names what a 3×3 layer, checked over a sub-range starting
// at (k0, c0, y0), exercises of the 3×3 path: the stride, the plane (an
// interior is an output pixel whose window lies wholly inside the input),
// the padding, the layer type, a sub-range starting mid-tensor, and on a
// plane with an interior column the rows whose windows cross the padding.
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
	// A border row's windows cross the top or bottom padding.
	border := func(o int) bool { i := o*l.Stride - padY; return i < 0 || i+3 > l.H }
	if inside(padX, l.W, l.OutW()) {
		for o := 0; o < l.OutH(); o++ {
			if border(o) {
				cases = append(cases, fmt.Sprintf("border rows at stride %d", l.Stride))
				break
			}
		}
		if l.H < 3 {
			cases = append(cases, "H < 3 with an interior column")
		}
		if y0 > 0 && border(y0) {
			cases = append(cases, "sub-range from a border row y0 > 0")
		}
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

// TestKernelsAllocFree: every layer kernel of Mini and MobileNet/8, and the
// draw of each layer's weights, allocates nothing.
func TestKernelsAllocFree(t *testing.T) {
	for _, name := range []string{"Mini", "MobileNet/8"} {
		net, err := workload.ResolveShape(name)
		if err != nil {
			t.Fatal(err)
		}
		cur, ws := RandomModel(net, 1)
		for i, l := range net.Layers {
			in, err := reshapeInput(l, cur)
			if err != nil {
				t.Fatal(err)
			}
			out := NewTensor(l.K, l.OutH(), l.OutW())
			if n := testing.AllocsPerRun(10, func() {
				if l.Type == workload.Pool {
					AccumulatePool(out, in, l, 0, l.K, 0, out.H)
				} else {
					AccumulateConv(out, in, ws[i], l, 0, l.K, 0, l.ReductionChannels(), 0, out.H)
				}
			}); n != 0 {
				t.Errorf("%s layer %s: %v allocations per call", name, l.Name, n)
			}
			if w := ws[i]; w != nil {
				if n := testing.AllocsPerRun(10, func() { w.Randomize(int64(i)) }); n != 0 {
					t.Errorf("%s layer %s: %v allocations per weight draw", name, l.Name, n)
				}
			}
			cur = out
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

// TestRandomizeMatchesMathRand: Tensor.Randomize and RandomWeights draw
// the values rand.New(rand.NewSource(seed)).Intn gives, value for value.
func TestRandomizeMatchesMathRand(t *testing.T) {
	check := func(what string, data []int32, seed int64, n int) {
		t.Helper()
		rng := rand.New(rand.NewSource(seed))
		for i, v := range data {
			if want := int32(rng.Intn(n) - n/2); v != want {
				t.Fatalf("%s seed %d: element %d = %d, math/rand gives %d", what, seed, i, v, want)
			}
		}
	}
	for _, name := range []string{"Mini", "MobileNet/8"} {
		net, err := workload.ResolveShape(name)
		if err != nil {
			t.Fatal(err)
		}
		first := net.Layers[0]
		for seed := int64(-10); seed < 40; seed++ {
			in := NewTensor(first.C, first.H, first.W)
			in.Randomize(seed)
			check(name+" input", in.Data, seed, 16)
			for i, w := range RandomWeights(net, seed) {
				if w != nil {
					check(fmt.Sprintf("%s layer %d", name, i), w.Data, seed+int64(i)+1, 8)
				}
			}
		}
	}
}

// accumulatePoolRef is the element-wise max pool: each window element
// through a bounds test, the maximum of those inside (0 if none).
func accumulatePoolRef(out, in *Tensor, l workload.Layer, k0, k1, y0, y1 int) {
	padY, padX := PadOrigin(l)
	for k := k0; k < k1 && k < l.K; k++ {
		for y := y0; y < y1 && y < out.H; y++ {
			for x := 0; x < out.W; x++ {
				var vals []int32
				for r := 0; r < l.R; r++ {
					for s := 0; s < l.S; s++ {
						iy, ix := y*l.Stride+r-padY, x*l.Stride+s-padX
						if iy >= 0 && iy < in.H && ix >= 0 && ix < in.W {
							vals = append(vals, in.At(k, iy, ix))
						}
					}
				}
				best := int32(0)
				if len(vals) > 0 {
					best = slices.Max(vals)
				}
				out.Set(k, y, x, best)
			}
		}
	}
}

// TestAccumulatePoolMatchesReference is the seeded differential test of
// max pooling: random R, S in 1 – 3, stride 1 – 3, same and valid padding
// on planes from 1×1 up, full-range values with ties and both int32 bounds,
// and random sub-ranges whose upper bounds may lie past K and OutH. Both
// the 2×2 / stride-2 path and the general loop must be reached.
func TestAccumulatePoolMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const want = 5000
	reached := map[string]int{}
	for shapes := 0; shapes < want; {
		c := 1 + rng.Intn(4)
		l := workload.Layer{
			Name: "pool", Type: workload.Pool, C: c, K: c, H: 1 + rng.Intn(8), W: 1 + rng.Intn(8),
			R: 1 + rng.Intn(3), S: 1 + rng.Intn(3), Stride: 1 + rng.Intn(3), Valid: rng.Intn(2) == 0,
		}
		if rng.Intn(3) == 0 {
			l.R, l.S, l.Stride = 2, 2, 2
		}
		if l.Validate() != nil || l.OutH() < 1 || l.OutW() < 1 {
			continue
		}
		shapes++
		padY, padX := PadOrigin(l)
		if l.R == 2 && l.S == 2 && l.Stride == 2 && padY == 0 && padX == 0 &&
			2*l.OutH() <= l.H && 2*l.OutW() <= l.W {
			reached["2×2 / stride-2 path"]++
		} else {
			reached["general loop"]++
		}
		in := NewTensor(l.C, l.H, l.W)
		fillFullRange(rng, in.Data)
		for i := range in.Data {
			switch rng.Intn(8) {
			case 0:
				in.Data[i] = in.Data[rng.Intn(len(in.Data))] // a tie
			case 1:
				in.Data[i] = math.MinInt32
			case 2:
				in.Data[i] = math.MaxInt32
			}
		}
		k0, y0 := rng.Intn(l.K), rng.Intn(l.OutH())
		for _, r := range [][4]int{
			{0, l.K, 0, l.OutH()},
			{k0, k0 + rng.Intn(l.K+2), y0, y0 + rng.Intn(l.OutH()+2)},
		} {
			got := NewTensor(l.K, l.OutH(), l.OutW())
			fillFullRange(rng, got.Data)
			ref := NewTensor(got.Chans, got.H, got.W)
			copy(ref.Data, got.Data)
			AccumulatePool(got, in, l, r[0], r[1], r[2], r[3])
			accumulatePoolRef(ref, in, l, r[0], r[1], r[2], r[3])
			if !got.Equal(ref) {
				t.Fatalf("layer %+v k[%d,%d) y[%d,%d): differs from the element-wise reference", l, r[0], r[1], r[2], r[3])
			}
		}
	}
	for _, c := range []string{"2×2 / stride-2 path", "general loop"} {
		if reached[c] < want/10 {
			t.Errorf("of %d shapes only %d take the %s", want, reached[c], c)
		}
	}
}

var benchSink int32

// layerNamed returns the layer of net called name.
func layerNamed(b *testing.B, net workload.Network, name string) workload.Layer {
	for _, l := range net.Layers {
		if l.Name == name {
			return l
		}
	}
	b.Fatalf("%s has no layer %q", net.Name, name)
	return workload.Layer{}
}

// BenchmarkAccumulateConv times one full layer of each kernel shape
// MobileNet/8 runs: the first 3×3 convolution, the first depthwise and
// pointwise layers, the classifier, and the one-tap layers on 2×2 (pw8)
// and 1×1 (pw14) planes; and Mini's stride-1 3×3 convolution (3x3) and
// pointwise layer.
func BenchmarkAccumulateConv(b *testing.B) {
	net, err := workload.ResolveShape("MobileNet/8")
	if err != nil {
		b.Fatal(err)
	}
	mini := workload.Mini()
	arms := []struct {
		name string
		l    workload.Layer
	}{
		{"conv", layerNamed(b, net, "conv1")}, {"depthwise", layerNamed(b, net, "dw2")},
		{"pointwise", layerNamed(b, net, "pw2")}, {"fc", layerNamed(b, net, "fc")},
		{"pointwise-2x2", layerNamed(b, net, "pw8")}, {"pointwise-1x1", layerNamed(b, net, "pw14")},
		{"3x3", layerNamed(b, mini, "c1")}, {"mini-pw", layerNamed(b, mini, "pw")},
	}
	for _, arm := range arms {
		l := arm.l
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

// BenchmarkAccumulatePool times Mini's 2×2 / stride-2 max pool.
func BenchmarkAccumulatePool(b *testing.B) {
	l := layerNamed(b, workload.Mini(), "p1")
	in := NewTensor(l.C, l.H, l.W)
	in.Randomize(1)
	out := NewTensor(l.K, l.OutH(), l.OutW())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AccumulatePool(out, in, l, 0, l.K, 0, out.H)
	}
	benchSink = out.Data[0]
}

// BenchmarkForwardNetwork times the reference forward pass of Mini and
// MobileNet/8 on their seed-1 model, as the benchmark's nn.forward_ms.mini
// and .deep do.
func BenchmarkForwardNetwork(b *testing.B) {
	for _, arm := range []struct{ name, net string }{{"mini", "Mini"}, {"deep", "MobileNet/8"}} {
		b.Run(arm.name, func(b *testing.B) {
			net, err := workload.ResolveShape(arm.net)
			if err != nil {
				b.Fatal(err)
			}
			in, ws := RandomModel(net, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := ForwardNetwork(net, in, ws)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = out.Data[0]
			}
		})
	}
}
