// Package nn provides the numerical layer of the reproduction: exact
// (int32) tensors and forward-pass kernels for the layer types the
// simulator schedules — convolution, depthwise convolution, pooling and
// fully connected layers.
//
// Integer arithmetic is deliberate: the secure executor computes layers as
// tiled partial sums in a dataflow-dependent order, and the end-to-end
// tests require bit-exact agreement with this package's direct reference
// implementation, which floating point's non-associativity would forbid.
// Int32 also matches the 4-byte fixed-point pixels of the NPU model.
package nn

import (
	"fmt"

	"seculator/internal/workload"
)

// Tensor is a dense (Chans, H, W) activation volume of int32 elements in
// channel-major, row-major order.
type Tensor struct {
	Chans, H, W int
	Data        []int32
}

// NewTensor allocates a zero tensor.
func NewTensor(chans, h, w int) *Tensor {
	if chans <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("nn: invalid tensor shape %dx%dx%d", chans, h, w))
	}
	return &Tensor{Chans: chans, H: h, W: w, Data: make([]int32, chans*h*w)}
}

// At returns the element at (c, y, x).
func (t *Tensor) At(c, y, x int) int32 {
	return t.Data[(c*t.H+y)*t.W+x]
}

// Set stores v at (c, y, x).
func (t *Tensor) Set(c, y, x int, v int32) {
	t.Data[(c*t.H+y)*t.W+x] = v
}

// AtPadded returns the element at (c, y, x), or 0 outside the bounds —
// zero padding as the convolution kernels see it.
func (t *Tensor) AtPadded(c, y, x int) int32 {
	if y < 0 || y >= t.H || x < 0 || x >= t.W {
		return 0
	}
	return t.At(c, y, x)
}

// Equal reports element-wise equality of same-shaped tensors.
func (t *Tensor) Equal(o *Tensor) bool {
	if t.Chans != o.Chans || t.H != o.H || t.W != o.W {
		return false
	}
	for i, v := range t.Data {
		if v != o.Data[i] {
			return false
		}
	}
	return true
}

// Randomize fills the tensor with small deterministic values in [-8, 8)
// from the seed, keeping tiled accumulation far from int32 overflow.
func (t *Tensor) Randomize(seed int64) {
	draw(t.Data, seed, 16)
}

// draw fills data with the values rand.New(rand.NewSource(seed)).Intn(n) − n/2
// returns, for n a power of two: Intn(n) is then Int31() & (n−1), and Int31
// is the top 31 bits of the source's Int63. The values come from source, an
// exact port of the generator behind rand.NewSource that seeds in closed
// form and draws in runs, on the caller's stack. math/rand stays the one
// definition of every model: the port derives its cooked table from it on
// the first seeding, and TestRandomizeMatchesMathRand,
// TestRandomWeightsMatchesRandomModel and FuzzDrawMatchesMathRand hold the
// port to it value for value.
func draw(data []int32, seed int64, n int32) {
	var s source
	s.seed(seed)
	s.fill(data, n)
}

// Weights is the filter tensor of one layer: K filters of (C, R, S).
type Weights struct {
	K, C, R, S int
	Data       []int32
}

// NewWeights allocates zero weights.
func NewWeights(k, c, r, s int) *Weights {
	if k <= 0 || c <= 0 || r <= 0 || s <= 0 {
		panic(fmt.Sprintf("nn: invalid weight shape %dx%dx%dx%d", k, c, r, s))
	}
	return &Weights{K: k, C: c, R: r, S: s, Data: make([]int32, k*c*r*s)}
}

// At returns w[k][c][r][s].
func (w *Weights) At(k, c, r, s int) int32 {
	return w.Data[((k*w.C+c)*w.R+r)*w.S+s]
}

// Randomize fills the weights with small deterministic values in [-4, 4).
func (w *Weights) Randomize(seed int64) {
	draw(w.Data, seed, 8)
}

// WeightsFor allocates the weight tensor a layer needs (nil for pools and
// upsampling).
func WeightsFor(l workload.Layer) *Weights {
	switch l.Type {
	case workload.Pool, workload.Upsample:
		return nil
	case workload.Depthwise:
		return NewWeights(l.K, 1, l.R, l.S)
	case workload.FC:
		return NewWeights(l.K, l.C, l.R, l.S)
	default:
		return NewWeights(l.K, l.C, l.R, l.S)
	}
}

// PadOrigin returns the top/left padding offsets of a layer: zero for
// valid padding, centered for "same" padding (TensorFlow convention).
func PadOrigin(l workload.Layer) (padY, padX int) {
	if l.Valid {
		return 0, 0
	}
	needY := (l.OutH()-1)*l.Stride + l.R - l.H
	needX := (l.OutW()-1)*l.Stride + l.S - l.W
	if needY < 0 {
		needY = 0
	}
	if needX < 0 {
		needX = 0
	}
	return needY / 2, needX / 2
}

// AccumulateConv adds the partial convolution contribution of input
// channels [c0, c1) to out for output channels [k0, k1) and output rows
// [y0, y1), over all output columns. Depthwise layers reduce each output
// channel against its own input channel regardless of [c0, c1).
//
// A one-tap kernel at stride 1 takes pointwise1, and a 3×3 kernel on a
// plane with interior columns conv3x3. Every other layer runs the clipped
// loop below: the kernel's row and column ranges are clipped against the
// zero padding once per output row and column, and the reduction then runs
// over sub-slices of in.Data and w.Data. Its outer order is k, y, x because
// the late layers of the networks run here have 2×2 and 1×1 planes: with x
// innermost the loop runs once or twice and hoisting its bounds is the cost.
// int32 sums wrap mod 2³², so the result does not depend on the order.
func AccumulateConv(out *Tensor, in *Tensor, w *Weights, l workload.Layer,
	k0, k1, c0, c1, y0, y1 int) {
	padY, padX := PadOrigin(l)
	k1, y1 = min(k1, l.K), min(y1, out.H)
	depthwise := l.Type == workload.Depthwise
	if depthwise {
		if c0 > 0 {
			return // single reduction step: only c-group 0 contributes
		}
		c0, c1 = 0, 1
	} else if c1 = min(c1, l.C); c0 >= c1 {
		return
	}
	plane, filter := in.H*in.W, w.R*w.S
	pointwise := l.R == 1 && l.S == 1 && !depthwise
	if pointwise && l.Stride == 1 {
		pointwise1(out, in, w, k0, k1, c0, c1, y0, y1)
		return
	}
	// in.W >= 3 spares 2×2 and 1×1 planes interior3's divisions.
	if l.R == 3 && l.S == 3 && in.W >= 3 &&
		conv3x3(out, in, w, l.Stride, padY, padX, k0, k1, c0, c1, y0, y1, depthwise) {
		return
	}
	for k := k0; k < k1; k++ {
		// First input plane and filter of the reduction: depthwise pairs
		// input channel k with the output channel's only filter.
		inK, wK := in.Data[c0*plane:], w.Data[(k*w.C+c0)*filter:]
		if depthwise {
			inK = in.Data[k*plane:]
		}
		for y := y0; y < y1; y++ {
			iy := y*l.Stride - padY
			rlo, rhi := max(0, -iy), min(l.R, in.H-iy)
			if rlo >= rhi {
				continue // kernel rows all in the padding
			}
			orow := out.Data[(k*out.H+y)*out.W:][:out.W]
			for x := range orow {
				ix := x*l.Stride - padX
				slo, shi := max(0, -ix), min(l.S, in.W-ix)
				if slo >= shi {
					continue // kernel columns all in the padding
				}
				var sum int32
				if pointwise {
					sum = dotPlanes(inK[iy*in.W+ix:], wK[:c1-c0], plane)
				} else {
					for c := 0; c < c1-c0; c++ {
						for r := rlo; r < rhi; r++ {
							wrow := wK[c*filter+r*w.S+slo:][:shi-slo]
							for i, v := range inK[c*plane+(iy+r)*in.W+ix+slo:][:shi-slo] {
								sum += v * wrow[i]
							}
						}
					}
				}
				orow[x] += sum
			}
		}
	}
}

// pointwise1 is AccumulateConv for a one-tap kernel at stride 1, where the
// output plane is the input plane and output pixel p reads pixel p of every
// input channel. It register-blocks four sums carried across the
// reduction: four adjacent pixels of one output channel, each step reading
// four input values at a plane stride, or on a 1×1 plane (FC) four output
// channels of the one pixel, each step reading one input value. The set-up
// is per k, not per (k, c), which on 2×2 and 1×1 planes would be the cost;
// the pixels and channels left over take dotPlanes.
func pointwise1(out, in *Tensor, w *Weights, k0, k1, c0, c1, y0, y1 int) {
	plane := in.H * in.W
	p0, p1 := y0*in.W, y1*in.W
	inC := in.Data[c0*plane:]
	if plane == 1 && p0 < p1 {
		for ; k0+4 <= k1; k0 += 4 {
			s0, s1, s2, s3 := dot4Rows(inC[:c1-c0], w.Data[k0*w.C+c0:], w.C)
			add4(out.Data[k0:k0+4], s0, s1, s2, s3)
		}
	}
	for k := k0; k < k1 && p0 < p1; k++ {
		wk := w.Data[k*w.C+c0:][:c1-c0]
		o := out.Data[k*plane:][:p1]
		p := p0
		for ; p+4 <= p1; p += 4 {
			s0, s1, s2, s3 := dot4Planes(inC[p:], wk, plane)
			add4(o[p:p+4], s0, s1, s2, s3)
		}
		for ; p < p1; p++ {
			o[p] += dotPlanes(inC[p:], wk, plane)
		}
	}
}

// add4 adds s0 … s3 to d[0:4].
func add4(d []int32, s0, s1, s2, s3 int32) {
	d = d[:4]
	d[0] += s0
	d[1] += s1
	d[2] += s2
	d[3] += s3
}

// conv3x3 is AccumulateConv for a 3×3 kernel on a plane with interior
// columns (whose windows lie wholly inside the input), and reports whether
// it ran. Every output row sums the full nine-tap window: a kernel row in
// the padding takes zero taps over a row of the plane, so border rows need
// no clipping. Per (k, c, y) the taps are hoisted, each interior pixel's
// window is unrolled from three input-row slices, and the edge columns are
// clipped by clip3.
func conv3x3(out, in *Tensor, w *Weights, stride, padY, padX, k0, k1, c0, c1, y0, y1 int, depthwise bool) bool {
	xlo, xhi := interior3(padX, stride, in.W, out.W)
	if xlo == xhi {
		return false
	}
	plane := in.H * in.W
	for k := k0; k < k1; k++ {
		for c := c0; c < c1; c++ {
			inC := in.Data[c*plane:][:plane]
			if depthwise {
				inC = in.Data[k*plane:][:plane]
			}
			t := w.Data[(k*w.C+c)*9:][:9]
			for y := y0; y < y1; y++ {
				iy := y*stride - padY
				var u [9]int32 // t, but zero in the kernel rows in the padding
				var rows [3][]int32
				for r := range rows {
					ry := min(max(iy+r, 0), in.H-1)
					rows[r] = inC[ry*in.W:][:in.W]
					if ry == iy+r {
						u[3*r], u[3*r+1], u[3*r+2] = t[3*r], t[3*r+1], t[3*r+2]
					}
				}
				r0, r1, r2 := rows[0], rows[1], rows[2]
				orow := out.Data[(k*out.H+y)*out.W:][:out.W]
				for x := 0; x < len(orow); x++ {
					if x == xlo {
						x = xhi - 1 // the interior columns are summed below
						continue
					}
					orow[x] += clip3(&u, r0, r1, r2, x*stride-padX)
				}
				window9(orow[xlo:xhi], r0, r1, r2, &u, xlo*stride-padX, stride)
			}
		}
	}
	return true
}

// window9 adds to each o[i] the window of taps u at column ix + i·stride of
// rows r0, r1 and r2, unrolled. At stride 1 each row is sliced once for the
// whole run, which spares two of every pixel's three bounds checks.
func window9(o, r0, r1, r2 []int32, u *[9]int32, ix, stride int) {
	u0, u1, u2, u3, u4, u5, u6, u7, u8 := u[0], u[1], u[2], u[3], u[4], u[5], u[6], u[7], u[8]
	if stride == 1 {
		a, b, d := r0[ix:][:len(o)+2], r1[ix:][:len(o)+2], r2[ix:][:len(o)+2]
		for x := range o {
			o[x] += u0*a[x] + u1*a[x+1] + u2*a[x+2] +
				u3*b[x] + u4*b[x+1] + u5*b[x+2] +
				u6*d[x] + u7*d[x+1] + u8*d[x+2]
		}
		return
	}
	for x := range o {
		a, b, d := r0[ix:ix+3], r1[ix:ix+3], r2[ix:ix+3]
		o[x] += u0*a[0] + u1*a[1] + u2*a[2] +
			u3*b[0] + u4*b[1] + u5*b[2] +
			u6*d[0] + u7*d[1] + u8*d[2]
		ix += stride
	}
}

// clip3 returns the window of taps u at column ix of rows r0, r1 and r2,
// clipped to the columns of the rows.
func clip3(u *[9]int32, r0, r1, r2 []int32, ix int) (sum int32) {
	for s := max(0, -ix); s < min(3, len(r0)-ix); s++ {
		sum += u[s]*r0[ix+s] + u[3+s]*r1[ix+s] + u[6+s]*r2[ix+s]
	}
	return sum
}

// interior3 returns the outputs [lo, hi) on one axis whose three taps lie
// inside an input of extent n: hi is ⌊(n+pad−3)/stride⌋ + 1, which Go's
// truncating division gets right because n+pad ≥ 1.
func interior3(pad, stride, n, outN int) (lo, hi int) {
	lo = min((pad+stride-1)/stride, outN)
	return lo, max(lo, min((n+pad-3+stride)/stride, outN))
}

// dotPlanes returns Σ in[i·plane]·w[i]: the reduction of a one-tap kernel,
// which walks the channels at a plane stride, in four independent sums. It
// is kept out of line because inlined into AccumulateConv's loop nest its
// sums and index spill to the stack, which doubles the time of a
// 128-channel reduction.
//
//go:noinline
func dotPlanes(in, w []int32, plane int) int32 {
	var s0, s1, s2, s3 int32
	i := 0
	for ; i+4 <= len(w); i += 4 {
		v, p := w[i:i+4:i+4], i*plane
		s0 += in[p] * v[0]
		s1 += in[p+plane] * v[1]
		s2 += in[p+2*plane] * v[2]
		s3 += in[p+3*plane] * v[3]
	}
	for ; i < len(w); i++ {
		s0 += in[i*plane] * w[i]
	}
	return s0 + s1 + s2 + s3
}

// dot4Planes is dotPlanes for the four adjacent pixels in[0:4], carried in
// four sums. It is out of line for the reason dotPlanes is.
//
//go:noinline
func dot4Planes(in, w []int32, plane int) (s0, s1, s2, s3 int32) {
	p := 0
	for _, wv := range w {
		v := in[p : p+4 : p+4]
		s0 += v[0] * wv
		s1 += v[1] * wv
		s2 += v[2] * wv
		s3 += v[3] * wv
		p += plane
	}
	return s0, s1, s2, s3
}

// dot4Rows returns the dot products of in with the four weight rows
// w[j·stride:][:len(in)], j = 0 … 3, loading each input value once. It is
// out of line for the reason dotPlanes is.
//
//go:noinline
func dot4Rows(in, w []int32, stride int) (s0, s1, s2, s3 int32) {
	n := len(in)
	w0, w1, w2, w3 := w[:n], w[stride:][:n], w[2*stride:][:n], w[3*stride:][:n]
	for i, v := range in {
		s0 += v * w0[i]
		s1 += v * w1[i]
		s2 += v * w2[i]
		s3 += v * w3[i]
	}
	return s0, s1, s2, s3
}

// AccumulatePool writes the max-pool result for channels [k0, k1) and
// output rows [y0, y1) into out (pooling has a single reduction step). A
// 2×2 window at stride 2 (whose pad origin is always zero) with every
// window inside the plane takes the maximum of four from two input-row
// slices; other shapes skip the padding per element.
func AccumulatePool(out *Tensor, in *Tensor, l workload.Layer, k0, k1, y0, y1 int) {
	padY, padX := PadOrigin(l)
	k1, y1 = min(k1, l.K), min(y1, out.H)
	if l.R == 2 && l.S == 2 && l.Stride == 2 && 2*out.H <= in.H && 2*out.W <= in.W {
		for k := k0; k < k1; k++ {
			for y := y0; y < y1; y++ {
				r0 := in.Data[(k*in.H+2*y)*in.W:][:2*out.W]
				r1 := in.Data[(k*in.H+2*y+1)*in.W:][:2*out.W]
				orow := out.Data[(k*out.H+y)*out.W:][:out.W]
				for x := range orow {
					a, b := r0[2*x:2*x+2], r1[2*x:2*x+2]
					orow[x] = max(a[0], a[1], b[0], b[1])
				}
			}
		}
		return
	}
	for k := k0; k < k1; k++ {
		for y := y0; y < y1; y++ {
			for x := 0; x < out.W; x++ {
				first := true
				var best int32
				for r := 0; r < l.R; r++ {
					for s := 0; s < l.S; s++ {
						iy, ix := y*l.Stride+r-padY, x*l.Stride+s-padX
						if iy < 0 || iy >= in.H || ix < 0 || ix >= in.W {
							continue
						}
						v := in.At(k, iy, ix)
						if first || v > best {
							best, first = v, false
						}
					}
				}
				out.Set(k, y, x, best)
			}
		}
	}
}

// AccumulateUpsample writes zero-insertion upsampling for channels [k0, k1)
// and output rows [y0, y1): output (y, x) carries input (y/f, x/f) when both
// coordinates are multiples of the factor, zero otherwise — the
// deconvolution pre-processing of Section 5.2.
func AccumulateUpsample(out *Tensor, in *Tensor, l workload.Layer, k0, k1, y0, y1 int) {
	f := l.Stride
	for k := k0; k < k1 && k < l.K; k++ {
		for y := y0; y < y1 && y < out.H; y++ {
			for x := 0; x < out.W; x++ {
				var v int32
				if y%f == 0 && x%f == 0 {
					v = in.At(k, y/f, x/f)
				}
				out.Set(k, y, x, v)
			}
		}
	}
}

// Forward computes one layer's full output directly — the golden reference
// the secure executor is checked against. FC layers flatten their input.
func Forward(l workload.Layer, in *Tensor, w *Weights) (*Tensor, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	in, err := reshapeInput(l, in)
	if err != nil {
		return nil, err
	}
	out := NewTensor(l.K, l.OutH(), l.OutW())
	switch l.Type {
	case workload.Pool:
		AccumulatePool(out, in, l, 0, l.K, 0, out.H)
	case workload.Upsample:
		AccumulateUpsample(out, in, l, 0, l.K, 0, out.H)
	default:
		if w == nil {
			return nil, fmt.Errorf("nn: layer %q needs weights", l.Name)
		}
		AccumulateConv(out, in, w, l, 0, l.K, 0, l.ReductionChannels(), 0, out.H)
	}
	return out, nil
}

// reshapeInput flattens the previous activation volume for FC layers and
// validates the shape otherwise.
func reshapeInput(l workload.Layer, in *Tensor) (*Tensor, error) {
	if l.Type == workload.FC && l.H == 1 && l.W == 1 {
		if len(in.Data) != l.C {
			return nil, fmt.Errorf("nn: layer %q: flattened input %d != expected %d",
				l.Name, len(in.Data), l.C)
		}
		return &Tensor{Chans: l.C, H: 1, W: 1, Data: in.Data}, nil
	}
	if in.Chans != l.C || in.H != l.H || in.W != l.W {
		return nil, fmt.Errorf("nn: layer %q: input %dx%dx%d != expected %dx%dx%d",
			l.Name, in.Chans, in.H, in.W, l.C, l.H, l.W)
	}
	return in, nil
}

// ForwardNetwork runs a whole network through the reference path with the
// given per-layer weights (nil entries for pools).
func ForwardNetwork(net workload.Network, in *Tensor, weights []*Weights) (*Tensor, error) {
	if len(weights) != len(net.Layers) {
		return nil, fmt.Errorf("nn: %d weight tensors for %d layers", len(weights), len(net.Layers))
	}
	cur := in
	for i, l := range net.Layers {
		out, err := Forward(l, cur, weights[i])
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
		cur = out
	}
	return cur, nil
}

// RandomModel builds deterministic random weights for every layer of a
// network plus a random input tensor.
func RandomModel(net workload.Network, seed int64) (*Tensor, []*Weights) {
	first := net.Layers[0]
	in := NewTensor(first.C, first.H, first.W)
	in.Randomize(seed)
	return in, RandomWeights(net, seed)
}

// RandomWeights returns RandomModel's weights for the same seed, without
// drawing the input.
func RandomWeights(net workload.Network, seed int64) []*Weights {
	ws := make([]*Weights, len(net.Layers))
	for i, l := range net.Layers {
		if w := WeightsFor(l); w != nil {
			w.Randomize(seed + int64(i) + 1)
			ws[i] = w
		}
	}
	return ws
}
