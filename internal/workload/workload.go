// Package workload defines the benchmark networks of Table 1 — MobileNet,
// ResNet-18, AlexNet, VGG16 and VGG19 — as per-layer shape descriptions the
// simulator executes. Parameter counts match the paper's table (4.2 M,
// 11 M, 62 M, 138 M, 143 M); layer counts follow the canonical
// architectures (the paper's "Layers" column groups some sublayers
// differently, which we note per network).
package workload

import (
	"fmt"
	"strconv"
	"strings"
)

// LayerType classifies a layer for mapping and timing purposes.
type LayerType uint8

const (
	// Conv is a standard convolution.
	Conv LayerType = iota
	// Depthwise is a depthwise convolution (one filter per channel).
	Depthwise
	// Pointwise is a 1x1 convolution.
	Pointwise
	// FC is a fully connected layer (conv with 1x1 spatial extent).
	FC
	// Pool is max/average pooling (Style-1 pre-processing pattern).
	Pool
	// Upsample is zero-insertion upsampling by the Stride factor — the
	// input pre-processing that turns deconvolution (GAN generators,
	// Section 5.2) into ordinary convolution.
	Upsample
)

// String implements fmt.Stringer.
func (t LayerType) String() string {
	switch t {
	case Conv:
		return "conv"
	case Depthwise:
		return "dwconv"
	case Pointwise:
		return "pwconv"
	case FC:
		return "fc"
	case Pool:
		return "pool"
	case Upsample:
		return "upsample"
	default:
		return fmt.Sprintf("LayerType(%d)", uint8(t))
	}
}

// Layer is one network layer: input fmaps of C channels at H x W, K output
// channels, R x S kernels applied with the given stride. Padding is "same"
// (output spatial extent = input/stride, rounded up).
type Layer struct {
	Name   string
	Type   LayerType
	C      int // input channels
	H, W   int // input spatial extent
	K      int // output channels
	R, S   int // kernel extent
	Stride int
	Valid  bool // true: valid padding ((H-R)/stride+1); false: "same" (ceil(H/stride))
}

// OutH returns the output rows.
func (l Layer) OutH() int {
	if l.Type == Upsample {
		return l.H * l.Stride
	}
	if l.Valid {
		return (l.H-l.R)/l.Stride + 1
	}
	return ceilDiv(l.H, l.Stride)
}

// OutW returns the output columns.
func (l Layer) OutW() int {
	if l.Type == Upsample {
		return l.W * l.Stride
	}
	if l.Valid {
		return (l.W-l.S)/l.Stride + 1
	}
	return ceilDiv(l.W, l.Stride)
}

// Params returns the number of trainable parameters (weights + biases).
func (l Layer) Params() int64 {
	switch l.Type {
	case Depthwise:
		return int64(l.C)*int64(l.R)*int64(l.S) + int64(l.C)
	case Pool, Upsample:
		return 0
	default:
		return int64(l.K)*int64(l.C)*int64(l.R)*int64(l.S) + int64(l.K)
	}
}

// MACs returns the multiply-accumulate count of one inference pass.
func (l Layer) MACs() int64 {
	out := int64(l.OutH()) * int64(l.OutW())
	switch l.Type {
	case Depthwise:
		return out * int64(l.C) * int64(l.R) * int64(l.S)
	case Pool:
		return out * int64(l.C) * int64(l.R) * int64(l.S) // comparisons/adds
	case Upsample:
		return out * int64(l.C) // zero-insertion copies
	default:
		return out * int64(l.K) * int64(l.C) * int64(l.R) * int64(l.S)
	}
}

// ReductionChannels returns the channel depth reduced per output element:
// depthwise layers and pools reduce within a single channel.
func (l Layer) ReductionChannels() int {
	if l.PerChannel() {
		return 1
	}
	return l.C
}

// PerChannel reports whether each output channel depends only on its own
// input channel (depthwise, pooling, upsampling).
func (l Layer) PerChannel() bool {
	return l.Type == Depthwise || l.Type == Pool || l.Type == Upsample
}

// Validate checks the layer's dimensions.
func (l Layer) Validate() error {
	if l.C <= 0 || l.H <= 0 || l.W <= 0 || l.K <= 0 || l.R <= 0 || l.S <= 0 || l.Stride <= 0 {
		return fmt.Errorf("workload: layer %q has non-positive dimension: %+v", l.Name, l)
	}
	if (l.Type == Depthwise || l.Type == Upsample) && l.K != l.C {
		return fmt.Errorf("workload: %s layer %q must have K == C", l.Type, l.Name)
	}
	return nil
}

// Network is an ordered list of layers.
type Network struct {
	Name   string
	Note   string // how the paper's "Layers" count relates to ours
	Layers []Layer
}

// Params sums trainable parameters.
func (n Network) Params() int64 {
	var p int64
	for _, l := range n.Layers {
		p += l.Params()
	}
	return p
}

// MACs sums the MAC count of one inference pass.
func (n Network) MACs() int64 {
	var m int64
	for _, l := range n.Layers {
		m += l.MACs()
	}
	return m
}

// Validate checks every layer and the inter-layer shape chaining.
func (n Network) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("workload: network %q has no layers", n.Name)
	}
	for i, l := range n.Layers {
		if err := l.Validate(); err != nil {
			return err
		}
		if i == 0 {
			continue
		}
		prev := n.Layers[i-1]
		if l.Type == FC && l.H == 1 && l.W == 1 {
			// FC layers consume the flattened activation volume.
			if want := prev.K * prev.OutH() * prev.OutW(); l.C != want {
				return fmt.Errorf("workload: %s layer %d (%s): flattened input %d != previous volume %d",
					n.Name, i, l.Name, l.C, want)
			}
			continue
		}
		if l.C != prev.K {
			return fmt.Errorf("workload: %s layer %d (%s): input channels %d != previous output %d",
				n.Name, i, l.Name, l.C, prev.K)
		}
		if l.H != prev.OutH() || l.W != prev.OutW() {
			return fmt.Errorf("workload: %s layer %d (%s): input %dx%d != previous output %dx%d",
				n.Name, i, l.Name, l.H, l.W, prev.OutH(), prev.OutW())
		}
	}
	return nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// conv is a shorthand constructor used by the network builders.
func conv(name string, c, h, w, k, r, stride int) Layer {
	return Layer{Name: name, Type: Conv, C: c, H: h, W: w, K: k, R: r, S: r, Stride: stride}
}

func pool(name string, c, h, w, r, stride int) Layer {
	return Layer{Name: name, Type: Pool, C: c, H: h, W: w, K: c, R: r, S: r, Stride: stride, Valid: true}
}

func fc(name string, c, k int) Layer {
	return Layer{Name: name, Type: FC, C: c, H: 1, W: 1, K: k, R: 1, S: 1, Stride: 1}
}

// AlexNet returns the 13-layer AlexNet of the paper (5 conv + 3 pool +
// 3 FC, with the two grouped conv layers modeled ungrouped + the input
// pipeline), ~62 M parameters.
func AlexNet() Network {
	ls := []Layer{
		{Name: "conv1", Type: Conv, C: 3, H: 227, W: 227, K: 96, R: 11, S: 11, Stride: 4, Valid: true},
		pool("pool1", 96, 55, 55, 3, 2),
		conv("conv2", 96, 27, 27, 256, 5, 1),
		pool("pool2", 256, 27, 27, 3, 2),
		conv("conv3", 256, 13, 13, 384, 3, 1),
		conv("conv4", 384, 13, 13, 384, 3, 1),
		conv("conv5", 384, 13, 13, 256, 3, 1),
		pool("pool5", 256, 13, 13, 3, 2),
		fc("fc6", 6*6*256, 4096), // consumes the flattened 6x6x256 volume
		fc("fc7", 4096, 4096),
		fc("fc8", 4096, 1000),
	}
	return Network{
		Name:   "AlexNet",
		Note:   "paper counts 13 layers incl. the two response-norm layers; we model the 11 compute layers",
		Layers: ls,
	}
}

// vggBlock appends n same-size conv layers followed by a 2x2 pool.
func vggBlock(ls []Layer, idx *int, c, h, w, k, n int) ([]Layer, int, int, int) {
	in := c
	for i := 0; i < n; i++ {
		*idx++
		ls = append(ls, conv(fmt.Sprintf("conv%d", *idx), in, h, w, k, 3, 1))
		in = k
	}
	ls = append(ls, pool(fmt.Sprintf("pool%d", *idx), k, h, w, 2, 2))
	return ls, k, h / 2, w / 2
}

func vgg(name string, convsPerBlock [5]int, note string) Network {
	var ls []Layer
	idx := 0
	c, h, w := 3, 224, 224
	ks := [5]int{64, 128, 256, 512, 512}
	for b := 0; b < 5; b++ {
		ls, c, h, w = vggBlock(ls, &idx, c, h, w, ks[b], convsPerBlock[b])
	}
	ls = append(ls,
		Layer{Name: "fc1", Type: FC, C: 512, H: 7, W: 7, K: 4096, R: 7, S: 7, Stride: 7},
		fc("fc2", 4096, 4096),
		fc("fc3", 4096, 1000),
	)
	return Network{Name: name, Note: note, Layers: ls}
}

// VGG16 returns VGG-16 (13 conv + 3 FC + 5 pools), ~138 M parameters.
func VGG16() Network {
	return vgg("VGG16", [5]int{2, 2, 3, 3, 3},
		"paper counts 24 layers (16 weight layers + pools/softmax); we model 21 compute layers")
}

// VGG19 returns VGG-19 (16 conv + 3 FC + 5 pools), ~143 M parameters.
func VGG19() Network {
	return vgg("VGG19", [5]int{2, 2, 4, 4, 4},
		"paper counts the 19 weight layers; pools included here as compute layers")
}

// ResNet18 returns ResNet-18 (a 7x7 stem + 16 3x3 convs + FC), ~11 M
// parameters. Shortcut additions are elementwise and folded into the conv
// layers; the three 1x1 downsample projections are included.
func ResNet18() Network {
	ls := []Layer{
		conv("conv1", 3, 224, 224, 64, 7, 2),
		// Padded 3x3/2 max pool (the canonical ResNet stem): 112 -> 56.
		{Name: "pool1", Type: Pool, C: 64, H: 112, W: 112, K: 64, R: 3, S: 3, Stride: 2},
	}
	stage := func(idx, c, h, k, stride int) []Layer {
		var out []Layer
		out = append(out, conv(fmt.Sprintf("conv%d_1", idx), c, h, h, k, 3, stride))
		oh := ceilDiv(h, stride)
		out = append(out,
			conv(fmt.Sprintf("conv%d_2", idx), k, oh, oh, k, 3, 1),
			conv(fmt.Sprintf("conv%d_3", idx), k, oh, oh, k, 3, 1),
			conv(fmt.Sprintf("conv%d_4", idx), k, oh, oh, k, 3, 1),
		)
		return out
	}
	ls = append(ls, stage(2, 64, 56, 64, 1)...)
	ls = append(ls, stage(3, 64, 56, 128, 2)...)
	ls = append(ls, stage(4, 128, 28, 256, 2)...)
	ls = append(ls, stage(5, 256, 14, 512, 2)...)
	ls = append(ls,
		pool("avgpool", 512, 7, 7, 7, 7),
		fc("fc", 512, 1000),
	)
	return Network{
		Name:   "ResNet18",
		Note:   "18 weight layers; 1x1 shortcut projections folded into stage entry convs",
		Layers: ls,
	}
}

// MobileNet returns MobileNet-V1 (1.0, 224): a stem conv, 13 depthwise-
// separable pairs, pooling and the classifier — ~4.2 M parameters. The
// paper counts 23 layers (stem + 13 separable blocks + pool + FC counted
// per block plus auxiliaries); we enumerate all 28 compute layers.
func MobileNet() Network {
	var ls []Layer
	c, h := 3, 224
	ls = append(ls, conv("conv1", c, h, h, 32, 3, 2))
	c, h = 32, 112
	sep := func(idx, k, stride int) {
		ls = append(ls, Layer{
			Name: fmt.Sprintf("dw%d", idx), Type: Depthwise,
			C: c, H: h, W: h, K: c, R: 3, S: 3, Stride: stride,
		})
		h = ceilDiv(h, stride)
		ls = append(ls, Layer{
			Name: fmt.Sprintf("pw%d", idx), Type: Pointwise,
			C: c, H: h, W: h, K: k, R: 1, S: 1, Stride: 1,
		})
		c = k
	}
	sep(2, 64, 1)
	sep(3, 128, 2)
	sep(4, 128, 1)
	sep(5, 256, 2)
	sep(6, 256, 1)
	sep(7, 512, 2)
	for i := 8; i <= 12; i++ {
		sep(i, 512, 1)
	}
	sep(13, 1024, 2)
	sep(14, 1024, 1)
	ls = append(ls,
		pool("avgpool", 1024, 7, 7, 7, 7),
		fc("fc", 1024, 1000),
	)
	return Network{
		Name:   "MobileNet",
		Note:   "MobileNet-V1 1.0/224; paper's 23-layer count groups the separable pairs",
		Layers: ls,
	}
}

// All returns the five benchmark networks in the paper's order.
func All() []Network {
	return []Network{MobileNet(), ResNet18(), AlexNet(), VGG16(), VGG19()}
}

// ByName returns the named network (case-sensitive) or an error. Besides
// the five CNN benchmarks, the transformer configurations "BERT-base" and
// "TinyTransformer" are accepted.
func ByName(name string) (Network, error) {
	for _, n := range All() {
		if n.Name == name {
			return n, nil
		}
	}
	switch name {
	case BERTBase().Name:
		return Transformer(BERTBase())
	case TinyTransformer().Name:
		return Transformer(TinyTransformer())
	}
	return Network{}, fmt.Errorf("workload: unknown network %q", name)
}

// Mini is the serving demo network: one layer of every type, small enough
// that a functional secure inference completes in milliseconds — the unit
// of work for load generation, smoke tests and the serving benchmarks.
func Mini() Network {
	return Network{
		Name: "Mini",
		Note: "serving demo network (conv/pool/depthwise/pointwise/FC)",
		Layers: []Layer{
			{Name: "c1", Type: Conv, C: 3, H: 12, W: 12, K: 8, R: 3, S: 3, Stride: 1},
			{Name: "p1", Type: Pool, C: 8, H: 12, W: 12, K: 8, R: 2, S: 2, Stride: 2, Valid: true},
			{Name: "dw", Type: Depthwise, C: 8, H: 6, W: 6, K: 8, R: 3, S: 3, Stride: 1},
			{Name: "pw", Type: Pointwise, C: 8, H: 6, W: 6, K: 16, R: 1, S: 1, Stride: 1},
			{Name: "fc", Type: FC, C: 16 * 6 * 6, H: 1, W: 1, K: 10, R: 1, S: 1, Stride: 1},
		},
	}
}

// ResolveShape resolves a model shape name: "Mini", a registry network, or
// "Name/div" for a shrunk benchmark.
func ResolveShape(name string) (Network, error) {
	if name == Mini().Name {
		return Mini(), nil
	}
	if n, err := ByName(name); err == nil {
		return n, nil
	}
	if base, divs, ok := strings.Cut(name, "/"); ok {
		if div, err := strconv.Atoi(divs); err == nil {
			if n, err := ByName(base); err == nil {
				return Shrink(n, div)
			}
		}
	}
	return Network{}, fmt.Errorf("workload: unknown model shape %q", name)
}

// Shrink scales a network down by div in both spatial extent and channel
// width (with floors so every layer stays valid), rebuilding the
// inter-layer chaining. It preserves the topology — layer types, kernels,
// strides, padding — so a full benchmark architecture can be validated
// functionally at tractable size.
func Shrink(n Network, div int) (Network, error) {
	if div < 1 {
		return Network{}, fmt.Errorf("workload: shrink divisor %d must be >= 1", div)
	}
	shrinkDim := func(v, floor int) int {
		s := v / div
		if s < floor {
			s = floor
		}
		return s
	}
	out := Network{Name: fmt.Sprintf("%s/%d", n.Name, div), Note: n.Note}
	h, w, c := 0, 0, 0
	for i, l := range n.Layers {
		sl := l
		if i == 0 {
			sl.H = shrinkDim(l.H, l.R)
			sl.W = shrinkDim(l.W, l.S)
			sl.C = shrinkDim(l.C, 1)
		} else if l.Type == FC && l.H == 1 && l.W == 1 {
			prev := out.Layers[i-1]
			sl.C = prev.K * prev.OutH() * prev.OutW()
		} else {
			sl.H, sl.W, sl.C = h, w, c
		}
		if sl.Type == FC && sl.H == 1 {
			sl.K = shrinkDim(l.K, 1)
		} else {
			switch sl.Type {
			case Depthwise, Pool, Upsample:
				sl.K = sl.C
			default:
				sl.K = shrinkDim(l.K, 1)
			}
		}
		// Keep kernels within the shrunken extent for valid padding.
		if sl.Valid && (sl.R > sl.H || sl.S > sl.W) {
			sl.R, sl.S = sl.H, sl.W
		}
		if err := sl.Validate(); err != nil {
			return Network{}, fmt.Errorf("workload: shrink: layer %d: %w", i, err)
		}
		h, w, c = sl.OutH(), sl.OutW(), sl.K
		out.Layers = append(out.Layers, sl)
	}
	if err := out.Validate(); err != nil {
		return Network{}, fmt.Errorf("workload: shrink produced an invalid network: %w", err)
	}
	return out, nil
}
