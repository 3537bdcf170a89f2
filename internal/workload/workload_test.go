package workload

import (
	"math"
	"testing"
)

func TestAllNetworksValidate(t *testing.T) {
	nets := All()
	if len(nets) != 5 {
		t.Fatalf("All returned %d networks, want 5", len(nets))
	}
	for _, n := range nets {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

// Parameter counts must match Table 1 within 10%.
func TestParameterCountsMatchPaper(t *testing.T) {
	want := map[string]float64{
		"MobileNet": 4.2e6,
		"ResNet18":  11e6,
		"AlexNet":   62e6,
		"VGG16":     138e6,
		"VGG19":     143e6,
	}
	for _, n := range All() {
		target, ok := want[n.Name]
		if !ok {
			t.Fatalf("unexpected network %q", n.Name)
		}
		got := float64(n.Params())
		if rel := math.Abs(got-target) / target; rel > 0.10 {
			t.Errorf("%s params = %.2fM, paper says %.1fM (off by %.1f%%)",
				n.Name, got/1e6, target/1e6, rel*100)
		}
	}
}

func TestLayerGeometry(t *testing.T) {
	// Same padding.
	l := Layer{Type: Conv, C: 3, H: 224, W: 224, K: 64, R: 3, S: 3, Stride: 2}
	if l.OutH() != 112 || l.OutW() != 112 {
		t.Fatalf("same-pad out = %dx%d", l.OutH(), l.OutW())
	}
	// Valid padding.
	l = Layer{Type: Conv, C: 3, H: 227, W: 227, K: 96, R: 11, S: 11, Stride: 4, Valid: true}
	if l.OutH() != 55 {
		t.Fatalf("valid-pad out = %d, want 55", l.OutH())
	}
}

func TestLayerParamsAndMACs(t *testing.T) {
	l := Layer{Type: Conv, C: 16, H: 8, W: 8, K: 32, R: 3, S: 3, Stride: 1}
	if l.Params() != 16*32*9+32 {
		t.Fatalf("conv params = %d", l.Params())
	}
	if l.MACs() != 8*8*32*16*9 {
		t.Fatalf("conv MACs = %d", l.MACs())
	}
	dw := Layer{Type: Depthwise, C: 16, H: 8, W: 8, K: 16, R: 3, S: 3, Stride: 1}
	if dw.Params() != 16*9+16 {
		t.Fatalf("dw params = %d", dw.Params())
	}
	if dw.MACs() != 8*8*16*9 {
		t.Fatalf("dw MACs = %d", dw.MACs())
	}
	if dw.ReductionChannels() != 1 {
		t.Fatal("depthwise reduction must be 1 channel")
	}
	p := Layer{Type: Pool, C: 4, H: 8, W: 8, K: 4, R: 2, S: 2, Stride: 2, Valid: true}
	if p.Params() != 0 {
		t.Fatal("pool has no params")
	}
	if l.ReductionChannels() != 16 {
		t.Fatal("conv reduction channels wrong")
	}
}

func TestLayerValidate(t *testing.T) {
	bad := Layer{Type: Conv, C: 0, H: 1, W: 1, K: 1, R: 1, S: 1, Stride: 1}
	if bad.Validate() == nil {
		t.Fatal("zero-channel layer accepted")
	}
	dw := Layer{Type: Depthwise, C: 8, H: 4, W: 4, K: 16, R: 3, S: 3, Stride: 1}
	if dw.Validate() == nil {
		t.Fatal("depthwise with K != C accepted")
	}
}

func TestNetworkValidateChaining(t *testing.T) {
	n := Network{Name: "broken", Layers: []Layer{
		{Name: "a", Type: Conv, C: 3, H: 8, W: 8, K: 16, R: 3, S: 3, Stride: 1},
		{Name: "b", Type: Conv, C: 99, H: 8, W: 8, K: 16, R: 3, S: 3, Stride: 1},
	}}
	if n.Validate() == nil {
		t.Fatal("channel mismatch accepted")
	}
	n.Layers[1].C = 16
	n.Layers[1].H = 5
	if n.Validate() == nil {
		t.Fatal("spatial mismatch accepted")
	}
	if (Network{Name: "empty"}).Validate() == nil {
		t.Fatal("empty network accepted")
	}
}

func TestByName(t *testing.T) {
	n, err := ByName("VGG16")
	if err != nil || n.Name != "VGG16" {
		t.Fatalf("ByName(VGG16) = %v, %v", n.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestLayerTypeString(t *testing.T) {
	for _, lt := range []LayerType{Conv, Depthwise, Pointwise, FC, Pool} {
		if lt.String() == "" {
			t.Fatalf("empty string for type %d", lt)
		}
	}
}

func TestNetworkMACsPositive(t *testing.T) {
	for _, n := range All() {
		if n.MACs() <= 0 {
			t.Errorf("%s MACs = %d", n.Name, n.MACs())
		}
	}
	// VGG16 is famously ~15.5 GMACs.
	v := VGG16()
	g := float64(v.MACs()) / 1e9
	if g < 13 || g > 18 {
		t.Errorf("VGG16 GMACs = %.1f, expected ~15.5", g)
	}
}

func TestResNetStemPoolPadded(t *testing.T) {
	n := ResNet18()
	var pool1 Layer
	for _, l := range n.Layers {
		if l.Name == "pool1" {
			pool1 = l
		}
	}
	if pool1.OutH() != 56 {
		t.Fatalf("ResNet stem pool out = %d, want 56", pool1.OutH())
	}
}

func TestShrinkBenchmarks(t *testing.T) {
	for _, n := range All() {
		s, err := Shrink(n, 8)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if len(s.Layers) != len(n.Layers) {
			t.Fatalf("%s: shrink changed the topology", n.Name)
		}
		if s.Params() >= n.Params() {
			t.Fatalf("%s: shrink did not reduce parameters", n.Name)
		}
		for i, l := range s.Layers {
			if l.Type != n.Layers[i].Type {
				t.Fatalf("%s layer %d: type changed", n.Name, i)
			}
		}
	}
	if _, err := Shrink(MobileNet(), 0); err == nil {
		t.Fatal("zero divisor accepted")
	}
	// Identity shrink keeps everything valid.
	if _, err := Shrink(ResNet18(), 1); err != nil {
		t.Fatal(err)
	}
}

// ResolveShape accepts the Mini serving net, registry networks and shrunk
// "Name/div" forms, and the results validate.
func TestResolveShape(t *testing.T) {
	for _, name := range []string{"Mini", "MobileNet", "MobileNet/8", "ResNet18/16"} {
		n, err := ResolveShape(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := n.Validate(); err != nil {
			t.Fatalf("%s resolves to invalid network: %v", name, err)
		}
	}
	for _, name := range []string{"", "NoSuch", "NoSuch/4", "Mini/x"} {
		if _, err := ResolveShape(name); err == nil {
			t.Fatalf("%q resolved", name)
		}
	}
}
