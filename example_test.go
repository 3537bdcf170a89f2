package seculator_test

import (
	"context"
	"fmt"

	"seculator"
)

// The basic flow: simulate a benchmark on two designs and compare.
func ExampleRunContext() {
	ctx := context.Background()
	cfg := seculator.DefaultConfig()
	net := seculator.ResNet18()

	base, err := seculator.RunContext(ctx, net, seculator.Baseline, cfg)
	if err != nil {
		panic(err)
	}
	sec, err := seculator.RunContext(ctx, net, seculator.Seculator, cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("Seculator traffic vs baseline: %.3fx\n", sec.NormalizedTraffic(base))
	// Output:
	// Seculator traffic vs baseline: 1.000x
}

// The master equation of Section 5: classify, expand and regenerate a VN
// pattern with the hardware FSM.
func ExampleTriplet() {
	tr := seculator.Triplet{Eta: 2, Kappa: 3, Rho: 2}
	fmt.Println(tr, seculator.ClassifyPattern(tr))

	gen := seculator.NewVNGenerator(tr)
	for {
		v, ok := gen.Next()
		if !ok {
			break
		}
		fmt.Print(v, " ")
	}
	fmt.Println()
	// Output:
	// (1^2,2^2...3^2)^2 P1:Multi-step
	// 1 1 2 2 3 3 1 1 2 2 3 3
}

// Parse the paper's symbolic notation back into a triplet.
func ExampleParsePattern() {
	tr, err := seculator.ParsePattern("(1^4,2^4...8^4)^3")
	if err != nil {
		panic(err)
	}
	fmt.Printf("eta=%d kappa=%d rho=%d len=%d\n", tr.Eta, tr.Kappa, tr.Rho, tr.Len())
	// Output:
	// eta=4 kappa=8 rho=3 len=96
}

// Derive a layer mapping's write pattern analytically.
func ExampleDeriveWritePattern() {
	m := &seculator.Mapping{
		Name:    "example",
		Order:   []seculator.LoopVariable{seculator.LoopSpatial, seculator.LoopChannel, seculator.LoopFilter},
		AlphaHW: 4, AlphaC: 3, AlphaK: 2,
		OfmapTileBlocks: 1,
	}
	fmt.Println(seculator.DeriveWritePattern(m))
	// Output:
	// (1^2,2^2...3^2)^4
}

// Run a real (integer) network through the functional encrypted path and
// confirm the output matches the unprotected reference.
func ExampleSecureInferenceContext() {
	net := seculator.Network{
		Name: "tiny",
		Layers: []seculator.Layer{
			{Name: "c1", Type: seculator.Conv, C: 2, H: 8, W: 8, K: 4, R: 3, S: 3, Stride: 1},
		},
	}
	in, ws := seculator.RandomModel(net, 1)
	golden, err := seculator.ReferenceInference(net, in, ws)
	if err != nil {
		panic(err)
	}
	res, err := seculator.SecureInferenceContext(context.Background(), net, in, ws, seculator.InferenceOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Println("bit-identical:", res.Output.Equal(golden))
	// Output:
	// bit-identical: true
}
