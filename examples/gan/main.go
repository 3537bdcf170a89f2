// Gan demonstrates the paper's Section 5.2 claim that Seculator's pattern
// machinery covers deconvolution: a DCGAN-style generator — each
// deconvolution implemented, as the paper prescribes, by zero-insertion
// upsampling pre-processing followed by ordinary convolution — runs both
// through the timing comparison and through the functional encrypted path,
// where the generated "image" must match the unprotected reference bit for
// bit.
package main

import (
	"context"
	"fmt"
	"log"

	"seculator"
)

func main() {
	ctx := context.Background()
	cfg := seculator.DefaultConfig()

	// Timing: the canonical DCGAN generator across designs.
	dcgan, err := seculator.GANGenerator(seculator.DCGAN())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d layers (%d deconv stages), %.1fM params, %.2f GMACs\n\n",
		dcgan.Name, len(dcgan.Layers), len(dcgan.Layers)/2,
		float64(dcgan.Params())/1e6, float64(dcgan.MACs())/1e9)

	results, err := seculator.RunAllContext(ctx, dcgan, seculator.Designs(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	base := results[0]
	fmt.Printf("%-11s %8s %9s\n", "design", "perf", "traffic")
	for _, r := range results {
		fmt.Printf("%-11s %8.3f %9.3f\n", r.Design, r.Performance(base), r.NormalizedTraffic(base))
	}

	// Functional: generate an "image" securely and compare with the
	// reference generator.
	tiny, err := seculator.GANGenerator(seculator.TinyGAN())
	if err != nil {
		log.Fatal(err)
	}
	seed, ws := seculator.RandomModel(tiny, 77)
	golden, err := seculator.ReferenceInference(tiny, seed, ws)
	if err != nil {
		log.Fatal(err)
	}
	res, err := seculator.SecureInferenceContext(ctx, tiny, seed, ws, seculator.InferenceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfunctional generation (%s): %dx%dx%d image through encrypted DRAM\n",
		tiny.Name, res.Output.Chans, res.Output.H, res.Output.W)
	if res.Output.Equal(golden) {
		fmt.Println("generated image is BIT-IDENTICAL to the unprotected reference")
	} else {
		log.Fatal("generator outputs diverged!")
	}

	// The deconvolution's VN pattern: the upsample + conv pair follows the
	// same conv pattern tables (Table 2), as Section 5.2 argues.
	fmt.Println("\ndeconvolution = upsample + conv; both follow the conv pattern tables:")
	g := seculator.PatternGrid{AlphaHW: 4, AlphaC: 2, AlphaK: 2, OfmapTileBlocks: 1}
	fmt.Println(seculator.PatternTable("table2-ir", g))
}
