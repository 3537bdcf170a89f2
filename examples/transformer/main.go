// Transformer evaluates the secure designs on an encoder-only transformer —
// the matmul-dominated workload class the paper's Table 4 characterizes —
// showing that Seculator's advantage carries beyond CNNs, and prints the
// Table 4 pattern rows its tiled matmuls follow.
package main

import (
	"context"
	"fmt"
	"log"

	"seculator"
)

func main() {
	cfg := seculator.DefaultConfig()

	net, err := seculator.Transformer(seculator.BERTBase())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d matmul layers (seq=128, d=768), %.1fM parameters, %.1f GMACs\n\n",
		net.Name, len(net.Layers), float64(net.Params())/1e6, float64(net.MACs())/1e9)

	results, err := seculator.RunAllContext(context.Background(), net, seculator.Designs(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	base := results[0]
	fmt.Printf("%-11s %10s %9s %12s\n", "design", "perf", "traffic", "extra-blk")
	for _, r := range results {
		fmt.Printf("%-11s %10.3f %9.3f %12d\n",
			r.Design, r.Performance(base), r.NormalizedTraffic(base), r.Traffic.Overhead())
	}

	sec := results[4]
	tnpu := results[2]
	fmt.Printf("\nSeculator speedup over TNPU on the transformer: %+.1f%%\n",
		(sec.Performance(base)/tnpu.Performance(base)-1)*100)

	// The Table 4 patterns these matmuls follow: a (seq x d)*(d x d)
	// projection tiled with the mapper's grid.
	fmt.Println("\nTable 4 pattern rows for tiled matmul (sample grid aH=4, aC=3, aW=2):")
	g := seculator.PatternGrid{AlphaHW: 2, AlphaC: 3, AlphaK: 4, OfmapTileBlocks: 1}
	fmt.Println(seculator.PatternTable("table4", g))
}
