// Modelzoo sweeps the five benchmark CNNs of Table 1 across all six
// simulated designs — the full evaluation of Figures 7 and 8 — and prints
// normalized performance, normalized traffic and metadata-cache behaviour.
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

	fmt.Println("Model zoo: five CNNs x six designs (Figures 7 & 8)")
	fmt.Println()
	for _, net := range seculator.Benchmarks() {
		results, err := seculator.RunAllContext(ctx, net, seculator.Designs(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		base := results[0]
		fmt.Printf("%s — %d layers, %.1fM params, %.2f GMACs\n",
			net.Name, len(net.Layers), float64(net.Params())/1e6, float64(net.MACs())/1e9)
		fmt.Printf("  %-11s %8s %9s %11s %10s\n", "design", "perf", "traffic", "extra-blk", "mac-miss")
		for _, r := range results {
			macMiss := "-"
			if r.HasMACCache {
				macMiss = fmt.Sprintf("%.1f%%", r.MACCache.MissRate()*100)
			}
			fmt.Printf("  %-11s %8.3f %9.3f %11d %10s\n",
				r.Design, r.Performance(base), r.NormalizedTraffic(base),
				r.Traffic.Overhead(), macMiss)
		}
		fmt.Println()
	}

	res, err := seculator.Fig7Performance(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean normalized performance: Secure %.3f, TNPU %.3f, GuardNN %.3f, Seculator %.3f\n",
		res.Mean(seculator.Secure, false), res.Mean(seculator.TNPU, false),
		res.Mean(seculator.GuardNN, false), res.Mean(seculator.Seculator, false))
	fmt.Printf("Seculator speedup over TNPU: %.1f%% (paper: ~16%%)\n",
		(res.Mean(seculator.Seculator, false)/res.Mean(seculator.TNPU, false)-1)*100)
}
