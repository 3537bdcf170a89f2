// Quickstart: simulate ResNet-18 on the unprotected baseline, on TNPU (the
// closest prior work) and on Seculator, and print the paper's headline
// numbers — Seculator's near-zero overhead and its speedup over TNPU.
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
	net := seculator.ResNet18()

	base, err := seculator.RunContext(ctx, net, seculator.Baseline, cfg)
	if err != nil {
		log.Fatal(err)
	}
	tnpu, err := seculator.RunContext(ctx, net, seculator.TNPU, cfg)
	if err != nil {
		log.Fatal(err)
	}
	sec, err := seculator.RunContext(ctx, net, seculator.Seculator, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ResNet-18 on the Table 1 NPU (32x32 PEs @ %.2f GHz)\n\n", cfg.NPU.FreqHz/1e9)
	for _, r := range []seculator.Result{base, tnpu, sec} {
		fmt.Printf("%-10s  %12d cycles  %.3f ms  perf %.3f  traffic %.3fx\n",
			r.Design, r.Cycles, r.Seconds(cfg.NPU.FreqHz)*1e3,
			r.Performance(base), r.NormalizedTraffic(base))
	}

	fmt.Printf("\nSeculator security overhead vs baseline : %+.1f%%\n",
		(1/sec.Performance(base)-1)*100)
	fmt.Printf("Seculator speedup over TNPU              : %+.1f%%\n",
		(sec.Performance(base)/tnpu.Performance(base)-1)*100)
	fmt.Printf("Metadata DRAM blocks (TNPU vs Seculator) : %d vs %d\n",
		tnpu.Traffic.Overhead(), sec.Traffic.Overhead())

	area, power := seculator.HardwareTotals()
	fmt.Printf("Added security hardware                  : %.0f um^2, %.0f uW (Table 6)\n", area, power)
}
