// Command seculator-sim runs one network on one (or every) simulated design
// and prints cycles, normalized performance, traffic breakdown, cache
// statistics and an optional per-layer table.
//
// Usage:
//
//	seculator-sim -network ResNet18 -design Seculator
//	seculator-sim -network VGG16 -all -layers
//	seculator-sim -conformance 200 -seed 1
//	seculator-sim -replay 'seed=7 oracle=vn config={...}'
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"seculator"
	"seculator/internal/conformance"
	"seculator/internal/sim"
)

func main() {
	var (
		networkName = flag.String("network", "ResNet18", "network (MobileNet, ResNet18, AlexNet, VGG16, VGG19, BERT-base, TinyTransformer)")
		designName  = flag.String("design", "Seculator", "design (Baseline, Secure, TNPU, GuardNN, Seculator, Seculator+)")
		all         = flag.Bool("all", false, "run every design and print a comparison")
		layers      = flag.Bool("layers", false, "print the per-layer breakdown")
		showTrace   = flag.Bool("trace", false, "capture and summarize the memory-address trace")
		asJSON      = flag.Bool("json", false, "emit the result as JSON")
		confN       = flag.Int("conformance", 0, "run N seeded conformance trials through all six oracles and exit")
		confSeed    = flag.Int64("seed", 1, "base seed for -conformance (trial i uses seed+i)")
		replayLine  = flag.String("replay", "", "replay one conformance repro line ('seed=… oracle=… config=…', or '-' to read from stdin)")
	)
	flag.Parse()

	if *replayLine != "" {
		replayRepro(*replayLine)
		return
	}
	if *confN > 0 {
		runConformance(*confSeed, *confN)
		return
	}

	net, err := seculator.NetworkByName(*networkName)
	if err != nil {
		fatalf("%v", err)
	}
	ctx := context.Background()
	cfg := seculator.DefaultConfig()

	if *showTrace {
		d := seculator.Baseline
		if !*all {
			var err error
			d, err = designByName(*designName)
			if err != nil {
				fatalf("%v", err)
			}
		}
		tr, err := seculator.CaptureTraceContext(ctx, net, d, cfg)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(tr.Summary())
		fmt.Printf("read/write ratio: %.2f\n", tr.ReadWriteRatio())
		for _, f := range tr.LayerFootprints() {
			fmt.Printf("  layer %2d: %8d read blk  %8d write blk  %8d unique\n",
				f.Layer, f.ReadBlocks, f.WriteBlocks, f.UniqueBlocks)
		}
		return
	}

	if *all {
		runAll(ctx, net, cfg, *layers)
		return
	}
	design, err := designByName(*designName)
	if err != nil {
		fatalf("%v", err)
	}
	base, err := seculator.RunContext(ctx, net, seculator.Baseline, cfg)
	if err != nil {
		fatalf("baseline: %v", err)
	}
	res, err := seculator.RunContext(ctx, net, design, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatalf("%v", err)
		}
		return
	}
	printResult(res, base, cfg, *layers)
}

func runAll(ctx context.Context, net seculator.Network, cfg seculator.Config, layers bool) {
	results, err := seculator.RunAllContext(ctx, net, seculator.Designs(), cfg)
	if err != nil {
		fatalf("%v", err)
	}
	base := results[0]
	fmt.Printf("%s (%d layers, %.1fM params)\n\n", net.Name, len(net.Layers), float64(net.Params())/1e6)
	fmt.Printf("%-11s %14s %8s %9s %12s\n", "design", "cycles", "perf", "traffic", "overhead-blk")
	for _, r := range results {
		fmt.Printf("%-11s %14d %8.3f %9.3f %12d\n",
			r.Design, r.Cycles, r.Performance(base), r.NormalizedTraffic(base), r.Traffic.Overhead())
	}
	if layers {
		for _, r := range results {
			fmt.Println()
			printResult(r, base, cfg, true)
		}
	}
}

func printResult(r, base seculator.Result, cfg seculator.Config, layers bool) {
	fmt.Printf("network  : %s\n", r.Network)
	fmt.Printf("design   : %s\n", r.Design)
	fmt.Printf("cycles   : %d (%.3f ms at %.2f GHz)\n",
		r.Cycles, r.Seconds(cfg.NPU.FreqHz)*1e3, cfg.NPU.FreqHz/1e9)
	fmt.Printf("perf     : %.3f (baseline = 1.0)\n", r.Performance(base))
	fmt.Printf("traffic  : %.3f x baseline (%d blocks, %d metadata)\n",
		r.NormalizedTraffic(base), r.Traffic.Total(), r.Traffic.Overhead())
	for _, k := range sim.TrafficKinds() {
		if n := r.Traffic.ByKind(k); n > 0 {
			fmt.Printf("  %-8s %d blocks\n", k, n)
		}
	}
	if r.HasMACCache {
		fmt.Printf("mac cache    : %.1f%% miss (%d accesses)\n", r.MACCache.MissRate()*100, r.MACCache.Accesses)
	}
	if r.HasCounterCache {
		fmt.Printf("counter cache: %.1f%% miss (%d accesses)\n", r.CounterCache.MissRate()*100, r.CounterCache.Accesses)
	}
	if layers {
		fmt.Printf("\n%-12s %12s %12s %12s %10s %10s %6s %s\n",
			"layer", "cycles", "compute", "memory", "data-blk", "extra-blk", "util", "bound")
		for _, l := range r.Layers {
			bound := "compute"
			if l.MemoryBound {
				bound = "memory"
			}
			fmt.Printf("%-12s %12d %12d %12d %10d %10d %5.1f%% %s\n",
				l.Name, l.Cycles, l.ComputeCycles, l.MemCycles, l.DataBlocks, l.ExtraBlocks,
				l.Utilization*100, bound)
		}
	}
}

// runConformance drives n seeded trials through the six-oracle battery.
// Any failure prints its minimized one-line repro and the process exits 1.
func runConformance(base int64, n int) {
	fmt.Printf("conformance: %d trials, seeds %d..%d, oracles: %s %s %s %s %s %s\n",
		n, base, base+int64(n)-1, conformance.OracleVN, conformance.OracleCrossScheme,
		conformance.OracleSerialParallel, conformance.OracleAttack, conformance.OraclePipeline,
		conformance.OracleGateway)
	fails := conformance.Run(base, n, func(done int, f *conformance.Failure) {
		if f != nil {
			fmt.Printf("FAIL %s\n", f.ReproLine())
			fmt.Printf("     %v\n", f.Err)
		}
		if done%50 == 0 {
			fmt.Printf("  %d/%d trials done\n", done, n)
		}
	})
	if len(fails) > 0 {
		fatalf("conformance: %d/%d trials failed (repro lines above replay with -replay)", len(fails), n)
	}
	fmt.Printf("conformance: all %d trials passed\n", n)
}

// replayRepro re-executes one repro line deterministically.
func replayRepro(line string) {
	if line == "-" {
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		if !sc.Scan() {
			fatalf("replay: no repro line on stdin")
		}
		line = sc.Text()
	}
	cfg, oracle, err := conformance.ParseRepro(line)
	if err != nil {
		fatalf("%v", err)
	}
	if err := conformance.Replay(cfg, oracle); err != nil {
		fatalf("replay: failure reproduces: %v", err)
	}
	which := oracle
	if which == "" {
		which = "all oracles"
	}
	fmt.Printf("replay: seed=%d passes %s\n", cfg.Seed, which)
}

func designByName(name string) (seculator.Design, error) {
	for _, d := range seculator.Designs() {
		if strings.EqualFold(d.String(), name) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown design %q (want one of Baseline, Secure, TNPU, GuardNN, Seculator, Seculator+)", name)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "seculator-sim: "+format+"\n", args...)
	os.Exit(1)
}
