// Command seculator-bench regenerates the paper's evaluation: every figure
// and table of the experiment index in DESIGN.md.
//
// Usage:
//
//	seculator-bench               # everything
//	seculator-bench -exp fig7     # one experiment
//	seculator-bench -exp table6
//	seculator-bench -parallel 8   # pin the fan-out worker count
//	seculator-bench -cache-stats  # report simulation-cache hits/misses
//
// Experiments: fig4, fig5, fig7, fig8, fig9, table5, table6, matrix, energy,
// sensitivity, patterns, all.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"seculator"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (fig4, fig5, fig7, fig8, fig9, table5, table6, matrix, energy, sensitivity, patterns, all)")
	format := flag.String("format", "text", "output format: text or markdown")
	par := flag.Int("parallel", 0, "worker count for experiment fan-out (0 = GOMAXPROCS, 1 = serial)")
	stats := flag.Bool("cache-stats", false, "print simulation-cache hit/miss counters after the run")
	flag.Parse()
	seculator.SetParallelism(*par)

	show := func(t seculator.Table) {
		if *format == "markdown" {
			fmt.Println(t.Markdown())
			return
		}
		fmt.Println(t)
	}

	cfg := seculator.DefaultConfig()
	ran := false
	want := func(name string) bool {
		if *exp == "all" || *exp == name {
			ran = true
			return true
		}
		return false
	}

	if want("fig4") || want("fig5") {
		res, err := seculator.Fig4Characterization(cfg)
		check(err)
		if *exp != "fig5" {
			show(res.Fig4Table())
		}
		if *exp != "fig4" {
			show(res.Fig5Table())
		}
	}
	if want("fig7") || want("fig8") {
		res, err := seculator.Fig7Performance(cfg)
		check(err)
		if *exp != "fig8" {
			show(res.Fig7Table())
			fmt.Printf("mean speedup of Seculator over TNPU: %.1f%%\n",
				(res.Mean(seculator.Seculator, false)/res.Mean(seculator.TNPU, false)-1)*100)
			fmt.Printf("mean speedup of Seculator over GuardNN: %.1f%%\n\n",
				(res.Mean(seculator.Seculator, false)/res.Mean(seculator.GuardNN, false)-1)*100)
		}
		if *exp != "fig7" {
			show(res.Fig8Table())
		}
	}
	if want("fig9") {
		res, err := seculator.Fig9Widening(cfg)
		check(err)
		show(res.Fig9Table())
	}
	if want("table5") {
		show(seculator.Table5Matrix())
	}
	if want("table6") {
		show(seculator.Table6Hardware())
	}
	if want("energy") {
		net, err := seculator.NetworkByName("ResNet18")
		check(err)
		tbl, err := seculator.EnergyTable(net, cfg)
		check(err)
		show(tbl)
	}
	if want("sensitivity") {
		net, err := seculator.NetworkByName("ResNet18")
		check(err)
		ctx := context.Background()
		bw, err := seculator.SweepBandwidthContext(ctx, net, cfg, []float64{0.11, 0.22, 0.44})
		check(err)
		show(seculator.SweepTable(bw))
		gb, err := seculator.SweepGlobalBufferContext(ctx, net, cfg, []int{120, 240, 480})
		check(err)
		show(seculator.SweepTable(gb))
		pe, err := seculator.SweepPEArrayContext(ctx, net, cfg, []int{16, 32, 64})
		check(err)
		show(seculator.SweepTable(pe))
		mc, err := seculator.SweepMACCacheContext(ctx, net, cfg, []int{2, 8, 32, 64})
		check(err)
		show(seculator.SweepTable(mc))
	}
	if want("matrix") {
		tbl, err := seculator.DetectionMatrixTable(seculator.DefaultAttackScenario())
		check(err)
		show(tbl)
	}
	if want("patterns") {
		g := seculator.PatternGrid{AlphaHW: 4, AlphaC: 3, AlphaK: 2, OfmapTileBlocks: 1}
		show(seculator.PatternTable("all", g))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "seculator-bench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if *stats {
		cs := seculator.SimCacheStats()
		fmt.Printf("sim cache: %d hits, %d misses, %d entries (%.0f%% hit rate), %d workers\n",
			cs.Hits, cs.Misses, cs.Entries, cs.HitRate()*100, seculator.Parallelism())
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "seculator-bench: %v\n", err)
		os.Exit(1)
	}
}
