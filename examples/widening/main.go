// Widening demonstrates Seculator+'s model-extraction defence (Section
// 7.5): layer widening pads a network's geometry with junk data, making the
// address trace describe shapes far from the real model, and the Figure 9
// sweep shows Seculator scaling best under that extra traffic. A dummy
// decoy network adds alignment confusion on top.
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
	victim := seculator.MobileNet()

	fmt.Println("Seculator+ MEA defence: layer widening (Section 7.5)")
	fmt.Println()
	fmt.Printf("%-8s %14s %16s %18s\n", "widen", "volume cost", "leakage error", "Seculator+ slowdown")

	baseRun, err := seculator.RunContext(ctx, victim, seculator.SeculatorPlus, cfg)
	if err != nil {
		log.Fatal(err)
	}
	baseLeak, err := seculator.NetworkLeakage(victim, victim, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-8s %13.2fx %16.3f %17.2fx\n", "1.00x", 1.0, baseLeak, 1.0)

	for _, factor := range []float64{1.25, 1.5, 2.0} {
		wnet, err := seculator.WidenNetwork(victim, factor)
		if err != nil {
			log.Fatal(err)
		}
		rep := seculator.CompareWidening(victim, wnet)
		leak, err := seculator.NetworkLeakage(victim, wnet, cfg)
		if err != nil {
			log.Fatal(err)
		}
		run, err := seculator.RunContext(ctx, wnet, seculator.SeculatorPlus, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %13.2fx %16.3f %17.2fx\n",
			fmt.Sprintf("%.2fx", factor), rep.Overhead(), leak,
			float64(run.Cycles)/float64(baseRun.Cycles))
	}

	fmt.Println("\nFigure 9: widening a 32x32x3 layer, latency normalized to the baseline design")
	f9, err := seculator.Fig9Widening(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(f9.Fig9Table())

	dummy, err := seculator.DummyNetwork("decoy", 4, 28, 28, 16, 32)
	if err != nil {
		log.Fatal(err)
	}
	dr, err := seculator.RunContext(ctx, dummy, seculator.SeculatorPlus, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dummy decoy network: %d layers, %d cycles of noise per injection (%.2f%% of MobileNet)\n",
		len(dummy.Layers), dr.Cycles, 100*float64(dr.Cycles)/float64(baseRun.Cycles))
}
