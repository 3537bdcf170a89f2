// Securesession drives the complete system flow of Figure 6: the host CPU
// negotiates a session key, issues one authenticated command per layer over
// the PCIe link — carrying the layer geometry and the master-equation
// triplet for the VN generator — and the NPU executes the model under
// Seculator protection. A man-in-the-middle rewriting a command in flight
// trips the channel authentication and aborts the session, and the defence
// planner then picks a Seculator+ configuration for a leakage target.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"seculator"
	"seculator/internal/host"
)

func main() {
	ctx := context.Background()
	cfg := seculator.DefaultConfig()
	net := seculator.MobileNet()
	key := []byte("negotiated-session-key")

	res, err := seculator.RunSecureSessionContext(ctx, net, cfg, key, seculator.SessionOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("secure session: %s executed under Seculator\n", net.Name)
	fmt.Printf("  %d authenticated layer commands delivered\n", res.Commands)
	fmt.Printf("  %d cycles (%.2f ms), %d DRAM blocks, 0 metadata blocks\n",
		res.Cycles, res.Seconds(cfg.NPU.FreqHz)*1e3, res.Traffic.Total())

	// A man in the middle rewrites layer 5's command in flight.
	_, err = seculator.RunSecureSessionContext(ctx, net, cfg, key, seculator.SessionOptions{
		Intercept: func(layer int, p *seculator.HostPacket) {
			if layer == 5 {
				p.Payload[25] ^= 0x01
			}
		},
	})
	if errors.Is(err, host.ErrChannel) {
		fmt.Println("\nMITM on the command channel: DETECTED -> session aborted, reboot required")
	} else {
		log.Fatalf("unexpected MITM outcome: %v", err)
	}

	// Plan a Seculator+ defence: at least 0.5 leakage error within 8x.
	plan, err := seculator.PlanDefenceContext(ctx, net, cfg, 0.5, 8, seculator.DefaultDefenceOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndefence plan for %s (target leakage >= 0.5, budget 8x):\n", net.Name)
	fmt.Printf("  widen %.2fx", plan.WidenFactor)
	if plan.DummyPeriod > 0 {
		fmt.Printf(" + decoy every %d layers", plan.DummyPeriod)
	}
	fmt.Printf("\n  achieved leakage error %.2f at %.2fx runtime\n", plan.Leakage, plan.Overhead)
}
