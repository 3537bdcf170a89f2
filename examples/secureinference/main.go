// Secureinference runs a real (integer) CNN end to end through Seculator's
// functional protection path — AES-CTR encrypted DRAM, FSM version numbers,
// XOR-MAC layer verification — and shows three things:
//
//  1. the decrypted output is bit-identical to the unprotected reference,
//  2. an attacker tampering DRAM mid-inference is caught at the next layer
//     check, and
//  3. the behavioural detection matrix across all five designs.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"seculator"
	"seculator/internal/mac"
)

func main() {
	net := seculator.Network{
		Name: "demo-cnn",
		Layers: []seculator.Layer{
			{Name: "conv1", Type: seculator.Conv, C: 3, H: 16, W: 16, K: 8, R: 3, S: 3, Stride: 1},
			{Name: "pool1", Type: seculator.Pool, C: 8, H: 16, W: 16, K: 8, R: 2, S: 2, Stride: 2, Valid: true},
			{Name: "dw2", Type: seculator.Depthwise, C: 8, H: 8, W: 8, K: 8, R: 3, S: 3, Stride: 1},
			{Name: "pw2", Type: seculator.Pointwise, C: 8, H: 8, W: 8, K: 16, R: 1, S: 1, Stride: 1},
			{Name: "fc", Type: seculator.FC, C: 16 * 8 * 8, H: 1, W: 1, K: 10, R: 1, S: 1, Stride: 1},
		},
	}
	input, weights := seculator.RandomModel(net, 2026)
	ctx := context.Background()

	golden, err := seculator.ReferenceInference(net, input, weights)
	if err != nil {
		log.Fatal(err)
	}

	res, err := seculator.SecureInferenceContext(ctx, net, input, weights, seculator.InferenceOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("secure inference over %d layers, %d encrypted DRAM lines\n", res.Layers, res.Blocks)
	fmt.Printf("logits (secure): %v\n", res.Output.Data)
	fmt.Printf("logits (golden): %v\n", golden.Data)
	if res.Output.Equal(golden) {
		fmt.Println("outputs are BIT-IDENTICAL: the protection is transparent to the numerics")
	} else {
		log.Fatal("outputs diverged!")
	}

	// Attack the same inference: flip one DRAM byte after layer 1.
	_, err = seculator.SecureInferenceContext(ctx, net, input, weights, seculator.InferenceOptions{
		Hook: func(phase int, d *seculator.DRAM) {
			if phase == 1 {
				var last uint64
				for addr := uint64(0); addr < 100000; addr++ {
					if d.Peek(addr) != nil {
						last = addr
					}
				}
				d.Tamper(last, 7, 0x04)
			}
		},
	})
	if errors.Is(err, mac.ErrIntegrity) {
		fmt.Println("\nmid-inference DRAM tamper: DETECTED -> execution aborted, NPU reboots")
	} else {
		log.Fatalf("tamper outcome unexpected: %v", err)
	}

	// The behavioural Table 5 across all designs.
	tbl, err := seculator.DetectionMatrixTable(seculator.DefaultAttackScenario())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Println(tbl)
}
