package attack

import (
	"context"
	"fmt"

	"seculator/internal/mem"
	"seculator/internal/parallel"
	"seculator/internal/protect"
)

// NewFunctionalMemory constructs the functional memory of a design over a
// fresh DRAM, returning its off-chip MAC store when the design has one
// (nil for Baseline and Seculator). Seculator+ shares Seculator's memory.
func NewFunctionalMemory(d protect.Design) (protect.FunctionalMemory, *protect.MACStore, *mem.DRAM, error) {
	dram, err := mem.New(mem.DefaultConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	switch d {
	case protect.Baseline:
		return protect.NewBaselineMemory(dram), nil, dram, nil
	case protect.Secure:
		m, err := protect.NewSGXMemory(dram, 0x5ec_0001, 0x5ec_0002, 64)
		if err != nil {
			return nil, nil, nil, err
		}
		return m, m.MACs(), dram, nil
	case protect.TNPU:
		m := protect.NewTNPUMemory(dram, 0x5ec_0003, 0x5ec_0004)
		return m, m.MACs(), dram, nil
	case protect.GuardNN:
		m := protect.NewGuardNNMemory(dram, 0x5ec_0005, 0x5ec_0006)
		return m, m.MACs(), dram, nil
	case protect.Seculator, protect.SeculatorPlus:
		return protect.NewSeculatorMemory(dram, 0x5ec_0007, 0x5ec_0008), nil, dram, nil
	default:
		return nil, nil, nil, fmt.Errorf("attack: no functional memory for design %d", uint8(d))
	}
}

// DetectionCell is one (design, attack) outcome of the behavioural Table 5.
type DetectionCell struct {
	Design    protect.Design
	Attack    MatrixAttack
	Detected  bool
	Corrupted bool
}

// DetectionMatrix runs every attack against every design's functional
// memory and returns the full matrix in design-major, attack-minor order.
// Cells fan out on the worker pool — each builds its own functional memory
// over a fresh DRAM, so no state is shared between concurrent attacks.
// ctx cancels in-flight cells.
func DetectionMatrix(ctx context.Context, s Scenario) ([]DetectionCell, error) {
	designs := []protect.Design{
		protect.Baseline, protect.Secure, protect.TNPU, protect.GuardNN, protect.Seculator,
	}
	type cell struct {
		d   protect.Design
		atk MatrixAttack
	}
	var cells []cell
	for _, d := range designs {
		for _, atk := range MatrixAttacks() {
			cells = append(cells, cell{d, atk})
		}
	}
	return parallel.Map(ctx, 0, cells, func(ctx context.Context, c cell) (DetectionCell, error) {
		m, macs, dram, err := NewFunctionalMemory(c.d)
		if err != nil {
			return DetectionCell{}, err
		}
		res, err := RunMatrix(m, macs, dram, s, c.atk)
		if err != nil {
			return DetectionCell{}, fmt.Errorf("attack: %s/%s: %w", c.d, c.atk, err)
		}
		return DetectionCell{
			Design: c.d, Attack: c.atk,
			Detected: res.Detected, Corrupted: res.Corrupted,
		}, nil
	})
}
