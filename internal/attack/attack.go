// Package attack implements the adversary of the threat model (Section 3):
// an agent with full control over DRAM and the memory bus who can
// eavesdrop, tamper with data, replay stale ciphertexts, splice blocks
// across addresses, and observe the address trace to extract the model
// (MEA). The package drives the functional Seculator memory through
// multi-layer executions with an attacker hook, and provides the
// shape-inference analyzer used to evaluate Seculator+'s layer widening.
package attack

import (
	"fmt"

	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/protect"
	"seculator/internal/tensor"
)

// Scenario shapes the functional two-layer execution the attacks target.
type Scenario struct {
	Tiles         int // ofmap tiles produced by layer 1
	Versions      int // partial-sum versions per tile (write pattern ramp)
	BlocksPerTile int // 64-byte blocks per tile
	Secret        uint64
	BootRandom    uint64
}

// DefaultScenario returns a small but non-trivial execution.
func DefaultScenario() Scenario {
	return Scenario{Tiles: 4, Versions: 3, BlocksPerTile: 4, Secret: 0x5ec0_1a70, BootRandom: 0xb007}
}

// Layout tells the attacker where layer 1's data lives.
type Layout struct {
	Base          uint64 // block address of tile 0, block 0
	Tiles         int
	BlocksPerTile int
	FinalVN       int
}

// Addr returns the DRAM line address of (tile, block).
func (l Layout) Addr(tile, block int) uint64 {
	return l.Base + uint64(tile*l.BlocksPerTile+block)
}

// Mutator is the attacker hook, invoked after layer 1 has written all its
// outputs (and read back its partials) but before layer 2 consumes them.
// It may mutate DRAM arbitrarily and may also capture snapshots earlier via
// the MidLayer hook.
type Mutator func(d *mem.DRAM, l Layout)

// scenarioMemory builds a scenario's Seculator memory laid out as
// secure.Executor lays out a run: DRAM slab and keystream memo reserved for
// every line before the first write, so the scenario crosses both.
func scenarioMemory(s Scenario) (*mem.DRAM, *protect.SeculatorMemory, Layout, error) {
	layout := Layout{Base: 0, Tiles: s.Tiles, BlocksPerTile: s.BlocksPerTile, FinalVN: s.Versions}
	if s.Tiles <= 0 || s.BlocksPerTile <= 0 {
		return nil, nil, layout, fmt.Errorf("attack: degenerate scenario %+v", s)
	}
	dram, err := mem.New(mem.DefaultConfig())
	if err != nil {
		return nil, nil, layout, err
	}
	lines := layout.Addr(s.Tiles, 0)
	dram.Reserve(lines)
	sm := protect.NewSeculatorMemory(dram, s.Secret, s.BootRandom)
	sm.ReserveKeystreams(lines)
	return dram, sm, layout, nil
}

// RunSeculator executes two layers functionally on the Seculator memory:
// layer 1 writes every tile `Versions` times (reading back each non-final
// partial, as the dataflows guarantee), then layer 2 first-reads all final
// outputs and runs the Equation 1 verification. midLayer (optional) runs
// after layer 1's first version sweep — the window where replay snapshots
// are naturally taken; mutate (optional) runs before layer 2's reads.
//
// The returned error is nil for honest executions and wraps
// mac.ErrIntegrity when the verification catches the attacker.
func RunSeculator(s Scenario, midLayer, mutate Mutator) error {
	if s.Versions <= 0 {
		return fmt.Errorf("attack: degenerate scenario %+v", s)
	}
	dram, sm, layout, err := scenarioMemory(s)
	if err != nil {
		return err
	}

	// Layer 1: partial-sum write/read/update cycles, in-place per tile.
	sm.BeginLayer(1)
	for vn := 1; vn <= s.Versions; vn++ {
		for tile := 0; tile < s.Tiles; tile++ {
			for block := 0; block < s.BlocksPerTile; block++ {
				addr := layout.Addr(tile, block)
				if vn > 1 {
					sm.ReadPartial(addr, uint32(tile), vn-1, uint32(block))
				}
				sm.WriteBlock(addr, uint32(tile), vn, uint32(block), scenarioPlain(tile, vn, block))
			}
		}
		if vn == 1 && midLayer != nil {
			midLayer(dram, layout)
		}
	}

	if mutate != nil {
		mutate(dram, layout)
	}

	// Layer 2: first-read everything layer 1 finalized, then verify.
	sm.BeginLayer(2)
	for tile := 0; tile < s.Tiles; tile++ {
		for block := 0; block < s.BlocksPerTile; block++ {
			sm.ReadInput(layout.Addr(tile, block), 1, uint32(tile), s.Versions, uint32(block), true)
		}
	}
	return sm.VerifyPreviousLayer(mac.Digest{})
}

// Eavesdrop captures what a bus snooper learns from layer 1's ciphertext:
// it runs an honest execution and returns, for every stored block, whether
// the ciphertext leaks the plaintext (equality) and the byte-value
// histogram of all ciphertext, for entropy analysis.
func Eavesdrop(s Scenario) (leaks int, histogram [256]int, err error) {
	dram, sm, layout, err := scenarioMemory(s)
	if err != nil {
		return 0, histogram, err
	}

	sm.BeginLayer(1)
	for tile := 0; tile < s.Tiles; tile++ {
		for block := 0; block < s.BlocksPerTile; block++ {
			pt := make([]byte, tensor.BlockBytes) // all-zero plaintext: worst case
			sm.WriteBlock(layout.Addr(tile, block), uint32(tile), 1, uint32(block), pt)
		}
	}
	for tile := 0; tile < s.Tiles; tile++ {
		for block := 0; block < s.BlocksPerTile; block++ {
			ct := dram.Peek(layout.Addr(tile, block))
			if ct == nil {
				return 0, histogram, fmt.Errorf("attack: missing ciphertext at tile %d block %d", tile, block)
			}
			zero := true
			for _, b := range ct {
				histogram[b]++
				if b != 0 {
					zero = false
				}
			}
			if zero {
				leaks++
			}
		}
	}
	return leaks, histogram, nil
}
