package attack

import (
	"bytes"
	"errors"
	"fmt"

	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/protect"
	"seculator/internal/tensor"
)

// MatrixAttack names one attack of the Table 5 detection matrix.
type MatrixAttack uint8

const (
	// AttackNone is the honest execution (control row).
	AttackNone MatrixAttack = iota
	// AttackTamper flips one ciphertext byte in DRAM.
	AttackTamper
	// AttackReplay restores a stale ciphertext.
	AttackReplay
	// AttackReplayWithMAC restores a stale (ciphertext, MAC) pair — the
	// coherent replay that defeats naive MAC schemes.
	AttackReplayWithMAC
	// AttackSplice swaps two ciphertexts between addresses.
	AttackSplice
	// AttackSpliceWithMAC swaps two (ciphertext, MAC) pairs.
	AttackSpliceWithMAC
)

// String implements fmt.Stringer.
func (a MatrixAttack) String() string {
	switch a {
	case AttackNone:
		return "none"
	case AttackTamper:
		return "tamper"
	case AttackReplay:
		return "replay"
	case AttackReplayWithMAC:
		return "replay+mac"
	case AttackSplice:
		return "splice"
	case AttackSpliceWithMAC:
		return "splice+mac"
	default:
		return fmt.Sprintf("MatrixAttack(%d)", uint8(a))
	}
}

// MatrixAttacks returns every attack row.
func MatrixAttacks() []MatrixAttack {
	return []MatrixAttack{AttackNone, AttackTamper, AttackReplay,
		AttackReplayWithMAC, AttackSplice, AttackSpliceWithMAC}
}

// MatrixResult is the outcome of one (design, attack) cell.
type MatrixResult struct {
	Detected  bool  // an integrity error was raised
	Corrupted bool  // the consumer received wrong data without detection
	Err       error // the raised error, for reporting
}

// scenarioPlain is the deterministic plaintext of block (tile, vn, blk).
func scenarioPlain(tile, vn, blk int) []byte {
	b := make([]byte, tensor.BlockBytes)
	for i := range b {
		b[i] = byte(tile*31 + vn*7 + blk*3 + i)
	}
	return b
}

// RunMatrix drives one functional memory through the canonical two-layer
// execution (layer 1 writes Versions partial versions per tile, layer 2
// consumes the finals) while mounting the given attack, and reports whether
// the design detected it and whether the consumer silently received
// corrupted data. macs may be nil for designs without an off-chip MAC store
// (Baseline, Seculator); dram is the shared data DRAM the attacker mutates.
func RunMatrix(m protect.FunctionalMemory, macs *protect.MACStore, dram *mem.DRAM,
	s Scenario, atk MatrixAttack) (MatrixResult, error) {

	if s.Tiles < 2 || s.Versions < 2 || s.BlocksPerTile < 1 {
		return MatrixResult{}, fmt.Errorf("attack: matrix scenario needs >=2 tiles and versions, got %+v", s)
	}
	layout := Layout{Base: 0, Tiles: s.Tiles, BlocksPerTile: s.BlocksPerTile, FinalVN: s.Versions}
	target := layout.Addr(1, 0)
	spliceA, spliceB := layout.Addr(0, 0), layout.Addr(s.Tiles-1, s.BlocksPerTile-1)

	var staleData []byte
	var staleMAC mac.Digest
	var haveStaleMAC bool

	detect := func(err error) (MatrixResult, bool) {
		if err == nil {
			return MatrixResult{}, false
		}
		if errors.Is(err, mac.ErrIntegrity) {
			return MatrixResult{Detected: true, Err: err}, true
		}
		return MatrixResult{Err: err}, true
	}

	// Layer 1: partial-sum write/read/update cycles. A tile is read back
	// whole and then written back whole — tiles evict atomically, which is
	// what keeps the per-tile version tables of TNPU/GuardNN coherent.
	m.BeginLayer(1)
	for vn := 1; vn <= s.Versions; vn++ {
		for tile := 0; tile < s.Tiles; tile++ {
			if vn > 1 {
				for blk := 0; blk < s.BlocksPerTile; blk++ {
					if _, err := m.Read(layout.Addr(tile, blk), 1, uint32(tile), vn-1, uint32(blk), false); err != nil {
						if r, stop := detect(err); stop {
							return r, nil
						}
					}
				}
			}
			for blk := 0; blk < s.BlocksPerTile; blk++ {
				m.WriteBlock(layout.Addr(tile, blk), uint32(tile), vn, uint32(blk), scenarioPlain(tile, vn, blk))
			}
		}
		if vn == 1 {
			// Replay snapshot point: capture version 1 of the target.
			staleData, _ = dram.Snapshot(target)
			if macs != nil {
				staleMAC, haveStaleMAC = macs.Snapshot(target)
			}
		}
	}

	// Mount the attack.
	switch atk {
	case AttackTamper:
		dram.Tamper(target, 9, 0x20)
	case AttackReplay:
		dram.Restore(target, staleData)
	case AttackReplayWithMAC:
		dram.Restore(target, staleData)
		if haveStaleMAC {
			macs.Restore(target, staleMAC)
		}
	case AttackSplice:
		dram.Swap(spliceA, spliceB)
	case AttackSpliceWithMAC:
		dram.Swap(spliceA, spliceB)
		if macs != nil {
			macs.Swap(spliceA, spliceB)
		}
	}

	// Layer 2: consume the finals.
	m.BeginLayer(2)
	var corrupted bool
	for tile := 0; tile < s.Tiles; tile++ {
		for blk := 0; blk < s.BlocksPerTile; blk++ {
			pt, err := m.Read(layout.Addr(tile, blk), 1, uint32(tile), s.Versions, uint32(blk), true)
			if err != nil {
				if r, stop := detect(err); stop {
					return r, nil
				}
			}
			if !bytes.Equal(pt, scenarioPlain(tile, s.Versions, blk)) {
				corrupted = true
			}
		}
	}
	if err := m.EndLayer(); err != nil {
		if r, stop := detect(err); stop {
			return r, nil
		}
	}
	return MatrixResult{Corrupted: corrupted}, nil
}
