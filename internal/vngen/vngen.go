// Package vngen implements Seculator's hardware version-number generator
// (Section 6.2): a small FSM that, configured with the master-equation
// triplet ⟨η, κ, ρ⟩ for a layer, regenerates every version number the layer
// will use at runtime — eliminating the VN tables, counter caches and
// host-side VN schedulers of prior work.
//
// The package also provides the first-read detector circuit (Section 6.4):
// a pure combinational predicate over the current loop indices that flags
// when an input tile is touched for the first time, so its block MACs can
// be folded into the MAC_FR register.
package vngen

import (
	"fmt"

	"seculator/internal/dataflow"
	"seculator/internal/pattern"
)

// Generator is the streaming VN FSM. Its entire architectural state is
// three configuration registers (η, κ, ρ) and three small counters — the
// hardware cost reported in Table 6 (40 µm², 4.4 µW).
type Generator struct {
	eta, kappa, rho int // configuration registers

	run int // position within the current value's run   [0, η)
	val int // current value                              [1, κ]
	rep int // completed ramp repetitions                 [0, ρ)

	emitted int
}

// New returns a generator for the given triplet. An empty triplet yields a
// generator that is immediately exhausted.
func New(t pattern.Triplet) *Generator {
	g := new(Generator)
	g.configure(t)
	return g
}

// configure loads the configuration registers and rewinds the FSM.
func (g *Generator) configure(t pattern.Triplet) {
	if !t.Valid() {
		panic(fmt.Sprintf("vngen: invalid triplet %+v", t))
	}
	*g = Generator{eta: t.Eta, kappa: t.Kappa, rho: t.Rho, val: 1}
}

// Next emits the next VN of the sequence. ok is false once η·κ·ρ values
// have been produced.
func (g *Generator) Next() (vn int, ok bool) {
	if g.Exhausted() {
		return 0, false
	}
	vn = g.val
	g.emitted++
	g.run++
	if g.run == g.eta {
		g.run = 0
		g.val++
		if g.val > g.kappa {
			g.val = 1
			g.rep++
		}
	}
	return vn, true
}

// Peek returns the VN Next would emit, without advancing.
func (g *Generator) Peek() (vn int, ok bool) {
	if g.Exhausted() {
		return 0, false
	}
	return g.val, true
}

// Exhausted reports whether the full sequence has been emitted.
func (g *Generator) Exhausted() bool {
	if g.eta == 0 || g.kappa == 0 || g.rho == 0 {
		return true
	}
	return g.rep >= g.rho
}

// Emitted returns how many VNs have been produced so far.
func (g *Generator) Emitted() int { return g.emitted }

// Remaining returns how many VNs are left.
func (g *Generator) Remaining() int { return g.eta*g.kappa*g.rho - g.emitted }

// Reset rewinds the FSM to the start of the sequence.
func (g *Generator) Reset() { *g = Generator{eta: g.eta, kappa: g.kappa, rho: g.rho, val: 1} }

// StateBits returns the architectural state of the FSM in bits, assuming
// 32-bit configuration and counter registers. Used by the hardware model.
func (g *Generator) StateBits() int { return 6 * 32 }

// FirstIfmapRead is the first-read detector for ifmap tiles: among the tile
// loops (S, C, K) only K does not participate in an ifmap tile's identity
// (c, s), so a read is the tile's first exactly when the K index is zero.
func FirstIfmapRead(idx dataflow.LoopIdx) bool { return idx.K == 0 }

// FirstWeightRead is the first-read detector for weight groups (k, c):
// the non-binding loop is S.
func FirstWeightRead(idx dataflow.LoopIdx) bool { return idx.S == 0 }

// LayerUnit bundles the per-layer VN machinery Seculator configures when
// the host issues a "run layer" command: a write-VN generator, a read-VN
// generator (for partial-sum read-backs), and the cross-layer constants for
// read-only data. Configure reloads it in place, so it can live by value.
type LayerUnit struct {
	LayerID uint32

	write Generator
	read  Generator

	ifmapVN int // VN of all ifmap data: final VN of the producing layer
}

// NewLayerUnit derives the layer's triplets from its mapping and the final
// VN of the previous layer's write pattern.
func NewLayerUnit(layerID uint32, m *dataflow.Mapping, prevWrite pattern.Triplet) *LayerUnit {
	u := new(LayerUnit)
	u.Configure(layerID, dataflow.DeriveWrite(m), dataflow.DeriveRead(m), prevWrite)
	return u
}

// Configure loads the unit for one layer from its write and partial-sum
// read triplets and the previous layer's write triplet.
func (u *LayerUnit) Configure(layerID uint32, write, read, prevWrite pattern.Triplet) {
	u.LayerID = layerID
	u.write.configure(write)
	u.read.configure(read)
	u.ifmapVN = FinalVN(prevWrite)
}

// Reset rewinds both generators: a re-executed layer regenerates its VNs.
func (u *LayerUnit) Reset() {
	u.write.Reset()
	u.read.Reset()
}

// WriteVN produces the VN for the next ofmap tile write-back.
func (u *LayerUnit) WriteVN() (int, bool) { return u.write.Next() }

// ReadVN produces the VN for the next partial-sum read-back.
func (u *LayerUnit) ReadVN() (int, bool) { return u.read.Next() }

// IfmapVN is the (constant) VN used to decrypt all ifmap reads this layer.
func (u *LayerUnit) IfmapVN() int { return u.ifmapVN }

// WeightVN is the VN of weight reads: 1 (written once by the host).
func (u *LayerUnit) WeightVN() int { return 1 }

// Done reports whether both generators have emitted their full sequences —
// the layer-completion condition the security module checks before running
// the layer MAC verification.
func (u *LayerUnit) Done() bool { return u.write.Exhausted() && u.read.Exhausted() }

// FinalVN returns the VN carried by the final write of every ofmap tile
// under the given write triplet — κ for partial-sum dataflows (every tile's
// last write tops the ramp), 1 for output-stationary ones. This is the VN
// the next layer uses for all its ifmap reads. For an empty triplet (first
// layer: inputs written by the host) it is 1.
func FinalVN(write pattern.Triplet) int {
	if write.IsEmpty() || write.Kappa < 1 {
		return 1
	}
	return write.Kappa
}
