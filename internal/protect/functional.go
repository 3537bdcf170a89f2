package protect

import (
	"fmt"

	"seculator/internal/crypto"
	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/sim"
	"seculator/internal/tensor"
)

// SeculatorMemory is the functional counterpart of the Seculator timing
// engine: it really encrypts blocks with the paper's AES-CTR counter layout
// (Section 6.3), really folds per-block SHA-256 MACs into the XOR-MAC
// registers (Section 6.4), and really runs the Equation 1 layer check —
// against a DRAM whose contents an attacker can mutate at will. Every block
// goes through a SeculatorShard (shard.go): the memory's own (Own), which
// the executor's layer loop and the serial API below — the one the attack
// and fault harnesses call — share, or the executor's weight loader's.
type SeculatorMemory struct {
	dram    *mem.DRAM
	engine  *crypto.CTREngine
	checker mac.LayerChecker

	secret  uint64
	random  uint64
	layer   uint32
	started bool

	// counts is what the shards moved and ks their pads: the own shard's
	// (serial calls included) as it moves them, another's at Merge; hashing
	// is how many MACs the shards hashed as they folded them.
	counts  BlockCounts
	hashing Hashing
	ks      Keystreams
	// weights is the current layer's fold of first-read weight MACs.
	weights mac.Digest
	keys    []keystream // the shards' keystream memo, one entry per line (shard.go)

	// own is the memory's own shard (Own), built on first use. Like the
	// shard, the serial API is single-goroutine.
	own *SeculatorShard
}

// NewSeculatorMemory builds the functional secure memory. secret is the
// accelerator's embedded ID; bootRandom the per-execution random number.
func NewSeculatorMemory(d *mem.DRAM, secret, bootRandom uint64) *SeculatorMemory {
	return &SeculatorMemory{
		dram:   d,
		engine: crypto.NewCTR(secret, bootRandom),
		secret: secret,
		random: bootRandom,
	}
}

// Recycle returns the memory to its post-New state for reuse under the
// same crypto identity, keeping the expensive part — the AES key schedule —
// alive. It reports false (and changes nothing) when the requested
// (secret, bootRandom) differ from the ones the engine was keyed with:
// a pooled memory must never be rebound to a different key, so the caller
// then builds a fresh one. The own shard, if any, and every keystream memo
// entry are scrubbed; the caller owns scrubbing the DRAM it passed in.
func (m *SeculatorMemory) Recycle(d *mem.DRAM, secret, bootRandom uint64) bool {
	if secret != m.secret || bootRandom != m.random {
		return false
	}
	m.dram = d
	m.checker = mac.LayerChecker{}
	m.layer = 0
	m.started = false
	m.counts, m.hashing, m.ks, m.weights = BlockCounts{}, Hashing{}, Keystreams{}, mac.Digest{}
	if m.own != nil {
		m.own.Recycle()
	}
	clear(m.keys)
	return true
}

// BeginLayer starts accumulating MAC state for the given layer.
func (m *SeculatorMemory) BeginLayer(layerID uint32) {
	m.layer = layerID
	m.started = true
	m.weights = mac.Digest{}
	m.checker.Begin(layerID)
}

// RestartLayer discards the current layer's accumulated MAC folds while
// keeping the previous layer's pending bank — the first step of a
// layer-level recovery: the executor re-fetches the working set and
// re-executes the layer, re-accumulating FR/R/W (and the weight digest) from
// scratch.
func (m *SeculatorMemory) RestartLayer() {
	m.mustStart()
	m.weights = mac.Digest{}
	m.checker.Restart()
}

// TamperMACRegister XORs mask into the named register ("W", "R", "FR",
// "IR") of the current layer's bank — the fault-injection hook for on-chip
// MAC-register upsets. The corruption is caught by the next Equation 1
// check exactly like off-chip tampering.
func (m *SeculatorMemory) TamperMACRegister(register string, mask byte) {
	m.mustStart()
	m.checker.Tamper(register, mask)
}

func (m *SeculatorMemory) counter(layer, fmapID uint32, vn int, blockIdx uint32) crypto.Counter {
	return crypto.Counter{Fmap: fmapID, Layer: layer, VN: uint32(vn), Block: blockIdx}
}

func (m *SeculatorMemory) ref(layer, fmapID uint32, vn int, blockIdx uint32) mac.BlockRef {
	return mac.BlockRef{Secret: m.secret, Layer: layer, Fmap: fmapID, VN: uint32(vn), Index: blockIdx}
}

// refAt is the MAC position of the block a counter encrypts.
func (m *SeculatorMemory) refAt(c crypto.Counter) mac.BlockRef {
	return m.ref(c.Layer, c.Fmap, int(c.VN), c.Block)
}

// serial returns the memory's own shard for a serial call.
func (m *SeculatorMemory) serial() *SeculatorShard {
	m.mustStart()
	return m.Own()
}

// WriteBlock encrypts one 64-byte plaintext block under the current layer's
// identity and the given (fmap, vn, index) position, stores it to DRAM, and
// folds its MAC into MAC_W. It is a tile write's one-block sequence (put)
// with a byte filler: the block is copied into the MAC lane that hashes it,
// and the ciphertext formed from the lane.
func (m *SeculatorMemory) WriteBlock(addr uint64, fmapID uint32, vn int, blockIdx uint32, plaintext []byte) {
	if len(plaintext) != tensor.BlockBytes {
		panic(fmt.Sprintf("protect: WriteBlock takes one %d-byte block, got %d bytes", tensor.BlockBytes, len(plaintext)))
	}
	s := m.serial()
	ctr := m.counter(m.layer, fmapID, vn, blockIdx)
	s.put(&tileCall{}, addr, ctr, nil, plaintext, nil)
	s.settle(nil)
	s.n.OfmapWrites++
	s.record(sim.Write, 1)
}

// ReadPartial fetches and decrypts a partial ofmap block written earlier in
// this layer, folding its MAC into MAC_R. The returned slice is the own
// shard's scratch, valid until the memory's next call.
func (m *SeculatorMemory) ReadPartial(addr uint64, fmapID uint32, vn int, blockIdx uint32) []byte {
	s := m.serial()
	s.readPartial(addr, fmapID, vn, blockIdx, nil, s.pt[:])
	return s.pt[:]
}

// ReadInput fetches and decrypts an ifmap block produced by prevLayer at
// version vn. first marks the block's first touch this layer (MAC_FR);
// repeats fold into MAC_IR only. The slice is valid as ReadPartial's.
func (m *SeculatorMemory) ReadInput(addr uint64, prevLayer, fmapID uint32, vn int, blockIdx uint32, first bool) []byte {
	s := m.serial()
	s.readInput(addr, prevLayer, fmapID, vn, blockIdx, first, 1, nil, s.pt[:])
	return s.pt[:]
}

// BlockDigest computes the MAC of a plaintext block at a position — the
// host-side helper for golden digests and external (host-consumed) folds.
// It is pure: no register, count or DRAM line changes.
func (m *SeculatorMemory) BlockDigest(ownerLayer, fmapID uint32, vn int, blockIdx uint32, plaintext []byte) mac.Digest {
	return mac.BlockMAC(m.ref(ownerLayer, fmapID, vn, blockIdx), plaintext)
}

// VerifyPreviousLayer runs the Equation 1 check for the layer before the
// current one: MAC_W(prev) == MAC_R(prev) xor MAC_FR(current) xor external,
// where external covers final outputs consumed outside the NPU.
func (m *SeculatorMemory) VerifyPreviousLayer(external mac.Digest) error {
	m.mustStart()
	return m.checker.VerifyPrevious(external)
}

// VerifyInputsGolden checks the current layer's first reads against a
// host-provided XOR-MAC (layer-0 inputs, weights).
func (m *SeculatorMemory) VerifyInputsGolden(golden mac.Digest) error {
	m.mustStart()
	return m.checker.VerifyFirstLayerInputs(golden)
}

// VerifyRereads checks the MAC_IR invariant given the deterministic number
// of full input sweeps of the current layer's mapping.
func (m *SeculatorMemory) VerifyRereads(sweeps int) error {
	m.mustStart()
	return m.checker.VerifyRereads(sweeps)
}

// FinalOutputMAC returns the XOR-MAC the host needs to verify the current
// layer's outputs when it consumes them directly.
func (m *SeculatorMemory) FinalOutputMAC() mac.Digest { return m.checker.FinalW() }

// RegisterState is a read-only snapshot of the four XOR-MAC registers of the
// bank accumulating the current layer, with their fold counts — the
// observable architectural state of the MAC unit at a layer boundary. The
// commutative XOR fold makes every field bit-identical in whatever order
// the block MACs fold; the conformance harness asserts exactly that.
type RegisterState struct {
	W, R, FR, IR                     mac.Digest
	WFolds, RFolds, FRFolds, IRFolds uint64
}

// RegisterSnapshot captures the current bank's four XOR-MAC registers with
// their fold counts.
func (m *SeculatorMemory) RegisterSnapshot() RegisterState {
	b := m.checker.Current()
	return RegisterState{
		W: b.W.Value(), R: b.R.Value(), FR: b.FR.Value(), IR: b.IR.Value(),
		WFolds: b.W.Folds(), RFolds: b.R.Folds(), FRFolds: b.FR.Folds(), IRFolds: b.IR.Folds(),
	}
}

func (m *SeculatorMemory) mustStart() {
	if !m.started {
		panic(fmt.Sprintf("protect: SeculatorMemory used before BeginLayer (layer %d)", m.layer))
	}
}
