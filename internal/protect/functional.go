package protect

import (
	"fmt"

	"seculator/internal/crypto"
	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/tensor"
)

// SeculatorMemory is the functional counterpart of the Seculator timing
// engine: it really encrypts blocks with the paper's AES-CTR counter layout
// (Section 6.3), really folds per-block SHA-256 MACs into the XOR-MAC
// registers (Section 6.4), and really runs the Equation 1 layer check —
// against a DRAM whose contents an attacker can mutate at will. It backs
// the attack-detection test suite and the attackdemo example.
type SeculatorMemory struct {
	dram    *mem.DRAM
	engine  *crypto.CTREngine
	checker mac.LayerChecker

	secret  uint64
	random  uint64
	layer   uint32
	started bool

	// counts is what the merged shards moved, hashing who hashed their MACs
	// and ks their pads (Merge); the serial API below records straight into
	// the DRAM's traffic counters and leaves all three alone.
	counts  BlockCounts
	hashing Hashing
	ks      Keystreams
	// weights is the current layer's fold of merged first-read weight MACs.
	weights mac.Digest
	keys    []keystream // the shards' keystream memo, one entry per line (shard.go)

	// ct is the reusable ciphertext staging buffer: DRAM copies payloads
	// on write and into the caller's dst on read, so the block only lives
	// here transiently. One buffer per memory keeps the per-block path
	// allocation-free; like its crypto engine, a SeculatorMemory is
	// single-goroutine by contract.
	ct [tensor.BlockBytes]byte
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
// then builds a fresh one. The ciphertext staging and every keystream memo
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
	clear(m.ct[:])
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
// scratch. Merge the shards first, so no fold of the failed attempt is still
// owed.
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

// WriteBlock encrypts plaintext under the current layer's identity and the
// given (fmap, vn, index) position, stores it to DRAM, and folds its MAC
// into MAC_W.
func (m *SeculatorMemory) WriteBlock(addr uint64, fmapID uint32, vn int, blockIdx uint32, plaintext []byte) {
	m.mustStart()
	m.engine.EncryptBlock(m.ct[:], plaintext, m.counter(m.layer, fmapID, vn, blockIdx))
	m.dram.WriteBlock(addr, m.ct[:], 0)
	m.checker.OnWrite(mac.BlockMAC(m.ref(m.layer, fmapID, vn, blockIdx), plaintext))
}

// ReadPartial fetches and decrypts a partial ofmap block written earlier in
// this layer, folding its MAC into MAC_R.
func (m *SeculatorMemory) ReadPartial(addr uint64, fmapID uint32, vn int, blockIdx uint32) []byte {
	m.mustStart()
	pt := m.fetch(addr, m.layer, fmapID, vn, blockIdx)
	m.checker.OnPartialRead(mac.BlockMAC(m.ref(m.layer, fmapID, vn, blockIdx), pt))
	return pt
}

// ReadInput fetches and decrypts an ifmap block produced by prevLayer at
// version vn. first marks the block's first touch this layer (MAC_FR);
// repeats fold into MAC_IR only.
func (m *SeculatorMemory) ReadInput(addr uint64, prevLayer, fmapID uint32, vn int, blockIdx uint32, first bool) []byte {
	m.mustStart()
	pt := m.fetch(addr, prevLayer, fmapID, vn, blockIdx)
	d := mac.BlockMAC(m.ref(prevLayer, fmapID, vn, blockIdx), pt)
	if first {
		m.checker.OnFirstRead(d)
	} else {
		m.checker.OnRepeatRead(d)
	}
	return pt
}

// ReadStatic fetches and decrypts a block without touching the layer MAC
// registers — the path for read-only data (weights) whose integrity is
// checked against a host-provided golden XOR-MAC by the caller. The block's
// MAC is returned alongside the plaintext for that fold.
func (m *SeculatorMemory) ReadStatic(addr uint64, ownerLayer, fmapID uint32, vn int, blockIdx uint32) ([]byte, mac.Digest) {
	pt := m.fetch(addr, ownerLayer, fmapID, vn, blockIdx)
	return pt, mac.BlockMAC(m.ref(ownerLayer, fmapID, vn, blockIdx), pt)
}

// HostWriteBlock encrypts and stores a block on behalf of the host (model
// load: weights, layer-0 inputs) under an arbitrary owner layer ID, without
// touching the NPU's MAC registers. It returns the block's MAC so the host
// can accumulate golden digests.
func (m *SeculatorMemory) HostWriteBlock(addr uint64, ownerLayer, fmapID uint32, vn int, blockIdx uint32, plaintext []byte) mac.Digest {
	m.engine.EncryptBlock(m.ct[:], plaintext, m.counter(ownerLayer, fmapID, vn, blockIdx))
	m.dram.WriteBlock(addr, m.ct[:], 0)
	return mac.BlockMAC(m.ref(ownerLayer, fmapID, vn, blockIdx), plaintext)
}

// BlockDigest computes the MAC of a plaintext block at a position — the
// host-side helper for golden digests and external (host-consumed) folds.
func (m *SeculatorMemory) BlockDigest(ownerLayer, fmapID uint32, vn int, blockIdx uint32, plaintext []byte) mac.Digest {
	return mac.BlockMAC(m.ref(ownerLayer, fmapID, vn, blockIdx), plaintext)
}

func (m *SeculatorMemory) fetch(addr uint64, layer, fmapID uint32, vn int, blockIdx uint32) []byte {
	m.dram.ReadBlock(addr, m.ct[:], 0)
	// The plaintext is returned to the caller and must survive the next
	// fetch: it is the one allocation left on this path.
	pt := make([]byte, tensor.BlockBytes)
	m.engine.DecryptBlock(pt, m.ct[:], m.counter(layer, fmapID, vn, blockIdx))
	return pt
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
// commutative XOR fold makes every field bit-identical whoever hashed the
// block MACs (a shard inline, or a borrowed helper); the conformance harness
// asserts exactly that.
type RegisterState struct {
	W, R, FR, IR                     mac.Digest
	WFolds, RFolds, FRFolds, IRFolds uint64
}

// RegisterSnapshot captures the current bank's four XOR-MAC registers with
// their fold counts (Registers returns the values alone).
func (m *SeculatorMemory) RegisterSnapshot() RegisterState {
	b := m.checker.Current()
	return RegisterState{
		W: b.W.Value(), R: b.R.Value(), FR: b.FR.Value(), IR: b.IR.Value(),
		WFolds: b.W.Folds(), RFolds: b.R.Folds(), FRFolds: b.FR.Folds(), IRFolds: b.IR.Folds(),
	}
}

// GoldenInputMAC computes the XOR-MAC a host would supply for data it wrote
// itself: the fold of the block MACs of `blocks` plaintext blocks written
// under (layer, fmapID) with the given vn, at consecutive block indices.
func (m *SeculatorMemory) GoldenInputMAC(layer, fmapID uint32, vn int, blocks [][]byte) mac.Digest {
	var g mac.Digest
	for i, b := range blocks {
		g = g.Xor(mac.BlockMAC(m.ref(layer, fmapID, vn, uint32(i)), b))
	}
	return g
}

func (m *SeculatorMemory) mustStart() {
	if !m.started {
		panic(fmt.Sprintf("protect: SeculatorMemory used before BeginLayer (layer %d)", m.layer))
	}
}
