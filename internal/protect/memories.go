package protect

import (
	"fmt"

	"seculator/internal/counter"
	"seculator/internal/crypto"
	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/merkle"
	"seculator/internal/tensor"
)

// FunctionalMemory abstracts the functional data path of a design so the
// attack suite can mount the same attacks against every scheme of Table 5.
// Per-block designs (Secure, TNPU, GuardNN) detect violations at the
// offending Read; Seculator defers detection to the layer check in
// EndLayer; Baseline never detects anything.
type FunctionalMemory interface {
	// DesignName identifies the scheme for reporting.
	DesignName() Design
	// BeginLayer starts a new layer epoch.
	BeginLayer(layer uint32)
	// WriteBlock stores a plaintext block at addr under position (fmap,
	// idx) with the layer-assigned version vn.
	WriteBlock(addr uint64, fmap uint32, vn int, idx uint32, plaintext []byte)
	// Read fetches the block written by ownerLayer at version vn. first
	// marks the block's first touch this layer (Seculator's MAC_FR path).
	// Per-block designs return an integrity error immediately. The block
	// may alias the memory's scratch: it is valid until the next call.
	Read(addr uint64, ownerLayer, fmap uint32, vn int, idx uint32, first bool) ([]byte, error)
	// EndLayer closes the epoch: Seculator verifies the previous layer.
	EndLayer() error
}

// MACStore is the off-chip store of per-block MACs used by the Secure,
// TNPU and GuardNN designs. Like data DRAM, it is attacker-accessible:
// Snapshot/Restore/TamperMAC model coherent data+MAC attacks.
type MACStore struct {
	macs map[uint64]mac.Digest
}

// NewMACStore returns an empty store.
func NewMACStore() *MACStore { return &MACStore{macs: make(map[uint64]mac.Digest)} }

// Put stores the MAC of the block at addr.
func (s *MACStore) Put(addr uint64, d mac.Digest) { s.macs[addr] = d }

// Get returns the stored MAC.
func (s *MACStore) Get(addr uint64) (mac.Digest, bool) {
	d, ok := s.macs[addr]
	return d, ok
}

// Snapshot captures the current MAC (attacker primitive).
func (s *MACStore) Snapshot(addr uint64) (mac.Digest, bool) { return s.Get(addr) }

// Restore overwrites the MAC with a captured value (attacker primitive).
func (s *MACStore) Restore(addr uint64, d mac.Digest) { s.macs[addr] = d }

// TamperMAC flips a bit of the stored MAC (attacker primitive).
func (s *MACStore) TamperMAC(addr uint64, m byte) bool {
	d, ok := s.macs[addr]
	if !ok {
		return false
	}
	d[0] ^= m
	s.macs[addr] = d
	return true
}

// Swap exchanges two MAC entries (attacker splice primitive).
func (s *MACStore) Swap(a, b uint64) bool {
	da, oka := s.macs[a]
	db, okb := s.macs[b]
	if !oka || !okb {
		return false
	}
	s.macs[a], s.macs[b] = db, da
	return true
}

// ErrBlockIntegrity wraps mac.ErrIntegrity for per-block violations.
var ErrBlockIntegrity = mac.ErrIntegrity

// ---------------------------------------------------------------- baseline

// BaselineMemory stores plaintext with no protection: every attack
// succeeds silently.
type BaselineMemory struct {
	dram *mem.DRAM
}

// NewBaselineMemory wraps a DRAM with no protection.
func NewBaselineMemory(d *mem.DRAM) *BaselineMemory { return &BaselineMemory{dram: d} }

// DesignName implements FunctionalMemory.
func (m *BaselineMemory) DesignName() Design { return Baseline }

// BeginLayer implements FunctionalMemory.
func (m *BaselineMemory) BeginLayer(uint32) {}

// WriteBlock implements FunctionalMemory.
func (m *BaselineMemory) WriteBlock(addr uint64, _ uint32, _ int, _ uint32, pt []byte) {
	m.dram.WriteBlock(addr, pt, 0)
}

// Read implements FunctionalMemory: returns whatever DRAM holds, unchecked.
func (m *BaselineMemory) Read(addr uint64, _, _ uint32, _ int, _ uint32, _ bool) ([]byte, error) {
	out := make([]byte, tensor.BlockBytes)
	m.dram.ReadBlock(addr, out, 0)
	return out, nil
}

// EndLayer implements FunctionalMemory.
func (m *BaselineMemory) EndLayer() error { return nil }

// ------------------------------------------------------------------ secure

// SGXMemory is the functional Secure design: AES-CTR under SGX-style
// major/minor counters, a Merkle tree anchoring the counters on-chip, and
// per-block MACs in an (attacker-accessible) MAC store. Reads verify the
// counter path and the block MAC immediately.
type SGXMemory struct {
	dram     *mem.DRAM
	engine   *crypto.CTREngine
	counters *counter.Store
	tree     *merkle.Tree
	macs     *MACStore
	secret   uint64
	layer    uint32

	// deferred holds a Merkle-update failure from WriteBlock, surfaced at the
	// next Read or EndLayer (FunctionalMemory.WriteBlock has no error return).
	deferred error

	ct [tensor.BlockBytes]byte // reusable ciphertext staging (single-goroutine)
}

// NewSGXMemory builds the Secure functional memory covering `pages` 4 KB
// pages of protected address space.
func NewSGXMemory(d *mem.DRAM, secret, random uint64, pages int) (*SGXMemory, error) {
	cs := counter.NewStore()
	tree, err := merkle.New(pages, cs)
	if err != nil {
		return nil, err
	}
	return &SGXMemory{
		dram:     d,
		engine:   crypto.NewCTR(secret, random),
		counters: cs,
		tree:     tree,
		macs:     NewMACStore(),
		secret:   secret,
	}, nil
}

// MACs exposes the off-chip MAC store to attack tests.
func (m *SGXMemory) MACs() *MACStore { return m.macs }

// Counters exposes the counter store (tamper target; Merkle-protected).
func (m *SGXMemory) Counters() *counter.Store { return m.counters }

// DesignName implements FunctionalMemory.
func (m *SGXMemory) DesignName() Design { return Secure }

// BeginLayer implements FunctionalMemory.
func (m *SGXMemory) BeginLayer(l uint32) { m.layer = l }

func (m *SGXMemory) ctrOf(addr uint64, v counter.Value) crypto.Counter {
	// SGX derives the pad from the address and the combined counter.
	return crypto.Counter{
		Fmap:  uint32(addr >> 32),
		Layer: uint32(addr),
		VN:    uint32(v.Major<<8) | uint32(v.Minor),
		Block: 0,
	}
}

func (m *SGXMemory) macOf(addr uint64, v counter.Value, data []byte) mac.Digest {
	return mac.BlockMAC(mac.BlockRef{
		Secret: m.secret,
		Layer:  uint32(addr >> 32),
		Fmap:   uint32(addr),
		VN:     uint32(v.Major<<8) | uint32(v.Minor),
		Index:  0,
	}, data)
}

// WriteBlock implements FunctionalMemory: bump the block counter, re-encrypt,
// update the Merkle path and the block MAC.
func (m *SGXMemory) WriteBlock(addr uint64, _ uint32, _ int, _ uint32, pt []byte) {
	v, _ := m.counters.Increment(addr)
	if err := m.tree.Update(counter.PageOf(addr)); err != nil {
		if m.deferred == nil {
			m.deferred = fmt.Errorf("protect: merkle update: %w", err)
		}
		return
	}
	m.engine.EncryptBlock(m.ct[:], pt, m.ctrOf(addr, v))
	m.dram.WriteBlock(addr, m.ct[:], 0)
	m.macs.Put(addr, m.macOf(addr, v, pt))
}

// Read implements FunctionalMemory: verify the counter's Merkle path,
// decrypt under the current counter, verify the block MAC.
func (m *SGXMemory) Read(addr uint64, _, _ uint32, _ int, _ uint32, _ bool) ([]byte, error) {
	if m.deferred != nil {
		return nil, m.deferred
	}
	if err := m.tree.Verify(counter.PageOf(addr)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBlockIntegrity, err)
	}
	v := m.counters.Value(addr)
	m.dram.ReadBlock(addr, m.ct[:], 0)
	pt := make([]byte, tensor.BlockBytes)
	m.engine.DecryptBlock(pt, m.ct[:], m.ctrOf(addr, v))
	want, ok := m.macs.Get(addr)
	if !ok || m.macOf(addr, v, pt) != want {
		return nil, fmt.Errorf("%w: Secure: block %#x MAC mismatch", ErrBlockIntegrity, addr)
	}
	return pt, nil
}

// EndLayer implements FunctionalMemory: surfaces any deferred WriteBlock error.
func (m *SGXMemory) EndLayer() error { return m.deferred }

// -------------------------------------------------------------------- tnpu

// TNPUMemory is the functional TNPU design: AES-XTS keyed by address (no
// counters), tile version numbers in an on-chip/host tensor table (not
// attacker-accessible), and per-block MACs binding the VN, stored off-chip.
type TNPUMemory struct {
	dram   *mem.DRAM
	engine *crypto.XTSEngine
	table  map[uint32]int // tensor table: fmap/tile -> current VN
	macs   *MACStore
	secret uint64

	ct [tensor.BlockBytes]byte // reusable ciphertext staging (single-goroutine)
}

// NewTNPUMemory builds the TNPU functional memory.
func NewTNPUMemory(d *mem.DRAM, key1, key2 uint64) *TNPUMemory {
	return &TNPUMemory{
		dram:   d,
		engine: crypto.NewXTS(key1, key2),
		table:  make(map[uint32]int),
		macs:   NewMACStore(),
		secret: key1 ^ key2,
	}
}

// MACs exposes the off-chip MAC store to attack tests.
func (m *TNPUMemory) MACs() *MACStore { return m.macs }

// DesignName implements FunctionalMemory.
func (m *TNPUMemory) DesignName() Design { return TNPU }

// BeginLayer implements FunctionalMemory.
func (m *TNPUMemory) BeginLayer(uint32) {}

func (m *TNPUMemory) macOf(addr uint64, fmap uint32, vn int, idx uint32, data []byte) mac.Digest {
	return mac.BlockMAC(mac.BlockRef{
		Secret: m.secret, Layer: uint32(addr), Fmap: fmap, VN: uint32(vn), Index: idx,
	}, data)
}

// WriteBlock implements FunctionalMemory: encrypt by position, record the tile
// VN in the tensor table, store a VN-binding MAC.
func (m *TNPUMemory) WriteBlock(addr uint64, fmap uint32, vn int, idx uint32, pt []byte) {
	m.table[fmap] = vn
	m.engine.EncryptBlock(m.ct[:], pt, addr)
	m.dram.WriteBlock(addr, m.ct[:], 0)
	m.macs.Put(addr, m.macOf(addr, fmap, vn, idx, pt))
}

// Read implements FunctionalMemory: decrypt by position and verify the MAC
// under the table's current VN — a replayed (data, MAC) pair embeds a stale
// VN and fails.
func (m *TNPUMemory) Read(addr uint64, _, fmap uint32, _ int, idx uint32, _ bool) ([]byte, error) {
	vn, ok := m.table[fmap]
	if !ok {
		return nil, fmt.Errorf("%w: TNPU: no table entry for fmap %d", ErrBlockIntegrity, fmap)
	}
	m.dram.ReadBlock(addr, m.ct[:], 0)
	pt := make([]byte, tensor.BlockBytes)
	m.engine.DecryptBlock(pt, m.ct[:], addr)
	want, ok := m.macs.Get(addr)
	if !ok || m.macOf(addr, fmap, vn, idx, pt) != want {
		return nil, fmt.Errorf("%w: TNPU: block %#x MAC mismatch", ErrBlockIntegrity, addr)
	}
	return pt, nil
}

// EndLayer implements FunctionalMemory.
func (m *TNPUMemory) EndLayer() error { return nil }

// ----------------------------------------------------------------- guardnn

// GuardNNMemory is the functional GuardNN design: AES-CTR with version
// numbers managed by the host scheduler over a secure channel (modeled as a
// non-tamperable map), per-block MACs stored off-chip with no cache.
type GuardNNMemory struct {
	dram      *mem.DRAM
	engine    *crypto.CTREngine
	scheduler map[uint32]int // host scheduler's VN ledger: fmap -> VN
	macs      *MACStore
	secret    uint64

	ct [tensor.BlockBytes]byte // reusable ciphertext staging (single-goroutine)
}

// NewGuardNNMemory builds the GuardNN functional memory.
func NewGuardNNMemory(d *mem.DRAM, secret, random uint64) *GuardNNMemory {
	return &GuardNNMemory{
		dram:      d,
		engine:    crypto.NewCTR(secret, random),
		scheduler: make(map[uint32]int),
		macs:      NewMACStore(),
		secret:    secret,
	}
}

// MACs exposes the off-chip MAC store to attack tests.
func (m *GuardNNMemory) MACs() *MACStore { return m.macs }

// DesignName implements FunctionalMemory.
func (m *GuardNNMemory) DesignName() Design { return GuardNN }

// BeginLayer implements FunctionalMemory.
func (m *GuardNNMemory) BeginLayer(uint32) {}

func (m *GuardNNMemory) ctrOf(addr uint64, fmap uint32, vn int) crypto.Counter {
	return crypto.Counter{Fmap: fmap, Layer: uint32(addr), VN: uint32(vn), Block: uint32(addr >> 32)}
}

func (m *GuardNNMemory) macOf(addr uint64, fmap uint32, vn int, idx uint32, data []byte) mac.Digest {
	return mac.BlockMAC(mac.BlockRef{
		Secret: m.secret, Layer: uint32(addr), Fmap: fmap, VN: uint32(vn), Index: idx,
	}, data)
}

// WriteBlock implements FunctionalMemory: on-chip counters assign the VN, which
// the scheduler mirrors.
func (m *GuardNNMemory) WriteBlock(addr uint64, fmap uint32, vn int, idx uint32, pt []byte) {
	m.scheduler[fmap] = vn
	m.engine.EncryptBlock(m.ct[:], pt, m.ctrOf(addr, fmap, vn))
	m.dram.WriteBlock(addr, m.ct[:], 0)
	m.macs.Put(addr, m.macOf(addr, fmap, vn, idx, pt))
}

// Read implements FunctionalMemory: the VN comes from the host scheduler.
func (m *GuardNNMemory) Read(addr uint64, _, fmap uint32, _ int, idx uint32, _ bool) ([]byte, error) {
	vn, ok := m.scheduler[fmap]
	if !ok {
		return nil, fmt.Errorf("%w: GuardNN: scheduler has no VN for fmap %d", ErrBlockIntegrity, fmap)
	}
	m.dram.ReadBlock(addr, m.ct[:], 0)
	pt := make([]byte, tensor.BlockBytes)
	m.engine.DecryptBlock(pt, m.ct[:], m.ctrOf(addr, fmap, vn))
	want, ok := m.macs.Get(addr)
	if !ok || m.macOf(addr, fmap, vn, idx, pt) != want {
		return nil, fmt.Errorf("%w: GuardNN: block %#x MAC mismatch", ErrBlockIntegrity, addr)
	}
	return pt, nil
}

// EndLayer implements FunctionalMemory.
func (m *GuardNNMemory) EndLayer() error { return nil }

// --------------------------------------------------------------- seculator

var _ FunctionalMemory = (*SeculatorMemory)(nil)

// DesignName implements FunctionalMemory.
func (m *SeculatorMemory) DesignName() Design { return Seculator }

// Read implements FunctionalMemory: an in-layer read is a partial-sum read,
// any other an input read. It never fails itself: detection is deferred to
// EndLayer.
func (m *SeculatorMemory) Read(addr uint64, ownerLayer, fmap uint32, vn int, idx uint32, first bool) ([]byte, error) {
	if ownerLayer == m.layer {
		return m.ReadPartial(addr, fmap, vn, idx), nil
	}
	return m.ReadInput(addr, ownerLayer, fmap, vn, idx, first), nil
}

// EndLayer implements FunctionalMemory: from layer 2 on, it runs the
// deferred Equation 1 check of the previous layer.
func (m *SeculatorMemory) EndLayer() error {
	if m.layer < 2 {
		return nil
	}
	return m.VerifyPreviousLayer(mac.Digest{})
}
