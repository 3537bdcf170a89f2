package protect

import (
	"seculator/internal/crypto"
	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/sim"
	"seculator/internal/tensor"
)

// refMemory is the per-block reference the shard paths are held to: one
// CTREngine.EncryptBlock or DecryptBlock and one mac.BlockMAC per block,
// folded straight into a mac.LayerChecker, with DRAM traffic recorded per
// transfer. It shares nothing with SeculatorShard but those primitives — no
// row batching, keystream memo, hasher, owed-MAC routing or Merge — so a bug
// in any of them cannot sit on both sides of a comparison.
type refMemory struct {
	d       *mem.DRAM
	engine  *crypto.CTREngine
	checker mac.LayerChecker
	secret  uint64
	layer   uint32
}

func newRefMemory(d *mem.DRAM, secret, bootRandom uint64) *refMemory {
	return &refMemory{d: d, engine: crypto.NewCTR(secret, bootRandom), secret: secret}
}

func (r *refMemory) BeginLayer(layer uint32) {
	r.layer = layer
	r.checker.Begin(layer)
}

// at is a block position's CTR counter and MAC reference.
func (r *refMemory) at(layer, fmapID uint32, vn int, blockIdx uint32) (crypto.Counter, mac.BlockRef) {
	return crypto.Counter{Fmap: fmapID, Layer: layer, VN: uint32(vn), Block: blockIdx},
		mac.BlockRef{Secret: r.secret, Layer: layer, Fmap: fmapID, VN: uint32(vn), Index: blockIdx}
}

func (r *refMemory) WriteBlock(addr uint64, fmapID uint32, vn int, blockIdx uint32, plaintext []byte) {
	ctr, ref := r.at(r.layer, fmapID, vn, blockIdx)
	ct := make([]byte, tensor.BlockBytes)
	r.engine.EncryptBlock(ct, plaintext, ctr)
	r.d.WriteBlock(addr, ct, sim.DataTraffic)
	r.checker.OnWrite(mac.BlockMAC(ref, plaintext))
}

// hostStore encrypts and stores one weight block for the host: nothing
// folds, since the weight check is the caller's model.
func (r *refMemory) hostStore(addr uint64, layer, fmapID uint32, vn int, blockIdx uint32, plaintext []byte) {
	ctr, _ := r.at(layer, fmapID, vn, blockIdx)
	ct := make([]byte, tensor.BlockBytes)
	r.engine.EncryptBlock(ct, plaintext, ctr)
	r.d.WriteBlock(addr, ct, sim.DataTraffic)
}

// read fetches and decrypts one block and returns it with its MAC.
func (r *refMemory) read(addr uint64, layer, fmapID uint32, vn int, blockIdx uint32) ([]byte, mac.Digest) {
	ctr, ref := r.at(layer, fmapID, vn, blockIdx)
	ct, pt := make([]byte, tensor.BlockBytes), make([]byte, tensor.BlockBytes)
	r.d.ReadBlock(addr, ct, sim.DataTraffic)
	r.engine.DecryptBlock(pt, ct, ctr)
	return pt, mac.BlockMAC(ref, pt)
}

func (r *refMemory) ReadPartial(addr uint64, fmapID uint32, vn int, blockIdx uint32) []byte {
	pt, d := r.read(addr, r.layer, fmapID, vn, blockIdx)
	r.checker.OnPartialRead(d)
	return pt
}

func (r *refMemory) ReadInput(addr uint64, prevLayer, fmapID uint32, vn int, blockIdx uint32, first bool) []byte {
	pt, d := r.read(addr, prevLayer, fmapID, vn, blockIdx)
	if first {
		r.checker.OnFirstRead(d)
	} else {
		r.checker.OnRepeatRead(d)
	}
	return pt
}

func (r *refMemory) RegisterSnapshot() RegisterState {
	b := r.checker.Current()
	return RegisterState{
		W: b.W.Value(), R: b.R.Value(), FR: b.FR.Value(), IR: b.IR.Value(),
		WFolds: b.W.Folds(), RFolds: b.R.Folds(), FRFolds: b.FR.Folds(), IRFolds: b.IR.Folds(),
	}
}
