package mac

import (
	"crypto/sha256"
	"encoding/binary"
)

// batch.go — batched XOR-MAC folding over rows of consecutive blocks.
//
// The per-block path (BlockMAC) rebuilds the full 24-byte header for every
// 64-byte block. But the bulk producers — host weight load, residency
// build, residency epoch re-verification — always MAC *rows*: runs of
// blocks that share Secret/Layer/Fmap/VN and differ only in the block
// index. RowHasher assembles the header once per row and patches only the
// index field per block, hashing many blocks per call with zero heap
// allocations (the message buffer is caller-owned scratch inside the
// hasher value, so one hasher amortizes across an entire model load).

// RowHasher is caller-owned scratch for batched row-MAC folding. The zero
// value is ready to use. Not safe for concurrent use — give each worker
// its own (it is 88 bytes; embed it or stack-allocate it).
type RowHasher struct {
	buf [hdrSize + maxInlineData]byte
}

// FoldRow returns the XOR of BlockMAC(ref with Index+i, block i) over all
// len(data)/64 consecutive 64-byte blocks in data, plus the block count.
// data must be a whole number of 64-byte blocks. The result is bit-equal
// to folding each BlockMAC individually (XOR is commutative), so callers
// can swap per-block loops for one FoldRow call without changing any
// golden digest.
func (h *RowHasher) FoldRow(ref BlockRef, data []byte) (Digest, int) {
	n := len(data) / maxInlineData
	if n == 0 {
		return Digest{}, 0
	}
	putHeader(h.buf[:hdrSize], ref)
	var acc Digest
	for b := 0; b < n; b++ {
		binary.BigEndian.PutUint32(h.buf[20:24], ref.Index+uint32(b))
		copy(h.buf[hdrSize:], data[b*maxInlineData:(b+1)*maxInlineData])
		d := Digest(sha256.Sum256(h.buf[:]))
		for i := range acc {
			acc[i] ^= d[i]
		}
	}
	return acc, n
}
