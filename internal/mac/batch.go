package mac

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
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
//
// A whole 64-byte block is hashed by the SHA-NI kernel where the CPU has
// it (sumPadded), straight from the hasher's buffer, which holds the
// message and its padding. Elsewhere — or for a shorter block — the hasher
// keeps one SHA-256 state for its lifetime: sha256.Sum256 builds and resets
// a fresh digest on every call, which is a tenth of a block MAC's cost. The
// shards of the secure layer loop take their single-block MACs from the
// same hasher (Block).

// RowHasher is caller-owned scratch for block MACs: the message buffer, the
// portable path's resident SHA-256 state and the sum it writes. The zero
// value is ready to use; on the portable path the first MAC allocates the
// state, and no later one allocates. Not safe for concurrent use — give
// each worker its own.
type RowHasher struct {
	h   hash.Hash
	buf paddedBlock
	// sum receives each MAC: a stack array would escape through the
	// hash.Hash interface and allocate per block.
	sum Digest
}

// Block returns BlockMAC(ref, data) for one block of at most 64 bytes.
func (h *RowHasher) Block(ref BlockRef, data []byte) Digest {
	putHeader(h.buf[:hdrSize], ref)
	h.hashBlock(data)
	return h.sum
}

// hashBlock hashes the header in buf followed by data (at most 64 bytes,
// else the slice expression panics) into sum.
func (h *RowHasher) hashBlock(data []byte) {
	copy(h.buf[hdrSize:hdrSize+len(data)], data)
	if useSHANI && len(data) == maxInlineData {
		sumPadded(&h.sum, &h.buf)
		return
	}
	if h.h == nil {
		h.h = sha256.New()
	}
	h.h.Reset()
	h.h.Write(h.buf[:hdrSize+len(data)])
	h.h.Sum(h.sum[:0])
}

// FoldRow returns the XOR of BlockMAC(ref with Index+i, block i) over all
// len(data)/64 consecutive 64-byte blocks in data, plus the block count.
// data must be a whole number of 64-byte blocks. The result is bit-equal
// to folding each BlockMAC individually (XOR is commutative), so callers
// can swap per-block loops for one FoldRow call without changing any
// golden digest.
func (h *RowHasher) FoldRow(ref BlockRef, data []byte) (Digest, int) {
	n := len(data) / maxInlineData
	putHeader(h.buf[:hdrSize], ref)
	var acc Digest
	for b := 0; b < n; b++ {
		binary.BigEndian.PutUint32(h.buf[20:24], ref.Index+uint32(b))
		h.hashBlock(data[b*maxInlineData : (b+1)*maxInlineData])
		xorWords(&acc, &h.sum)
	}
	return acc, n
}

// Scrub wipes what a pooled hasher would otherwise carry into the next run
// — the message buffer, which holds the last block hashed, and the sum —
// and keeps any SHA-256 state, so reuse allocates nothing. The kernel
// hashes from the buffer and keeps nothing, so on its path that is all.
// The portable state is another copy: after an 88-byte Write it buffers the
// message's last 24 bytes — plaintext — and its Reset zeroes the counters,
// not that buffer; a 64-byte Write would be compressed straight from the
// caller's slice without touching it. So the buffer is overwritten with 63
// zero bytes and left that way: every MAC begins with its own Reset.
func (h *RowHasher) Scrub() {
	clear(h.buf[:])
	h.sum = Digest{}
	if h.h != nil {
		h.h.Reset()
		h.h.Write(h.buf[:sha256.BlockSize-1])
	}
}
