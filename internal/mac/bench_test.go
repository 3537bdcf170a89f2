package mac

import (
	"crypto/sha256"
	"testing"

	"seculator/internal/tensor"
)

// BenchmarkXORMACFold measures the per-block integrity path: SHA-256 block
// MAC plus the XOR-MAC register fold. Blocks up to maxInlineData bytes are
// assembled on the stack and hashed in one call (the SHA-NI kernel, or
// sha256.Sum256), which keeps the whole fold allocation-free (see -benchmem).
func BenchmarkXORMACFold(b *testing.B) {
	data := make([]byte, tensor.BlockBytes)
	var reg Register
	b.SetBytes(tensor.BlockBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Fold(BlockMAC(BlockRef{Layer: 1, Index: uint32(i)}, data))
	}
}

// BenchmarkBlockMACLarge exercises the streaming fallback for payloads past
// the inline threshold; this path allocates (hash state) and exists only
// for oversized callers outside the simulator's 64-byte block hot path.
func BenchmarkBlockMACLarge(b *testing.B) {
	data := make([]byte, 4*tensor.BlockBytes)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BlockMAC(BlockRef{Layer: 1, Index: uint32(i)}, data)
	}
}

// TestBlockMACAllocFree pins the fast path's zero-allocation property for
// simulator-sized blocks.
func TestBlockMACAllocFree(t *testing.T) {
	data := make([]byte, tensor.BlockBytes)
	var reg Register
	allocs := testing.AllocsPerRun(100, func() {
		reg.Fold(BlockMAC(BlockRef{Layer: 3, Index: 9}, data))
	})
	if allocs > 0 {
		t.Errorf("BlockMAC+Fold: %.0f allocs/op, want 0", allocs)
	}
}

// BenchmarkFoldRow measures the batched row-MAC path used by host weight
// loads and residency builds: header built once per row, index patched per
// block, caller-owned scratch — zero allocations per row.
func BenchmarkFoldRow(b *testing.B) {
	const blocks = 64
	data := make([]byte, blocks*tensor.BlockBytes)
	var h RowHasher
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = h.FoldRow(BlockRef{Layer: 1, Fmap: uint32(i)}, data)
	}
}

// TestFoldRowAllocFree pins the batched path's zero-allocation property:
// the scratch lives in the caller-owned RowHasher, so an entire model load
// reuses one buffer.
func TestFoldRowAllocFree(t *testing.T) {
	data := make([]byte, 32*tensor.BlockBytes)
	var h RowHasher
	allocs := testing.AllocsPerRun(100, func() {
		_, _ = h.FoldRow(BlockRef{Layer: 5, Index: 2}, data)
	})
	if allocs > 0 {
		t.Errorf("FoldRow: %.0f allocs/op, want 0", allocs)
	}
}

// TestFoldRowMatchesPerBlock: the row fold must be bit-equal to folding
// each block's MAC individually, so callers can swap loops for FoldRow
// without changing any golden digest.
func TestFoldRowMatchesPerBlock(t *testing.T) {
	const blocks = 7
	data := make([]byte, blocks*tensor.BlockBytes)
	for i := range data {
		data[i] = byte(i*13 + 5)
	}
	ref := BlockRef{Secret: 0xabc, Layer: 4, Fmap: 2, VN: 9, Index: 100}
	got, n := new(RowHasher).FoldRow(ref, data)
	if n != blocks {
		t.Fatalf("FoldRow count = %d, want %d", n, blocks)
	}
	var want Digest
	for b := 0; b < blocks; b++ {
		r := ref
		r.Index += uint32(b)
		want = want.Xor(BlockMAC(r, data[b*tensor.BlockBytes:(b+1)*tensor.BlockBytes]))
	}
	if got != want {
		t.Errorf("FoldRow %v != per-block fold %v", got, want)
	}
}

// TestBlockMACFastSlowAgree: the inline fast path and the streaming
// fallback must produce identical digests at the boundary.
func TestBlockMACFastSlowAgree(t *testing.T) {
	ref := BlockRef{Layer: 2, Index: 5}
	for _, n := range []int{0, 1, maxInlineData - 1, maxInlineData, maxInlineData + 1, 256} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i * 31)
		}
		got := BlockMAC(ref, data)
		want := streamingBlockMAC(ref, data)
		if got != want {
			t.Errorf("len=%d: fast path %v != streaming %v", n, got, want)
		}
	}
}

// streamingBlockMAC is an independent reference: always hash through a
// hash.Hash, never the inline buffer.
func streamingBlockMAC(ref BlockRef, data []byte) Digest {
	h := sha256.New()
	var hdr [hdrSize]byte
	putHeader(hdr[:], ref)
	h.Write(hdr[:])
	h.Write(data)
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}
