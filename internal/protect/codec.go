package protect

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"seculator/internal/tensor"
)

// codec.go — the int32 ↔ block codec, fused with the CTR XOR.
//
// A block holds sixteen int32 values, each stored big-endian in four bytes;
// a block whose run of values ends early is zero-padded. Every write forms
// a block's plaintext and its ciphertext in one pass over the values
// (sealBlock), the plaintext straight into the MAC lane that hashes it, and
// every read decodes ciphertext ⊕ pad straight into the caller's values
// (openBlock), forming plaintext bytes only where a MAC must be hashed. The
// values go through the block's eight 64-bit words: two big-endian int32s
// are one little-endian word with each half byte-swapped, so either
// direction is eight loads, byte swaps, XORs and stores.

// block is one 64-byte DRAM line's worth of bytes.
type block = [tensor.BlockBytes]byte

// intsPerBlock is how many int32 values one block holds.
const intsPerBlock = tensor.BlockBytes / 4

// zeroBlock is the pad of the plain codec: x ⊕ 0 = x.
var zeroBlock block

// pair is the little-endian word of two consecutive big-endian values.
func pair(v0, v1 int32) uint64 {
	return uint64(bits.ReverseBytes32(uint32(v0))) | uint64(bits.ReverseBytes32(uint32(v1)))<<32
}

// sealBlock packs vals — at most sixteen, zero-padded to sixteen — into pt
// and writes pt ⊕ pad into ct, in one pass: the block's plaintext and its
// ciphertext from the same words.
func sealBlock(pt, ct, pad *block, vals []int32) {
	le := binary.LittleEndian
	if len(vals) < intsPerBlock {
		// A row's last block: the words past its values are zero.
		for w := 0; w < tensor.BlockBytes; w += 8 {
			var x uint64
			switch i := w / 4; {
			case i+1 < len(vals):
				x = pair(vals[i], vals[i+1])
			case i < len(vals):
				x = pair(vals[i], 0)
			}
			le.PutUint64(pt[w:], x)
			le.PutUint64(ct[w:], x^le.Uint64(pad[w:]))
		}
		return
	}
	v := (*[intsPerBlock]int32)(vals)
	for w := 0; w < tensor.BlockBytes; w += 8 {
		x := pair(v[w/4], v[w/4+1])
		le.PutUint64(pt[w:], x)
		le.PutUint64(ct[w:], x^le.Uint64(pad[w:]))
	}
}

// openBlock decodes ct ⊕ pad into dst: the block's first min(16, len(dst))
// values, in one pass.
func openBlock(dst []int32, ct, pad *block) {
	if len(dst) < intsPerBlock {
		be := binary.BigEndian
		for i := range dst {
			dst[i] = int32(be.Uint32(ct[4*i:]) ^ be.Uint32(pad[4*i:]))
		}
		return
	}
	d := (*[intsPerBlock]int32)(dst)
	le := binary.LittleEndian
	for w := 0; w < tensor.BlockBytes; w += 8 {
		x := le.Uint64(ct[w:]) ^ le.Uint64(pad[w:])
		d[w/4] = int32(bits.ReverseBytes32(uint32(x)))
		d[w/4+1] = int32(bits.ReverseBytes32(uint32(x >> 32)))
	}
}

// opensTo reports whether openBlock(dst, ct, pad) would leave dst
// unchanged: every value it would decode is already there. A whole block
// compares in the one pass, word against word.
func opensTo(dst []int32, ct, pad *block) bool {
	if len(dst) < intsPerBlock {
		var v [intsPerBlock]int32
		openBlock(v[:], ct, pad)
		return slices.Equal(v[:len(dst)], dst)
	}
	d := (*[intsPerBlock]int32)(dst)
	le := binary.LittleEndian
	var diff uint64
	for w := 0; w < tensor.BlockBytes; w += 8 {
		diff |= pair(d[w/4], d[w/4+1]) ^ le.Uint64(ct[w:]) ^ le.Uint64(pad[w:])
	}
	return diff == 0
}

// xorBlock sets dst = a ⊕ b, a word at a time.
func xorBlock(dst, a, b *block) {
	le := binary.LittleEndian
	for w := 0; w < tensor.BlockBytes; w += 8 {
		le.PutUint64(dst[w:], le.Uint64(a[w:])^le.Uint64(b[w:]))
	}
}

// BlockOf returns the values of block j of a row of values: vals[16j:16j+16],
// clipped to the row, and empty past its end.
func BlockOf(vals []int32, j int) []int32 {
	lo := min(j*intsPerBlock, len(vals))
	return vals[lo:min(lo+intsPerBlock, len(vals))]
}

// EncodeBlock packs vals — at most sixteen, zero-padded to sixteen — into
// dst: the plaintext a write of them stores, for callers that fold a MAC
// over values no write moved (mac.BlockMAC of a host-side block).
func EncodeBlock(dst *[tensor.BlockBytes]byte, vals []int32) {
	var ct block
	sealBlock(dst, &ct, &zeroBlock, vals)
}

// DecodeBlock unpacks the first min(16, len(dst)) values of a plaintext
// block into dst.
func DecodeBlock(dst []int32, src *[tensor.BlockBytes]byte) {
	openBlock(dst, src, &zeroBlock)
}
