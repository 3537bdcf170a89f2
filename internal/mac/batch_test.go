package mac

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"math/rand"
	"testing"

	"seculator/internal/tensor"
)

// messageByHand writes the 88-byte MAC message P‖L‖F‖VN‖I‖B out byte by
// byte, big-endian, without putHeader — the stored definition the kernels
// must keep.
func messageByHand(ref BlockRef, data []byte) []byte {
	msg := make([]byte, 0, hdrSize+len(data))
	for shift := 56; shift >= 0; shift -= 8 {
		msg = append(msg, byte(ref.Secret>>shift))
	}
	for _, f := range []uint32{ref.Layer, ref.Fmap, ref.VN, ref.Index} {
		msg = append(msg, byte(f>>24), byte(f>>16), byte(f>>8), byte(f))
	}
	return append(msg, data...)
}

// TestBlockMACDefinitionPinned: the hasher's one-block entry, the stateless
// BlockMAC and SHA-256 of the hand-written message agree, and FoldRow is the
// XOR of those digests — over random positions and data, on one hasher so
// every MAC after the first runs on a reused state.
func TestBlockMACDefinitionPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h RowHasher
	for trial := 0; trial < 200; trial++ {
		ref := BlockRef{Secret: rng.Uint64(), Layer: rng.Uint32(), Fmap: rng.Uint32(),
			VN: rng.Uint32(), Index: rng.Uint32()}
		blocks := 1 + rng.Intn(5)
		data := make([]byte, blocks*tensor.BlockBytes)
		rng.Read(data)

		var want Digest
		for b := 0; b < blocks; b++ {
			r := ref
			r.Index += uint32(b) // wraps like the kernel's index patch
			blk := data[b*tensor.BlockBytes : (b+1)*tensor.BlockBytes]
			d := Digest(sha256.Sum256(messageByHand(r, blk)))
			if got := BlockMAC(r, blk); got != d {
				t.Fatalf("BlockMAC(%+v) = %x, want %x", r, got, d)
			}
			if got := h.Block(r, blk); got != d {
				t.Fatalf("RowHasher.Block(%+v) = %x, want %x", r, got, d)
			}
			for i := range want {
				want[i] ^= d[i]
			}
		}
		got, n := h.FoldRow(ref, data)
		if n != blocks || got != want {
			t.Fatalf("FoldRow(%+v, %d blocks) = %x (n=%d), want %x", ref, blocks, got, n, want)
		}
	}
	// A block shorter than a line hashes as the shorter message.
	short := []byte{1, 2, 3}
	if got, want := h.Block(BlockRef{Index: 7}, short), BlockMAC(BlockRef{Index: 7}, short); got != want {
		t.Fatalf("short block: Block = %x, BlockMAC = %x", got, want)
	}
}

// TestDigestXorMatchesByteLoop pins the word-wide XOR — Digest.Xor and the
// register folds built on it — to a byte loop.
func TestDigestXorMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		var a, b, want Digest
		rng.Read(a[:])
		rng.Read(b[:])
		for i := range want {
			want[i] = a[i] ^ b[i]
		}
		a0, b0 := a, b
		if got := a.Xor(b); got != want {
			t.Fatalf("%x ^ %x = %x, want %x", a, b, got, want)
		}
		if a != a0 || b != b0 {
			t.Fatal("Xor modified an operand")
		}
		r := Register{value: a}
		r.Fold(b)
		if r.Value() != want || r.Folds() != 1 {
			t.Fatalf("Fold: %x after %d folds, want %x", r.Value(), r.Folds(), want)
		}
	}
}

// TestRowHasherAllocFree: after its first MAC built the SHA-256 state, a
// hasher allocates nothing — the property a pooled shard relies on.
func TestRowHasherAllocFree(t *testing.T) {
	data := make([]byte, 8*tensor.BlockBytes)
	var h RowHasher
	var reg Register
	reg.Fold(h.Block(BlockRef{}, data[:tensor.BlockBytes]))
	if allocs := testing.AllocsPerRun(100, func() {
		reg.Fold(h.Block(BlockRef{Layer: 3, Index: 9}, data[:tensor.BlockBytes]))
	}); allocs > 0 {
		t.Errorf("Block+Fold: %.0f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_, _ = h.FoldRow(BlockRef{Layer: 5, Index: 2}, data)
	}); allocs > 0 {
		t.Errorf("FoldRow: %.0f allocs/op, want 0", allocs)
	}
	h.Scrub()
	if allocs := testing.AllocsPerRun(100, func() {
		reg.Fold(h.Block(BlockRef{Layer: 3, Index: 9}, data[:tensor.BlockBytes]))
	}); allocs > 0 {
		t.Errorf("Block+Fold after Scrub: %.0f allocs/op, want 0", allocs)
	}
}

// shaState decodes the fields of a marshalled SHA-256 state a scrub is
// about: the bytes buffered for the next compression and the message
// length. The encoding is magic(4) ‖ h(32) ‖ x(64) ‖ len(8), and only the
// first len%64 bytes of x are emitted (the rest is written as zeros).
func shaState(t *testing.T, h *RowHasher) (buffered []byte, length uint64) {
	t.Helper()
	state, err := h.h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 4+sha256.Size+sha256.BlockSize+8 {
		t.Fatalf("marshalled SHA-256 state is %d bytes", len(state))
	}
	x := state[4+sha256.Size:][:sha256.BlockSize]
	return x, binary.BigEndian.Uint64(state[4+sha256.Size+sha256.BlockSize:])
}

// haveSHANI records whether this build and CPU run the SHA-NI kernel, so a
// test that switches useSHANI can restore it.
var haveSHANI = useSHANI

// macPaths runs f once per block-MAC path: the portable one and, where this
// build and CPU have it, the SHA-NI kernel.
func macPaths(t *testing.T, f func(t *testing.T)) {
	t.Cleanup(func() { useSHANI = haveSHANI })
	for _, kernel := range []bool{false, true} {
		if kernel && !haveSHANI {
			continue
		}
		useSHANI = kernel
		t.Run(map[bool]string{false: "portable", true: "kernel"}[kernel], f)
	}
}

// TestRowHasherScrub shows both halves of the pool contract on each path: a
// used hasher holds plaintext — the block in its message buffer and, on the
// portable path, the block's last 24 bytes inside the SHA-256 state — and
// after Scrub no byte the hasher owns holds any, and the next MAC is right.
// The kernel path builds no SHA-256 state at all.
func TestRowHasherScrub(t *testing.T) {
	macPaths(t, func(t *testing.T) {
		data := make([]byte, tensor.BlockBytes)
		for i := range data {
			data[i] = byte(0x80 | i)
		}
		ref := BlockRef{Secret: 5, Index: 1}
		var h RowHasher
		want := h.Block(ref, data)
		if want != Digest(sha256.Sum256(messageByHand(ref, data))) {
			t.Fatalf("Block = %x, want SHA-256 of the message", want)
		}
		if !bytes.Equal(h.buf[hdrSize:hdrSize+tensor.BlockBytes], data) {
			t.Fatal("the message buffer does not hold the block: the check below sees nothing")
		}
		if useSHANI {
			if h.h != nil {
				t.Fatal("the kernel path built a SHA-256 state")
			}
		} else {
			x, n := shaState(t, &h)
			if n != hdrSize+tensor.BlockBytes {
				t.Fatalf("after one block the state has hashed %d bytes, want %d", n, hdrSize+tensor.BlockBytes)
			}
			if tail := data[tensor.BlockBytes-hdrSize:]; !bytes.Equal(x[:hdrSize], tail) {
				t.Fatalf("state buffers %x, want the block's last %d bytes %x", x[:hdrSize], hdrSize, tail)
			}
		}

		h.Scrub()
		if h.buf != (paddedBlock{}) || !h.sum.IsZero() {
			t.Fatal("after Scrub the message buffer or the sum is not zero")
		}
		if h.h != nil {
			x, n := shaState(t, &h)
			if n != sha256.BlockSize-1 {
				t.Fatalf("after Scrub the state has hashed %d bytes, want %d", n, sha256.BlockSize-1)
			}
			if !bytes.Equal(x, make([]byte, sha256.BlockSize)) {
				t.Fatalf("after Scrub the state still buffers %x", x)
			}
		}
		if got := h.Block(ref, data); got != want {
			t.Fatalf("MAC after Scrub = %x, want %x", got, want)
		}

		var fresh RowHasher
		fresh.Scrub() // no state yet: nothing to wipe, nothing built
		if fresh.h != nil {
			t.Fatal("Scrub built a SHA-256 state on an unused hasher")
		}
	})
}

// FuzzBlockMAC holds every block-MAC entry point to the stored definition,
// SHA-256 of the hand-written header‖data, for any position and 0 – 64
// data bytes, on each path: BlockMAC, RowHasher.Block on a reused hasher,
// and FoldRow (one block when data is a whole line, none otherwise).
func FuzzBlockMAC(f *testing.F) {
	f.Add(uint64(0), uint32(0), uint32(0), uint32(0), uint32(0), make([]byte, tensor.BlockBytes))
	f.Add(^uint64(0), ^uint32(0), uint32(7), uint32(3), ^uint32(0), []byte{1, 2, 3})
	f.Add(uint64(1), uint32(2), uint32(3), uint32(4), uint32(5), make([]byte, 31))
	var h RowHasher
	f.Fuzz(func(t *testing.T, secret uint64, layer, fmap, vn, index uint32, data []byte) {
		defer func() { useSHANI = haveSHANI }()
		if len(data) > tensor.BlockBytes {
			data = data[:tensor.BlockBytes]
		}
		ref := BlockRef{Secret: secret, Layer: layer, Fmap: fmap, VN: vn, Index: index}
		want := Digest(sha256.Sum256(messageByHand(ref, data)))
		for _, kernel := range []bool{false, haveSHANI} {
			useSHANI = kernel
			if got := BlockMAC(ref, data); got != want {
				t.Fatalf("kernel %v: BlockMAC(%+v, %d bytes) = %x, want %x", kernel, ref, len(data), got, want)
			}
			if got := h.Block(ref, data); got != want {
				t.Fatalf("kernel %v: RowHasher.Block(%+v, %d bytes) = %x, want %x", kernel, ref, len(data), got, want)
			}
			fold, n := h.FoldRow(ref, data)
			if whole := len(data) == tensor.BlockBytes; whole && (n != 1 || fold != want) || !whole && (n != 0 || !fold.IsZero()) {
				t.Fatalf("kernel %v: FoldRow(%+v, %d bytes) = %x over %d blocks", kernel, ref, len(data), fold, n)
			}
		}
	})
}

// BenchmarkRowHasherBlock measures the block MAC of the secure layer loop:
// one MAC from the hasher (the SHA-NI kernel, or its resident SHA-256
// state) plus the word-wide register fold.
// Compare BenchmarkXORMACFold, the stateless BlockMAC on the same work.
func BenchmarkRowHasherBlock(b *testing.B) {
	data := make([]byte, tensor.BlockBytes)
	var h RowHasher
	var reg Register
	b.SetBytes(tensor.BlockBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Fold(h.Block(BlockRef{Layer: 1, Index: uint32(i)}, data))
	}
}
