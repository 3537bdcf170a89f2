package mac

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
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

// single is one whole block's MAC from the hasher: a batch of one lane.
func single(h *RowHasher, ref BlockRef, blk []byte) Digest {
	h.Add(ref, blk)
	return h.Sum()[0]
}

// TestBlockMACDefinitionPinned: the hasher's batch of one, the stateless
// BlockMAC and SHA-256 of the hand-written message agree, and FoldRow is the
// XOR of those digests — over random positions and data, rows of up to two
// full batches and more, on each path, on one hasher so every MAC after the
// first runs on a reused state.
func TestBlockMACDefinitionPinned(t *testing.T) {
	macPaths(t, testBlockMACDefinition)
}

func testBlockMACDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h RowHasher
	for trial := 0; trial < 200; trial++ {
		ref := BlockRef{Secret: rng.Uint64(), Layer: rng.Uint32(), Fmap: rng.Uint32(),
			VN: rng.Uint32(), Index: rng.Uint32()}
		blocks := 1 + rng.Intn(2*LaneCount+3)
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
			if got := single(&h, r, blk); got != d {
				t.Fatalf("RowHasher batch of one (%+v) = %x, want %x", r, got, d)
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
	if got, want := BlockMAC(BlockRef{Index: 7}, short), Digest(sha256.Sum256(messageByHand(BlockRef{Index: 7}, short))); got != want {
		t.Fatalf("short block: BlockMAC = %x, want %x", got, want)
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
	reg.Fold(single(&h, BlockRef{}, data[:tensor.BlockBytes]))
	if allocs := testing.AllocsPerRun(100, func() {
		reg.Fold(single(&h, BlockRef{Layer: 3, Index: 9}, data[:tensor.BlockBytes]))
	}); allocs > 0 {
		t.Errorf("Add+Sum+Fold: %.0f allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		_, _ = h.FoldRow(BlockRef{Layer: 5, Index: 2}, data)
	}); allocs > 0 {
		t.Errorf("FoldRow: %.0f allocs/op, want 0", allocs)
	}
	h.Scrub()
	if allocs := testing.AllocsPerRun(100, func() {
		reg.Fold(single(&h, BlockRef{Layer: 3, Index: 9}, data[:tensor.BlockBytes]))
	}); allocs > 0 {
		t.Errorf("Add+Sum+Fold after Scrub: %.0f allocs/op, want 0", allocs)
	}
}

// shaState decodes the fields of a marshalled SHA-256 state a scrub is
// about: the bytes buffered for the next compression and the message
// length. The encoding is magic(4) ‖ h(32) ‖ x(64) ‖ len(8), and only the
// first len%64 bytes of x are emitted (the rest is written as zeros).
func shaState(t *testing.T, h *RowHasher) (buffered []byte, length uint64) {
	t.Helper()
	state, err := h.p.h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 4+sha256.Size+sha256.BlockSize+8 {
		t.Fatalf("marshalled SHA-256 state is %d bytes", len(state))
	}
	x := state[4+sha256.Size:][:sha256.BlockSize]
	return x, binary.BigEndian.Uint64(state[4+sha256.Size+sha256.BlockSize:])
}

func restoreKernels() { useAVX512, useSHANI = haveAVX512, haveSHANI }

// macPaths runs f once per block-MAC path this build and CPU have.
func macPaths(t *testing.T, f func(t *testing.T)) {
	t.Cleanup(restoreKernels)
	for _, p := range Paths() {
		UsePath(p)
		t.Run(p.Name, f)
	}
}

// TestPathsAreTheOnesThisCPUHas: Paths lists the 16-lane kernel where CPUID
// found AVX-512, the SHA-NI kernel where it found SHA-NI, and always the
// portable state, in that order; UsePath switches to each, and its restore
// puts back CPUID's pick.
func TestPathsAreTheOnesThisCPUHas(t *testing.T) {
	var want []string
	if haveAVX512 {
		want = append(want, "lanes16")
	}
	if haveSHANI {
		want = append(want, "kernel")
	}
	want = append(want, "portable")
	var got []string
	for _, p := range Paths() {
		got = append(got, p.Name)
		restore := UsePath(p)
		if useAVX512 != p.avx512 || useSHANI != p.shani || p.avx512 && !haveAVX512 || p.shani && !haveSHANI {
			t.Fatalf("UsePath(%s) left avx512 %v, shani %v", p.Name, useAVX512, useSHANI)
		}
		restore()
		if useAVX512 != haveAVX512 || useSHANI != haveSHANI {
			t.Fatalf("UsePath(%s)'s restore left avx512 %v, shani %v", p.Name, useAVX512, useSHANI)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Paths() = %v, want %v", got, want)
	}
}

// TestRowHasherScrub shows both halves of the pool contract on each path: a
// used hasher holds plaintext — every block of its last batch in its lanes
// and, on the portable path, the last block in the state's message copy
// and its final 24 bytes inside the SHA-256 state — and after Scrub no byte the hasher owns holds any, and
// the next MACs are right. The kernel paths build no SHA-256 state at all.
func TestRowHasherScrub(t *testing.T) {
	macPaths(t, func(t *testing.T) {
		data := make([]byte, LaneCount*tensor.BlockBytes)
		for i := range data {
			data[i] = byte(0x80 | i)
		}
		ref := BlockRef{Secret: 5, Index: 1}
		var h RowHasher
		want, n := h.FoldRow(ref, data)
		if n != LaneCount {
			t.Fatalf("FoldRow hashed %d blocks, want %d", n, LaneCount)
		}
		for i := 0; i < LaneCount; i++ {
			blk := data[i*tensor.BlockBytes : (i+1)*tensor.BlockBytes]
			if !bytes.Equal(h.lanes[i][hdrSize:hdrSize+tensor.BlockBytes], blk) {
				t.Fatalf("lane %d does not hold its block: the check below sees nothing", i)
			}
		}
		last := data[len(data)-tensor.BlockBytes:]
		if useSHANI {
			if h.p != nil {
				t.Fatal("a kernel path built a SHA-256 state")
			}
		} else {
			if !bytes.Equal(h.p.msg[hdrSize:], last) {
				t.Fatal("the portable state's message copy does not hold the last block: the check below sees nothing")
			}
			x, n := shaState(t, &h)
			if n != hdrSize+tensor.BlockBytes {
				t.Fatalf("after a block the state has hashed %d bytes, want %d", n, hdrSize+tensor.BlockBytes)
			}
			if tail := last[tensor.BlockBytes-hdrSize:]; !bytes.Equal(x[:hdrSize], tail) {
				t.Fatalf("state buffers %x, want the block's last %d bytes %x", x[:hdrSize], hdrSize, tail)
			}
		}

		h.Scrub()
		if h.lanes != [LaneCount]paddedBlock{} || h.sums != [LaneCount]Digest{} || h.n != 0 {
			t.Fatal("after Scrub the lanes, the digests or the batch are not empty")
		}
		if h.p != nil {
			if h.p.msg != [hdrSize + tensor.BlockBytes]byte{} || h.p.sum != (Digest{}) {
				t.Fatal("after Scrub the portable state's message or digest copy is not zero")
			}
			x, n := shaState(t, &h)
			if n != sha256.BlockSize-1 {
				t.Fatalf("after Scrub the state has hashed %d bytes, want %d", n, sha256.BlockSize-1)
			}
			if !bytes.Equal(x, make([]byte, sha256.BlockSize)) {
				t.Fatalf("after Scrub the state still buffers %x", x)
			}
		}
		if got, _ := h.FoldRow(ref, data); got != want {
			t.Fatalf("fold after Scrub = %x, want %x", got, want)
		}
		if got, want := single(&h, ref, last), Digest(sha256.Sum256(messageByHand(ref, last))); got != want {
			t.Fatalf("MAC after Scrub = %x, want %x", got, want)
		}

		var fresh RowHasher
		fresh.Scrub() // no state yet: nothing to wipe, nothing built
		if fresh.p != nil {
			t.Fatal("Scrub built a SHA-256 state on an unused hasher")
		}
	})
}

// TestSingleShotNeedsEmptyBatch: FoldRow hashes from the first lane and
// returns with the batch empty, so a call with messages queued — whose
// digests it would drop or mix into its own — is a bug and panics.
func TestSingleShotNeedsEmptyBatch(t *testing.T) {
	blk := make([]byte, tensor.BlockBytes)
	for name, call := range map[string]func(h *RowHasher){
		"FoldRow": func(h *RowHasher) { h.FoldRow(BlockRef{}, blk) },
	} {
		var h RowHasher
		h.Add(BlockRef{}, blk)
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			call(&h)
			return false
		}()
		if !panicked {
			t.Errorf("%s with a message queued did not panic", name)
		}
	}
}

// FuzzBlockMAC holds every block-MAC entry point to the stored definition,
// SHA-256 of the hand-written header‖data, for any position and 0 – 64
// data bytes, on each path: BlockMAC, and, on a reused hasher, a batch of
// one and FoldRow when data is a whole line (FoldRow hashes none otherwise).
func FuzzBlockMAC(f *testing.F) {
	f.Add(uint64(0), uint32(0), uint32(0), uint32(0), uint32(0), make([]byte, tensor.BlockBytes))
	f.Add(^uint64(0), ^uint32(0), uint32(7), uint32(3), ^uint32(0), []byte{1, 2, 3})
	f.Add(uint64(1), uint32(2), uint32(3), uint32(4), uint32(5), make([]byte, 31))
	var h RowHasher
	f.Fuzz(func(t *testing.T, secret uint64, layer, fmap, vn, index uint32, data []byte) {
		defer restoreKernels()
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
			whole := len(data) == tensor.BlockBytes
			if whole {
				if got := single(&h, ref, data); got != want {
					t.Fatalf("kernel %v: RowHasher batch of one (%+v) = %x, want %x", kernel, ref, got, want)
				}
			}
			fold, n := h.FoldRow(ref, data)
			if whole && (n != 1 || fold != want) || !whole && (n != 0 || !fold.IsZero()) {
				t.Fatalf("kernel %v: FoldRow(%+v, %d bytes) = %x over %d blocks", kernel, ref, len(data), fold, n)
			}
		}
	})
}

// FuzzLanes holds the batched entry point to the stored definition on each
// path — the 16-lane kernel, per-lane SHA-NI and the portable state: for 1
// to 17 messages (17 crosses a batch) at mixed fmaps, versions and indices,
// every digest Sum returns, in the order Add queued them, is SHA-256 of the
// hand-written header‖data; and FoldRow over the same blocks as one row is
// the XOR of the row's MACs. The committed seeds cover 1, 6, 7, 8, 9, 15,
// 16 and 17 messages: either side of minLanes16 and of a full batch.
func FuzzLanes(f *testing.F) {
	f.Add(uint8(1), uint64(1), uint32(2), int64(3), []byte{1, 2, 3})
	f.Add(uint8(16), ^uint64(0), ^uint32(0), int64(-1), []byte{})
	f.Fuzz(func(t *testing.T, lanes uint8, secret uint64, layer uint32, mix int64, data []byte) {
		defer restoreKernels()
		n := 1 + int(lanes)%(LaneCount+1)
		rng := rand.New(rand.NewSource(mix))
		refs := make([]BlockRef, n)
		row := make([]byte, n*tensor.BlockBytes)
		want := make([]Digest, n)
		var wantRow Digest
		for i := range refs {
			refs[i] = BlockRef{Secret: secret, Layer: layer, Fmap: rng.Uint32() % 4,
				VN: rng.Uint32() % 3, Index: rng.Uint32()}
			blk := row[i*tensor.BlockBytes : (i+1)*tensor.BlockBytes]
			for j := range blk {
				blk[j] = byte(i)
				if len(data) > 0 {
					blk[j] ^= data[(i*tensor.BlockBytes+j)%len(data)]
				}
			}
			want[i] = Digest(sha256.Sum256(messageByHand(refs[i], blk)))
			r := refs[0]
			r.Index += uint32(i)
			wantRow = wantRow.Xor(Digest(sha256.Sum256(messageByHand(r, blk))))
		}
		for _, p := range Paths() {
			UsePath(p)
			var h RowHasher
			got := make([]Digest, 0, n)
			for i, ref := range refs {
				if h.Add(ref, row[i*tensor.BlockBytes:(i+1)*tensor.BlockBytes]) == LaneCount {
					got = append(got, h.Sum()...)
				}
			}
			got = append(got, h.Sum()...)
			if len(got) != n {
				t.Fatalf("%s: %d digests for %d messages", p.Name, len(got), n)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s, %d messages: lane %d (%+v) = %x, want %x", p.Name, n, i, refs[i], got[i], want[i])
				}
			}
			if fold, blocks := h.FoldRow(refs[0], row); blocks != n || fold != wantRow {
				t.Fatalf("%s: FoldRow over %d blocks = %x (n=%d), want %x", p.Name, n, fold, blocks, wantRow)
			}
		}
	})
}

// BenchmarkRowHasherBlock measures the block MAC of the secure layer loop's
// reads: one MAC from the hasher, a batch of one lane (the SHA-NI kernel, or
// its resident SHA-256 state), plus the word-wide register fold.
// Compare BenchmarkXORMACFold, the stateless BlockMAC on the same work.
func BenchmarkRowHasherBlock(b *testing.B) {
	data := make([]byte, tensor.BlockBytes)
	var h RowHasher
	var reg Register
	b.SetBytes(tensor.BlockBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Fold(single(&h, BlockRef{Layer: 1, Index: uint32(i)}, data))
	}
}

// BenchmarkLanes measures one batch — a lane filled for every message, then
// Sum — at a few batch sizes on each path, reporting ns per MAC; the 16-lane
// kernel's fixed cost per call against per-lane SHA-NI is what sets
// minLanes16. Each size has two arms: Add copies a 64-byte block into its
// lane; the slot arm fills the lane in place, eight word stores into the
// slot Slot returns, as a write that encodes or decrypts straight into its
// lane does.
func BenchmarkLanes(b *testing.B) {
	data := make([]byte, tensor.BlockBytes)
	le := binary.LittleEndian
	b.Cleanup(restoreKernels)
	for _, p := range Paths() {
		for _, n := range []int{1, 8, 9, 16} {
			for _, arm := range []string{"", "/slot"} {
				b.Run(fmt.Sprintf("%s/%d%s", p.Name, n, arm), func(b *testing.B) {
					UsePath(p)
					defer restoreKernels()
					var h RowHasher
					var acc Digest
					b.SetBytes(int64(n * tensor.BlockBytes))
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						for j := 0; j < n; j++ {
							ref := BlockRef{Layer: 1, Index: uint32(j)}
							if arm == "" {
								h.Add(ref, data)
								continue
							}
							slot, _ := h.Slot(ref)
							for w := 0; w < tensor.BlockBytes; w += 8 {
								le.PutUint64(slot[w:], uint64(i^j^w))
							}
						}
						acc = acc.Xor(XorAll(h.Sum()))
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/mac")
					sinkDigest = acc
				})
			}
		}
	}
}

var sinkDigest Digest
