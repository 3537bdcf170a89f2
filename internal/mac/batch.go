package mac

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
)

// batch.go — the block-MAC hasher: a batch of up to LaneCount independent
// messages hashed together (Slot or Add, then Sum).
//
// Every producer that owes many MACs at once — an ofmap tile's writes, the
// layer-0 input load, a residency build and its epoch re-verification, any
// row FoldRow folds — queues each block's message, its own P‖L‖F‖VN‖I‖B
// header and all, in the next free lane, and takes the batch's digests with
// Sum whenever the batch is full and once at the end. Slot is the one lane
// writer: it writes a lane's header and padding and hands back the lane's
// data slot, which a producer fills in place (Add is Slot plus a copy).
// Sum hashes a batch of at least minLanes16 messages with the 16-lane
// AVX-512 kernel where the CPU has it; a smaller batch, or a CPU without
// AVX-512, hashes each lane with the SHA-NI kernel, and a CPU without
// SHA-NI (or a purego build) with the portable SHA-256 state the hasher
// keeps for its lifetime. A digest is bit-equal on every path, and the XOR
// fold is order-free, so batching moves no MAC, register or verdict.

// LaneCount is how many messages one batch holds: one per 32-bit lane of
// the AVX-512 kernel.
const LaneCount = 16

// minLanes16 is the smallest batch the 16-lane kernel hashes. The kernel
// costs about the same for any number of lanes — a batch of 6 to 11 whole
// blocks, Add included, takes 0.87–0.96 µs on a Sapphire Rapids Xeon —
// while per-lane SHA-NI costs about 105 ns a lane (BenchmarkLanes,
// EXPERIMENTS.md E45): they cross between 8 and 9 lanes, so below nine
// per-lane SHA-NI is the cheaper kernel.
const minLanes16 = 9

// RowHasher is caller-owned scratch for block MACs: the lanes' messages
// (plaintext, which Scrub wipes), their digests and the portable path's
// SHA-256 state. The zero value is ready to use; on the portable path the
// first MAC allocates the state, and no later one allocates. A hasher
// declared on its caller's stack stays there: nothing of it reaches an
// interface call (portableState). Not safe for concurrent use — give each
// worker its own.
type RowHasher struct {
	n     int // messages queued
	lanes [LaneCount]paddedBlock
	sums  [LaneCount]Digest
	p     *portableState
}

// portableState is the portable path's SHA-256 state with the message it
// hashes and the digest it sums into: copies of a lane and a digest that
// live beside the state, so the hasher's own lanes and digests never reach
// hash.Hash's Write and Sum, whose arguments escape.
type portableState struct {
	h   hash.Hash
	msg [hdrSize + maxInlineData]byte
	sum Digest
}

// Slot queues the MAC message of one whole 64-byte block under ref in the
// next free lane — its header and SHA-256 padding written in place — and
// returns the lane's 64-byte data slot and how many messages the batch now
// holds. The caller fills the slot with the block before the next Sum; a
// write that encodes or decrypts a block straight into the slot forms its
// plaintext nowhere else. At LaneCount the batch is full: take Sum before
// the next Slot.
func (h *RowHasher) Slot(ref BlockRef) (*[maxInlineData]byte, int) {
	msg := &h.lanes[h.n]
	putHeader(msg[:hdrSize], ref)
	msg[hdrSize+maxInlineData] = 0x80
	binary.BigEndian.PutUint16(msg[len(msg)-2:], (hdrSize+maxInlineData)*8)
	h.n++
	return (*[maxInlineData]byte)(msg[hdrSize:]), h.n
}

// Add queues the MAC message of one whole 64-byte block: Slot, filled with
// a copy of block, so the caller may reuse it at once. It returns how many
// messages the batch now holds.
func (h *RowHasher) Add(ref BlockRef, block []byte) int {
	if len(block) != maxInlineData {
		panic(fmt.Sprintf("mac: a lane holds a whole %d-byte block, got %d bytes", maxInlineData, len(block)))
	}
	slot, n := h.Slot(ref)
	*slot = [maxInlineData]byte(block)
	return n
}

// Sum hashes the queued messages and empties the batch. It returns their
// digests in the order they were queued, valid until the hasher's next
// Sum.
func (h *RowHasher) Sum() []Digest {
	n := h.n
	h.n = 0
	switch {
	case n == 0:
	case useAVX512 && n >= minLanes16:
		sum16(&h.sums, &h.lanes)
	case useSHANI:
		for i := 0; i < n; i++ {
			sum128(&h.sums[i], &h.lanes[i])
		}
	default:
		for i := 0; i < n; i++ {
			h.sums[i] = h.portable(&h.lanes[i])
		}
	}
	return h.sums[:n]
}

// portable returns the MAC of a lane's message with the hasher's resident
// state: sha256.Sum256 builds and resets a fresh digest on every call,
// which is a tenth of a block MAC's cost.
func (h *RowHasher) portable(lane *paddedBlock) Digest {
	if h.p == nil {
		h.p = &portableState{h: sha256.New()}
	}
	p := h.p
	p.msg = [hdrSize + maxInlineData]byte(lane[:hdrSize+maxInlineData])
	p.h.Reset()
	p.h.Write(p.msg[:])
	p.h.Sum(p.sum[:0])
	return p.sum
}

// FoldRow returns the XOR of BlockMAC(ref with Index+i, block i) over all
// len(data)/64 consecutive 64-byte blocks in data, plus the block count,
// hashing them in batches. data must be a whole number of 64-byte blocks,
// and the batch empty. The result is bit-equal to folding each BlockMAC
// individually (XOR is commutative), so callers can swap per-block loops
// for one FoldRow call without changing any golden digest.
func (h *RowHasher) FoldRow(ref BlockRef, data []byte) (Digest, int) {
	h.mustBeEmpty("FoldRow")
	n := len(data) / maxInlineData
	var acc Digest
	for b := 0; b < n; b++ {
		if h.Add(ref, data[b*maxInlineData:(b+1)*maxInlineData]) == LaneCount {
			acc = acc.Xor(XorAll(h.Sum()))
		}
		ref.Index++
	}
	return acc.Xor(XorAll(h.Sum())), n
}

func (h *RowHasher) mustBeEmpty(op string) {
	if h.n != 0 {
		panic(fmt.Sprintf("mac: %s with %d messages queued", op, h.n))
	}
}

// Path is one way a hasher hashes a batch: "lanes16", the 16-lane kernel
// (with per-lane SHA-NI below minLanes16); "kernel", the SHA-NI kernel one
// call a lane; or "portable", the resident SHA-256 state.
type Path struct {
	Name          string
	avx512, shani bool
}

// Paths returns the paths this build and CPU have, the one CPUID picks
// first. Tests switch between them with UsePath to hold every MAC-owing
// caller to each path; nothing else does.
func Paths() []Path {
	var ps []Path
	if haveAVX512 {
		ps = append(ps, Path{"lanes16", true, haveSHANI})
	}
	if haveSHANI {
		ps = append(ps, Path{"kernel", false, true})
	}
	return append(ps, Path{"portable", false, false})
}

// haveSHANI and haveAVX512 record the kernels CPUID picked, which UsePath's
// restore puts back.
var haveSHANI, haveAVX512 = useSHANI, useAVX512

// UsePath switches every hasher and BlockMAC to p until the returned
// restore runs. It is not safe to call while anything hashes.
func UsePath(p Path) (restore func()) {
	useAVX512, useSHANI = p.avx512, p.shani
	return func() { useAVX512, useSHANI = haveAVX512, haveSHANI }
}

// XorAll returns the XOR of ds: the fold of a batch's digests.
func XorAll(ds []Digest) Digest {
	var acc Digest
	for i := range ds {
		xorWords(&acc, &ds[i])
	}
	return acc
}

// Scrub wipes what a pooled hasher would otherwise carry into the next run
// — the lanes, which hold the messages last queued (plaintext), the digests
// and any queued batch — and keeps any SHA-256 state, so reuse allocates
// nothing. The kernels hash from the lanes and keep nothing (their message
// schedule lives in registers, their chaining state on their own frame),
// so on their paths that is all. The portable state is another copy: after
// an 88-byte Write it buffers the message's last 24 bytes — plaintext — and
// its Reset zeroes the counters, not that buffer; a 64-byte Write would be
// compressed straight from the caller's slice without touching it. So the
// buffer is overwritten with 63 zero bytes and left that way: every MAC
// begins with its own Reset. The state's copies of the last message and
// digest are zeroed too.
func (h *RowHasher) Scrub() {
	h.n = 0
	h.lanes = [LaneCount]paddedBlock{}
	h.sums = [LaneCount]Digest{}
	if p := h.p; p != nil {
		p.msg, p.sum = [hdrSize + maxInlineData]byte{}, Digest{}
		p.h.Reset()
		p.h.Write(p.msg[:sha256.BlockSize-1])
	}
}
