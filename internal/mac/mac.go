// Package mac implements Seculator's layer-level integrity scheme
// (Section 6.4). A 32-byte MAC is computed per 64-byte block as
//
//	MAC = SHA256(P || L || F || VN || I || B)
//
// where P is the accelerator's secret ID, L the layer ID, F the fmap ID,
// VN the version number, I the block index within the fmap, and B the block
// contents (where the CPU has AVX-512, up to 16 MACs per kernel call, and
// where it has SHA-NI, one per call, both in sha256_amd64.s; elsewhere
// crypto/sha256, bit-identically) — but instead of storing MACs, they are
// XOR-folded into four on-chip 256-bit registers:
//
//	MAC_W  — everything written this layer
//	MAC_R  — every partial ofmap read back this layer
//	MAC_FR — every ifmap block read for the FIRST time this layer,
//	         computed with the PREVIOUS layer's ID and final VN so it
//	         matches what that layer folded into its MAC_W
//	MAC_IR — every ifmap block read this layer (first and repeat)
//
// Because in a layer everything written is read back except the final
// versions — which the next layer reads as its first-touch inputs — the
// single check MAC_W = MAC_FR ⊕ MAC_R (Equation 1) verifies integrity,
// freshness and completeness of an entire layer's data. The XOR fold is
// Bellare et al.'s XOR-MAC, secure because each folded MAC binds a unique
// (layer, fmap, VN, index) position.
//
// Verification of layer i's writes completes only while layer i+1 runs, so
// the hardware keeps two register banks that alternate between even and odd
// layers; LayerChecker models exactly that.
package mac

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Size is the MAC register width in bytes (SHA-256 digest).
const Size = sha256.Size

// Digest is a 256-bit MAC value / XOR-MAC register.
type Digest [Size]byte

// IsZero reports whether every bit of the digest is zero.
func (d Digest) IsZero() bool { return d == Digest{} }

// Xor returns d ⊕ o.
func (d Digest) Xor(o Digest) Digest {
	xorWords(&d, &o)
	return d
}

// xorWords sets d ^= o as four 64-bit words (XOR has no byte order; the
// little-endian view compiles to plain loads and stores).
func xorWords(d, o *Digest) {
	le := binary.LittleEndian
	le.PutUint64(d[0:], le.Uint64(d[0:])^le.Uint64(o[0:]))
	le.PutUint64(d[8:], le.Uint64(d[8:])^le.Uint64(o[8:]))
	le.PutUint64(d[16:], le.Uint64(d[16:])^le.Uint64(o[16:]))
	le.PutUint64(d[24:], le.Uint64(d[24:])^le.Uint64(o[24:]))
}

// String renders the first 8 bytes, enough to identify a digest in logs.
func (d Digest) String() string { return fmt.Sprintf("%x…", d[:8]) }

// BlockRef identifies the position a block MAC binds: all the non-data
// inputs of the MAC computation.
type BlockRef struct {
	Secret uint64 // accelerator secret ID (P)
	Layer  uint32 // producing layer ID (L)
	Fmap   uint32 // fmap ID (F)
	VN     uint32 // version number
	Index  uint32 // block index within the fmap (I)
}

// hdrSize is the serialized BlockRef prefix: P(8) L(4) F(4) VN(4) I(4).
const hdrSize = 24

// maxInlineData sizes the stack buffer of BlockMAC's allocation-free fast
// path; 64 covers the simulator's one block size (tensor.BlockBytes).
const maxInlineData = 64

// BlockMAC computes SHA256(P || L || F || VN || I || B).
//
// For data up to 64 bytes — every caller in the simulator; blocks are
// 64-byte DRAM lines — the message is assembled in a stack buffer, so the
// per-block MAC path performs zero heap allocations. A whole 64-byte block
// is hashed by the SHA-NI kernel where the CPU has it (sumPadded), any
// other by sha256.Sum256. Longer data streams through a hash.Hash.
func BlockMAC(ref BlockRef, data []byte) Digest {
	if len(data) <= maxInlineData {
		var buf paddedBlock
		putHeader(buf[:hdrSize], ref)
		copy(buf[hdrSize:], data)
		if useSHANI && len(data) == maxInlineData {
			var d Digest
			sumPadded(&d, &buf)
			return d
		}
		return Digest(sha256.Sum256(buf[:hdrSize+len(data)]))
	}
	h := sha256.New()
	var hdr [hdrSize]byte
	putHeader(hdr[:], ref)
	h.Write(hdr[:])
	h.Write(data)
	var d Digest
	copy(d[:], h.Sum(nil))
	return d
}

// paddedBlock is the MAC message of one whole 64-byte block, P‖L‖F‖VN‖I‖B
// in its first 88 bytes, followed by the SHA-256 padding sumPadded (or
// RowHasher.Slot) writes: 0x80, zeros, and the message's bit length 704 in
// the last eight bytes.
type paddedBlock [2 * sha256.BlockSize]byte

// sumPadded sets d to the MAC of the message in msg[:88] with the SHA-NI
// kernel, after writing its padding. msg[89:126] must be zero: no writer of
// a paddedBlock touches them.
func sumPadded(d *Digest, msg *paddedBlock) {
	msg[hdrSize+maxInlineData] = 0x80
	binary.BigEndian.PutUint16(msg[len(msg)-2:], (hdrSize+maxInlineData)*8)
	sum128(d, msg)
}

func putHeader(hdr []byte, ref BlockRef) {
	binary.BigEndian.PutUint64(hdr[0:8], ref.Secret)
	binary.BigEndian.PutUint32(hdr[8:12], ref.Layer)
	binary.BigEndian.PutUint32(hdr[12:16], ref.Fmap)
	binary.BigEndian.PutUint32(hdr[16:20], ref.VN)
	binary.BigEndian.PutUint32(hdr[20:24], ref.Index)
}

// Register is one XOR-MAC accumulator.
type Register struct {
	value Digest
	folds uint64
}

// Fold XORs m into the register.
func (r *Register) Fold(m Digest) {
	xorWords(&r.value, &m)
	r.folds++
}

// Value returns the accumulated digest.
func (r *Register) Value() Digest { return r.value }

// Folds returns how many MACs have been folded in.
func (r *Register) Folds() uint64 { return r.folds }

// Reset clears the register.
func (r *Register) Reset() { *r = Register{} }

// Bank is the register set for one layer in flight.
type Bank struct {
	W  Register // writes
	R  Register // in-layer partial reads
	FR Register // first reads of the previous layer's outputs
	IR Register // all ifmap reads (first + repeats)

	layer  uint32
	active bool
}

// Reset clears the bank for a new layer.
func (b *Bank) Reset(layer uint32) {
	*b = Bank{layer: layer, active: true}
}

// ErrIntegrity is returned when a layer's MAC verification fails — in
// hardware this raises the security-breach signal and forces a reboot.
var ErrIntegrity = errors.New("mac: layer integrity verification failed")

// ErrProtocol is returned on misuse of the checker (e.g. verifying a layer
// that never ran).
var ErrProtocol = errors.New("mac: checker protocol violation")

// LayerChecker drives the two alternating register banks across the layers
// of a network, implementing the Equation 1 check
//
//	MAC_W(i) == MAC_R(i) ⊕ MAC_FR(i+1)
//
// and the read-only re-read check on MAC_IR: every ifmap tile is read the
// same deterministic number of times (known from the mapping), so the IR
// register must equal zero after an even number of sweeps and MAC_FR after
// an odd number.
type LayerChecker struct {
	banks [2]Bank
	cur   int  // index of the bank accumulating the current layer
	ran   bool // at least one layer begun
}

// Begin starts accumulating a new layer. The verification of the previous
// layer's writes remains pending until the new layer's first reads complete;
// call VerifyPrevious (typically at the end of the new layer) to check it.
func (c *LayerChecker) Begin(layer uint32) {
	if c.ran {
		c.cur ^= 1
	}
	c.banks[c.cur].Reset(layer)
	c.ran = true
}

// Current returns the bank of the layer in flight.
func (c *LayerChecker) Current() *Bank {
	return &c.banks[c.cur]
}

// Restart clears the current layer's bank without advancing to the other
// one — the recovery primitive: when the in-flight layer's verification
// fails and the executor re-fetches and re-executes it, the layer's own
// accumulated folds must be discarded while the previous layer's pending
// bank stays intact for the re-verification.
func (c *LayerChecker) Restart() {
	if !c.ran {
		return
	}
	b := c.Current()
	b.Reset(b.layer)
}

// Tamper XORs mask into the first byte of one register of the current bank
// ("W", "R", "FR" or "IR") — the fault-injection model of an on-chip MAC
// register upset. Unknown names are ignored.
func (c *LayerChecker) Tamper(register string, mask byte) {
	if !c.ran || mask == 0 {
		return
	}
	b := c.Current()
	var r *Register
	switch register {
	case "W":
		r = &b.W
	case "R":
		r = &b.R
	case "FR":
		r = &b.FR
	case "IR":
		r = &b.IR
	default:
		return
	}
	var d Digest
	d[0] = mask
	r.value = r.value.Xor(d)
}

// previous returns the other bank (last layer), or nil before layer two.
func (c *LayerChecker) previous() *Bank {
	b := &c.banks[c.cur^1]
	if !b.active {
		return nil
	}
	return b
}

// OnWrite folds the MAC of a block being written.
func (c *LayerChecker) OnWrite(m Digest) { c.Current().W.Fold(m) }

// OnPartialRead folds the MAC of a partial ofmap block read back in-layer.
func (c *LayerChecker) OnPartialRead(m Digest) { c.Current().R.Fold(m) }

// OnFirstRead folds the MAC of an ifmap block touched for the first time.
// The caller must compute m with the previous layer's ID and final VN.
func (c *LayerChecker) OnFirstRead(m Digest) {
	b := c.Current()
	b.FR.Fold(m)
	b.IR.Fold(m)
}

// OnRepeatRead folds the MAC of an ifmap block re-read after its first touch.
func (c *LayerChecker) OnRepeatRead(m Digest) { c.Current().IR.Fold(m) }

// VerifyPrevious runs Equation 1 for the previous layer, consuming its
// bank: MAC_W(prev) must equal MAC_R(prev) ⊕ MAC_FR(current). external is
// XORed into the expected side to account for final outputs that are NOT
// consumed by the current layer (for the last layer the host supplies it);
// pass the zero Digest when the current layer reads everything.
func (c *LayerChecker) VerifyPrevious(external Digest) error {
	prev := c.previous()
	if prev == nil {
		return fmt.Errorf("%w: no previous layer to verify", ErrProtocol)
	}
	want := prev.R.Value().Xor(c.Current().FR.Value()).Xor(external)
	if prev.W.Value() != want {
		return fmt.Errorf("%w: layer %d: MAC_W=%v, MAC_R⊕MAC_FR=%v",
			ErrIntegrity, prev.layer, prev.W.Value(), want)
	}
	prev.active = false
	return nil
}

// VerifyFirstLayerInputs checks the current layer's first reads against a
// golden XOR-MAC provided by the host for data it wrote itself (the model
// input for layer 0, or weights): the FR register must match it exactly.
func (c *LayerChecker) VerifyFirstLayerInputs(golden Digest) error {
	if !c.ran {
		return fmt.Errorf("%w: no layer in flight", ErrProtocol)
	}
	if got := c.Current().FR.Value(); got != golden {
		return fmt.Errorf("%w: layer %d inputs: FR=%v, golden=%v",
			ErrIntegrity, c.Current().layer, got, golden)
	}
	return nil
}

// VerifyRereads checks the IR register invariant for the current layer:
// with every ifmap block read exactly `sweeps` times (deterministic from
// the mapping), IR must be zero for even sweeps and equal FR for odd.
func (c *LayerChecker) VerifyRereads(sweeps int) error {
	if !c.ran {
		return fmt.Errorf("%w: no layer in flight", ErrProtocol)
	}
	b := c.Current()
	var want Digest
	if sweeps%2 == 1 {
		want = b.FR.Value()
	}
	if got := b.IR.Value(); got != want {
		return fmt.Errorf("%w: layer %d re-reads: IR=%v, want %v (sweeps=%d)",
			ErrIntegrity, b.layer, got, want, sweeps)
	}
	return nil
}

// FinalW returns the W register of the layer in flight — after the last
// layer this is what the host uses to verify the network outputs it reads.
func (c *LayerChecker) FinalW() Digest { return c.Current().W.Value() }
