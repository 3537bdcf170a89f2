package crypto

import (
	"bytes"
	"crypto/aes"
	"math/rand"
	"testing"
	"testing/quick"

	"seculator/internal/tensor"
)

func block(seed byte) []byte {
	b := make([]byte, tensor.BlockBytes)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestCTRRoundTrip(t *testing.T) {
	e := NewCTR(0xdeadbeef, 0x12345678)
	src := block(7)
	ct := make([]byte, tensor.BlockBytes)
	pt := make([]byte, tensor.BlockBytes)
	c := Counter{Fmap: 3, Layer: 2, VN: 5, Block: 11}
	e.EncryptBlock(ct, src, c)
	if bytes.Equal(ct, src) {
		t.Fatal("ciphertext equals plaintext")
	}
	e.DecryptBlock(pt, ct, c)
	if !bytes.Equal(pt, src) {
		t.Fatal("round trip failed")
	}
}

func TestCTRInPlace(t *testing.T) {
	e := NewCTR(1, 2)
	src := block(9)
	buf := append([]byte(nil), src...)
	c := Counter{Fmap: 1, Layer: 1, VN: 1, Block: 1}
	e.EncryptBlock(buf, buf, c)
	e.DecryptBlock(buf, buf, c)
	if !bytes.Equal(buf, src) {
		t.Fatal("in-place round trip failed")
	}
}

// The core freshness property: identical plaintext at the same address
// encrypts differently when any counter component differs.
func TestCTRCounterSeparation(t *testing.T) {
	e := NewCTR(0xa, 0xb)
	src := block(0)
	enc := func(c Counter) []byte {
		out := make([]byte, tensor.BlockBytes)
		e.EncryptBlock(out, src, c)
		return out
	}
	base := Counter{Fmap: 1, Layer: 2, VN: 3, Block: 4}
	variants := []Counter{
		{Fmap: 2, Layer: 2, VN: 3, Block: 4},
		{Fmap: 1, Layer: 3, VN: 3, Block: 4},
		{Fmap: 1, Layer: 2, VN: 4, Block: 4}, // new version -> new ciphertext
		{Fmap: 1, Layer: 2, VN: 3, Block: 5},
	}
	ref := enc(base)
	for _, v := range variants {
		if bytes.Equal(ref, enc(v)) {
			t.Fatalf("counter %v produced identical ciphertext to %v", v, base)
		}
	}
	if !bytes.Equal(ref, enc(base)) {
		t.Fatal("encryption must be deterministic for equal counters")
	}
}

func TestCTRKeySeparation(t *testing.T) {
	src := block(1)
	c := Counter{Fmap: 1, Layer: 1, VN: 1, Block: 1}
	a := make([]byte, tensor.BlockBytes)
	b := make([]byte, tensor.BlockBytes)
	NewCTR(1, 2).EncryptBlock(a, src, c)
	NewCTR(1, 3).EncryptBlock(b, src, c) // different boot random
	if bytes.Equal(a, b) {
		t.Fatal("different boot randomness must change ciphertext")
	}
}

func TestCTRBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short block should panic")
		}
	}()
	NewCTR(1, 2).EncryptBlock(make([]byte, 16), make([]byte, 16), Counter{})
}

func TestXTSRoundTrip(t *testing.T) {
	e := NewXTS(0x1111, 0x2222)
	src := block(3)
	ct := make([]byte, tensor.BlockBytes)
	pt := make([]byte, tensor.BlockBytes)
	e.EncryptBlock(ct, src, 42)
	if bytes.Equal(ct, src) {
		t.Fatal("XTS ciphertext equals plaintext")
	}
	e.DecryptBlock(pt, ct, 42)
	if !bytes.Equal(pt, src) {
		t.Fatal("XTS round trip failed")
	}
}

func TestXTSAddressSeparation(t *testing.T) {
	e := NewXTS(5, 6)
	src := block(0)
	a := make([]byte, tensor.BlockBytes)
	b := make([]byte, tensor.BlockBytes)
	e.EncryptBlock(a, src, 1)
	e.EncryptBlock(b, src, 2)
	if bytes.Equal(a, b) {
		t.Fatal("different addresses must produce different ciphertext")
	}
}

// XTS has no version input: re-encrypting the same data at the same address
// yields the same ciphertext. This is exactly why TNPU needs its tensor
// table for freshness (Table 5).
func TestXTSIsPositionOnlyDeterministic(t *testing.T) {
	e := NewXTS(5, 6)
	src := block(4)
	a := make([]byte, tensor.BlockBytes)
	b := make([]byte, tensor.BlockBytes)
	e.EncryptBlock(a, src, 9)
	e.EncryptBlock(b, src, 9)
	if !bytes.Equal(a, b) {
		t.Fatal("XTS must be deterministic per (data, address)")
	}
}

func TestXTSLanesDiffer(t *testing.T) {
	// Equal plaintext lanes must encrypt differently thanks to tweak doubling.
	e := NewXTS(7, 8)
	src := make([]byte, tensor.BlockBytes) // all lanes identical (zero)
	ct := make([]byte, tensor.BlockBytes)
	e.EncryptBlock(ct, src, 0)
	for lane := 1; lane < 4; lane++ {
		if bytes.Equal(ct[0:16], ct[lane*16:(lane+1)*16]) {
			t.Fatalf("lane %d ciphertext equals lane 0", lane)
		}
	}
}

func TestXTSBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("short block should panic")
		}
	}()
	NewXTS(1, 2).EncryptBlock(make([]byte, 8), make([]byte, 8), 0)
}

func TestGFDouble(t *testing.T) {
	// Doubling zero stays zero.
	var z [16]byte
	gfDouble(&z)
	if z != [16]byte{} {
		t.Fatal("0*alpha != 0")
	}
	// Doubling 1 gives 2 (shift left).
	var one [16]byte
	one[0] = 1
	gfDouble(&one)
	if one[0] != 2 {
		t.Fatalf("1*alpha = %v", one)
	}
	// Overflow folds in the XTS polynomial 0x87.
	var hi [16]byte
	hi[15] = 0x80
	gfDouble(&hi)
	if hi[0] != 0x87 || hi[15] != 0 {
		t.Fatalf("alpha^128 reduction wrong: %v", hi)
	}
}

func TestLatencyModel(t *testing.T) {
	l := LatencyModel{PipelineDepth: 40, IssueInterval: 2}
	if l.Total(0) != 0 {
		t.Fatal("Total(0) != 0")
	}
	if l.Total(1) != 40 {
		t.Fatalf("Total(1) = %d", l.Total(1))
	}
	if l.Total(5) != 48 {
		t.Fatalf("Total(5) = %d, want 48", l.Total(5))
	}
}

func TestCounterString(t *testing.T) {
	c := Counter{Fmap: 1, Layer: 2, VN: 3, Block: 4}
	if c.String() != "ctr{f=1 l=2 vn=3 b=4}" {
		t.Fatalf("String = %q", c.String())
	}
}

// Property: CTR round-trips for arbitrary data and counters.
func TestCTRRoundTripProperty(t *testing.T) {
	e := NewCTR(0xfeed, 0xcafe)
	f := func(data [64]byte, fmap, layer, vn, blk uint16) bool {
		c := Counter{Fmap: uint32(fmap), Layer: uint32(layer), VN: uint32(vn), Block: uint32(blk)}
		ct := make([]byte, 64)
		pt := make([]byte, 64)
		e.EncryptBlock(ct, data[:], c)
		e.DecryptBlock(pt, ct, c)
		return bytes.Equal(pt, data[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: XTS round-trips for arbitrary data and addresses.
func TestXTSRoundTripProperty(t *testing.T) {
	e := NewXTS(0xaaaa, 0x5555)
	f := func(data [64]byte, addr uint32) bool {
		ct := make([]byte, 64)
		pt := make([]byte, 64)
		e.EncryptBlock(ct, data[:], uint64(addr))
		e.DecryptBlock(pt, ct, uint64(addr))
		return bytes.Equal(pt, data[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: decrypting with a wrong VN never yields the plaintext — a
// replayed ciphertext cannot be silently accepted as current data.
func TestCTRWrongVNGarblesProperty(t *testing.T) {
	e := NewCTR(0x77, 0x88)
	f := func(data [64]byte, vn uint16) bool {
		c := Counter{Fmap: 1, Layer: 1, VN: uint32(vn), Block: 1}
		wrong := c
		wrong.VN++
		ct := make([]byte, 64)
		pt := make([]byte, 64)
		e.EncryptBlock(ct, data[:], c)
		e.DecryptBlock(pt, ct, wrong)
		return !bytes.Equal(pt, data[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCTRPadDefinitionPinned pins the stored format, which a round trip
// cannot see: the pad of a block is four crypto/aes encryptions under the
// key secret‖random of the counters Fmap‖Layer‖VN‖(Block≪2|lane), every
// field big-endian and written out here byte by byte; the ciphertext is
// plaintext ⊕ pad, where pad is what Pad returns; and EncryptBlocks(n) is n EncryptBlock calls on
// consecutive Block values. Clone, in-place and a Block index whose shift
// overflows 32 bits are covered by the random draw.
func TestCTRPadDefinitionPinned(t *testing.T) {
	be32 := func(dst []byte, v uint32) {
		dst[0], dst[1], dst[2], dst[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		secret, random := rng.Uint64(), rng.Uint64()
		var key [16]byte
		for i := 0; i < 8; i++ {
			key[i] = byte(secret >> (56 - 8*i))
			key[8+i] = byte(random >> (56 - 8*i))
		}
		ref, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		e := NewCTR(secret, random)
		if trial%2 == 1 {
			e = e.Clone()
		}
		c := Counter{Fmap: rng.Uint32(), Layer: rng.Uint32(), VN: rng.Uint32(), Block: rng.Uint32()}
		const n = 3
		src := make([]byte, n*tensor.BlockBytes)
		rng.Read(src)

		want := make([]byte, len(src))
		for b := 0; b < n; b++ {
			for lane := 0; lane < 4; lane++ {
				var ctr, pad [16]byte
				be32(ctr[0:], c.Fmap)
				be32(ctr[4:], c.Layer)
				be32(ctr[8:], c.VN)
				be32(ctr[12:], (c.Block+uint32(b))<<2|uint32(lane))
				ref.Encrypt(pad[:], ctr[:])
				o := b*tensor.BlockBytes + lane*16
				for i := range pad {
					want[o+i] = src[o+i] ^ pad[i]
				}
			}
		}

		got := make([]byte, len(src))
		e.EncryptBlocks(got, src, c, n)
		if !bytes.Equal(got, want) {
			t.Fatalf("EncryptBlocks(%v, %d) differs from the hand-built pads", c, n)
		}
		for b := 0; b < n; b++ {
			o := b * tensor.BlockBytes
			blk := append([]byte(nil), src[o:o+tensor.BlockBytes]...)
			cb := c
			cb.Block += uint32(b)
			e.EncryptBlock(blk, blk, cb) // in place
			if !bytes.Equal(blk, want[o:o+tensor.BlockBytes]) {
				t.Fatalf("EncryptBlock(%v) differs from the hand-built pad", cb)
			}
			var pad [tensor.BlockBytes]byte
			e.Pad(pad[:], cb)
			for i := range pad {
				if src[o+i]^pad[i] != want[o+i] {
					t.Fatalf("Pad(%v) differs from the hand-built pad at byte %d", cb, i)
				}
			}
		}
	}
}

func TestCTRBatchBadSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a batch longer than its buffers should panic")
		}
	}()
	NewCTR(1, 2).EncryptBlocks(make([]byte, tensor.BlockBytes), make([]byte, tensor.BlockBytes), Counter{}, 2)
}
