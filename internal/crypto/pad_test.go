package crypto

import (
	"bytes"
	"crypto/aes"
	"encoding/binary"
	"testing"

	"seculator/internal/tensor"
)

// haveAESNI records whether this build and CPU run the AES-NI kernel, so a
// test that switches useAESNI can restore it.
var haveAESNI = useAESNI

// engines returns NewCTR's engines of one key: the portable path's, which
// pads through crypto/aes, and — where this build and CPU have AES-NI —
// the kernel's.
func engines(secret, random uint64) []*CTREngine {
	defer func() { useAESNI = haveAESNI }()
	useAESNI = false
	es := []*CTREngine{NewCTR(secret, random)}
	if haveAESNI {
		useAESNI = true
		es = append(es, NewCTR(secret, random))
	}
	return es
}

// TestCTRShortPadPanicsUntouched: Pad refuses a destination shorter than a
// block before it writes anything, on each path — the kernel stores a
// whole block, so a late bounds check would come after it wrote past the
// slice.
func TestCTRShortPadPanicsUntouched(t *testing.T) {
	for _, e := range engines(1, 2) {
		kernel := e.block == nil
		buf := bytes.Repeat([]byte{0xa5}, tensor.BlockBytes)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("kernel %v: Pad into %d bytes did not panic", kernel, tensor.BlockBytes-1)
				}
			}()
			e.Pad(buf[:tensor.BlockBytes-1], Counter{VN: 1})
		}()
		if !bytes.Equal(buf, bytes.Repeat([]byte{0xa5}, tensor.BlockBytes)) {
			t.Fatalf("kernel %v: the refused Pad wrote %x", kernel, buf)
		}
	}
}

// FuzzCTRPad holds the pad to its definition for any key and counter, the
// Block values whose ≪2 wraps above 2³⁰ included: four crypto/aes
// encryptions of Fmap‖Layer‖VN‖(Block≪2|lane), the portable engine's pad,
// and, where this build and CPU have it, the AES-NI kernel's and its
// clone's.
func FuzzCTRPad(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint32(0), uint32(0), uint32(0), uint32(0))
	f.Add(uint64(0xfeed), uint64(0xcafe), uint32(1), uint32(2), uint32(3), uint32(1<<30))
	f.Add(^uint64(0), ^uint64(0), ^uint32(0), ^uint32(0), ^uint32(0), ^uint32(0))
	f.Fuzz(func(t *testing.T, secret, random uint64, fmap, layer, vn, blk uint32) {
		var key [16]byte
		binary.BigEndian.PutUint64(key[0:8], secret)
		binary.BigEndian.PutUint64(key[8:16], random)
		ref, err := aes.NewCipher(key[:])
		if err != nil {
			t.Fatal(err)
		}
		c := Counter{Fmap: fmap, Layer: layer, VN: vn, Block: blk}
		var want [tensor.BlockBytes]byte
		for lane := 0; lane < 4; lane++ {
			var ctr [16]byte
			binary.BigEndian.PutUint32(ctr[0:], fmap)
			binary.BigEndian.PutUint32(ctr[4:], layer)
			binary.BigEndian.PutUint32(ctr[8:], vn)
			binary.BigEndian.PutUint32(ctr[12:], blk<<2|uint32(lane))
			ref.Encrypt(want[lane*16:], ctr[:])
		}
		es := engines(secret, random)
		for i, e := range append(es, es[len(es)-1].Clone()) {
			var got [tensor.BlockBytes]byte
			e.Pad(got[:], c)
			if got != want {
				t.Fatalf("engine %d (kernel %v): Pad(%v) = %x, want %x", i, e.block == nil, c, got, want)
			}
		}
	})
}
