// Package crypto implements the memory-encryption engines of the simulated
// designs (Section 6.3), functionally and with a pipeline latency model.
//
// Seculator, GuardNN and the SGX-like Secure design use AES counter-mode:
// a 64-byte block is XORed with a one-time pad obtained by encrypting a
// per-block counter. Following the paper, the 128-bit key concatenates the
// accelerator's embedded secret ID with a boot-time random number, the
// major counter concatenates the fmap ID and layer ID, and the minor
// counter concatenates the block's version number and its index within the
// fmap — so the same plaintext at the same address encrypts differently on
// every version. A block's four AES lanes are the paper's four parallel
// engines: where the CPU has AES-NI they are encrypted in one call that
// applies each round to all four lanes (aesni_amd64.s), from round keys
// expanded once per engine; elsewhere, and under the purego build tag,
// crypto/aes encrypts them one after another. The pads are bit-identical.
//
// TNPU uses AES-XTS (Table 5), which derives its tweak from the block
// address alone; we implement the standard XEX construction with GF(2^128)
// tweak doubling over the four 16-byte lanes of a 64-byte block.
package crypto

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"seculator/internal/sim"
	"seculator/internal/tensor"
)

// Counter is the per-block counter of the paper's CTR construction.
type Counter struct {
	Fmap  uint32 // fmap ID            (major counter, high half)
	Layer uint32 // layer ID           (major counter, low half)
	VN    uint32 // version number     (minor counter, high half)
	Block uint32 // block index in the fmap (minor counter, low half)
}

// String implements fmt.Stringer.
func (c Counter) String() string {
	return fmt.Sprintf("ctr{f=%d l=%d vn=%d b=%d}", c.Fmap, c.Layer, c.VN, c.Block)
}

// CTREngine is the counter-mode memory encryption engine. Four parallel
// AES-128 lanes produce the 64-byte one-time pad for a block.
//
// An engine is NOT safe for concurrent use: the per-block pad and counter
// buffers are reusable scratch, which keeps the encrypt/decrypt hot path
// allocation-free. The experiment engine upholds this by construction —
// every simulation, functional memory and secure executor owns a private
// engine (the engine-per-worker contract; see DESIGN.md §8).
type CTREngine struct {
	// block is the portable path's cipher, nil when the AES-NI kernel
	// (aesni_amd64.s) pads from rk, the round keys NewCTR expanded.
	block cipher.Block
	rk    roundKeys

	// Scratch reused across EncryptBlock/DecryptBlock calls. Stack arrays
	// would escape through the cipher.Block interface call and allocate
	// per block; engine-owned buffers do not.
	padBuf [tensor.BlockBytes]byte
	ctrBuf [tensor.BlockBytes]byte // the four lane counters
}

// roundKeys is an AES-128 encryption key schedule: eleven 16-byte round keys.
type roundKeys [11 * 16]byte

// NewCTR builds the engine with the hardware-specific key: the
// accelerator's embedded secret ID concatenated with a random number drawn
// before execution, so the key changes every run. Where the CPU has AES-NI
// the engine pads with the four-lane kernel, else with crypto/aes.
func NewCTR(secretID, bootRandom uint64) *CTREngine {
	var key [16]byte
	binary.BigEndian.PutUint64(key[0:8], secretID)
	binary.BigEndian.PutUint64(key[8:16], bootRandom)
	e := &CTREngine{}
	if useAESNI {
		expandKey128(&key, &e.rk)
		return e
	}
	b, err := aes.NewCipher(key[:])
	if err != nil {
		// aes.NewCipher only fails on bad key sizes; 16 is always valid.
		panic(fmt.Sprintf("crypto: %v", err))
	}
	e.block = b
	return e
}

// Clone returns an engine with the same key schedule — the immutable
// cipher.Block, or a copy of the round keys, never expanded again — and
// private scratch buffers, so clones of one engine may run on different
// goroutines at once and produce identical pads: each shard of a secure
// executor's memory pads with its own clone (DESIGN.md §8, §10).
func (e *CTREngine) Clone() *CTREngine {
	return &CTREngine{block: e.block, rk: e.rk}
}

// Pad computes the 64-byte one-time pad for the counter into dst: four AES
// blocks, one per 16-byte lane, distinguished by a 2-bit lane index. It
// panics, having written nothing, when dst is shorter than 64 bytes.
func (e *CTREngine) Pad(dst []byte, c Counter) {
	if len(dst) < tensor.BlockBytes {
		panic(fmt.Sprintf("crypto: CTR pad needs %d bytes, got %d", tensor.BlockBytes, len(dst)))
	}
	in := &e.ctrBuf
	for lane := 0; lane < 4; lane++ {
		l := in[lane*16 : (lane+1)*16]
		binary.BigEndian.PutUint32(l[0:4], c.Fmap)
		binary.BigEndian.PutUint32(l[4:8], c.Layer)
		binary.BigEndian.PutUint32(l[8:12], c.VN)
		binary.BigEndian.PutUint32(l[12:16], c.Block<<2|uint32(lane))
	}
	if e.block == nil {
		encrypt4(&e.rk, (*[tensor.BlockBytes]byte)(dst), in)
		return
	}
	for lane := 0; lane < 4; lane++ {
		e.block.Encrypt(dst[lane*16:(lane+1)*16], in[lane*16:(lane+1)*16])
	}
}

// EncryptBlock encrypts one 64-byte block: dst = src XOR pad(counter).
// dst and src must both be 64 bytes; they may alias.
func (e *CTREngine) EncryptBlock(dst, src []byte, c Counter) {
	if len(dst) != tensor.BlockBytes || len(src) != tensor.BlockBytes {
		panic(fmt.Sprintf("crypto: CTR block must be %d bytes, got dst=%d src=%d",
			tensor.BlockBytes, len(dst), len(src)))
	}
	e.Pad(e.padBuf[:], c)
	// Eight 64-bit words, not 64 bytes (XOR has no byte order).
	le := binary.LittleEndian
	for i := 0; i < tensor.BlockBytes; i += 8 {
		le.PutUint64(dst[i:], le.Uint64(src[i:])^le.Uint64(e.padBuf[i:]))
	}
}

// DecryptBlock decrypts one block; CTR decryption is encryption.
func (e *CTREngine) DecryptBlock(dst, src []byte, c Counter) {
	e.EncryptBlock(dst, src, c)
}

// EncryptBlocks encrypts n consecutive blocks of one fmap row — counters
// c, c+1, … in the Block field — from src into dst, both caller-owned and
// at least n*64 bytes. The batch entry point keeps row-granular callers out
// of the per-block call overhead without any hidden staging.
func (e *CTREngine) EncryptBlocks(dst, src []byte, c Counter, n int) {
	if len(dst) < n*tensor.BlockBytes || len(src) < n*tensor.BlockBytes {
		panic(fmt.Sprintf("crypto: CTR batch of %d blocks needs %d bytes, got dst=%d src=%d",
			n, n*tensor.BlockBytes, len(dst), len(src)))
	}
	for b := 0; b < n; b++ {
		o := b * tensor.BlockBytes
		e.EncryptBlock(dst[o:o+tensor.BlockBytes], src[o:o+tensor.BlockBytes], c)
		c.Block++
	}
}

// XTSEngine is the AES-XTS-style engine TNPU uses: the tweak is the block's
// address, independent of any version number, so freshness must come from
// elsewhere (TNPU's tensor table).
//
// Like CTREngine, an XTSEngine is NOT safe for concurrent use: the tweak
// and lane buffers are engine-owned scratch so the per-block path never
// allocates. Give each goroutine its own engine.
type XTSEngine struct {
	data  cipher.Block // K1: data encryption
	tweak cipher.Block // K2: tweak encryption

	seedBuf, twBuf, laneBuf [16]byte // per-block scratch (see CTREngine)
}

// NewXTS builds the two-key XTS engine.
func NewXTS(key1, key2 uint64) *XTSEngine {
	var k1, k2 [16]byte
	binary.BigEndian.PutUint64(k1[0:8], key1)
	binary.BigEndian.PutUint64(k1[8:16], ^key1)
	binary.BigEndian.PutUint64(k2[0:8], key2)
	binary.BigEndian.PutUint64(k2[8:16], ^key2)
	b1, err := aes.NewCipher(k1[:])
	if err != nil {
		panic(fmt.Sprintf("crypto: %v", err))
	}
	b2, err := aes.NewCipher(k2[:])
	if err != nil {
		panic(fmt.Sprintf("crypto: %v", err))
	}
	return &XTSEngine{data: b1, tweak: b2}
}

// gfDouble multiplies a 16-byte tweak by alpha in GF(2^128) with the XTS
// primitive polynomial x^128 + x^7 + x^2 + x + 1 (little-endian carry).
func gfDouble(t *[16]byte) {
	carry := t[15] >> 7
	for i := 15; i > 0; i-- {
		t[i] = t[i]<<1 | t[i-1]>>7
	}
	t[0] <<= 1
	if carry != 0 {
		t[0] ^= 0x87
	}
}

// EncryptBlock encrypts a 64-byte block whose global address (in block
// units) is addr: each 16-byte lane j uses tweak E_K2(addr) * alpha^j.
func (e *XTSEngine) EncryptBlock(dst, src []byte, addr uint64) {
	e.process(dst, src, addr, true)
}

// DecryptBlock reverses EncryptBlock.
func (e *XTSEngine) DecryptBlock(dst, src []byte, addr uint64) {
	e.process(dst, src, addr, false)
}

func (e *XTSEngine) process(dst, src []byte, addr uint64, encrypt bool) {
	if len(dst) != tensor.BlockBytes || len(src) != tensor.BlockBytes {
		panic(fmt.Sprintf("crypto: XTS block must be %d bytes, got dst=%d src=%d",
			tensor.BlockBytes, len(dst), len(src)))
	}
	seed, tw, buf := &e.seedBuf, &e.twBuf, &e.laneBuf
	// seed[0:8] is never written, so it stays zero across reuses.
	binary.BigEndian.PutUint64(seed[8:16], addr)
	e.tweak.Encrypt(tw[:], seed[:])
	for lane := 0; lane < 4; lane++ {
		o := lane * 16
		for i := 0; i < 16; i++ {
			buf[i] = src[o+i] ^ tw[i]
		}
		if encrypt {
			e.data.Encrypt(buf[:], buf[:])
		} else {
			e.data.Decrypt(buf[:], buf[:])
		}
		for i := 0; i < 16; i++ {
			dst[o+i] = buf[i] ^ tw[i]
		}
		gfDouble(tw)
	}
}

// LatencyModel describes a pipelined crypto unit: the first block pays the
// full pipeline depth, subsequent back-to-back blocks are hidden behind the
// pipeline and cost only the issue interval.
type LatencyModel struct {
	PipelineDepth sim.Cycles // latency of one block through the unit
	IssueInterval sim.Cycles // cycles between successive block completions
}

// Total returns the cycles to process n back-to-back blocks.
func (l LatencyModel) Total(n int) sim.Cycles {
	if n <= 0 {
		return 0
	}
	return l.PipelineDepth.Add(l.IssueInterval * sim.Cycles(n-1))
}

// Default latencies for the synthesized units (Table 6 context): a 40-cycle
// AES-128 pipeline issuing one 64-byte block per cycle group of four lanes,
// and an 80-cycle SHA-256 pipeline (64 rounds + ingest).
var (
	AESLatency = LatencyModel{PipelineDepth: 40, IssueInterval: 1}
	SHALatency = LatencyModel{PipelineDepth: 80, IssueInterval: 1}
)
