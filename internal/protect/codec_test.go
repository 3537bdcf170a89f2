package protect

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"seculator/internal/crypto"
	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/tensor"
)

// ints reads b as the values the block codec stores: big-endian int32s,
// four bytes a value, written out element by element. On whole blocks it is
// the inverse of the codec's encode — a bijection — so a test may keep its
// plaintexts as bytes and drive the value API with them.
func ints(b []byte) []int32 {
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(binary.BigEndian.Uint32(b[4*i:]))
	}
	return v
}

// bytesOf is ints' inverse: vals written out big-endian, element by element.
func bytesOf(vals []int32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint32(b[4*i:], uint32(v))
	}
	return b
}

// refBlock is the plaintext block of up to sixteen values as the codec
// this package replaced built it: encode each value, zero-pad the rest.
func refBlock(vals []int32) (b block) {
	copy(b[:], bytesOf(vals[:min(len(vals), intsPerBlock)]))
	return b
}

// packed is the RowValues of a tile whose plaintext pt packs its rows in
// the order the tile visits them, each row the bytes of its BPR blocks.
func packed(t Tile, pt []byte) RowValues {
	rb := t.BPR * tensor.BlockBytes
	return func(k, y int) []int32 {
		i := (k-t.K0)*(t.Y1-t.Y0) + y - t.Y0
		return ints(pt[i*rb : (i+1)*rb])
	}
}

// readRun is ReadInputRun handing back the first read's plaintext as bytes.
func readRun(sh *SeculatorShard, addr uint64, layer, fmapID uint32, vn int, idx uint32, first bool, n int) []byte {
	v := make([]int32, intsPerBlock)
	sh.ReadInputRun(addr, layer, fmapID, vn, idx, first, n, v)
	return bytesOf(v)
}

// readPartial is ReadPartial handing back the plaintext as bytes.
func readPartial(sh *SeculatorShard, addr uint64, fmapID uint32, vn int, idx uint32) []byte {
	v := make([]int32, intsPerBlock)
	sh.ReadPartial(addr, fmapID, vn, idx, v)
	return bytesOf(v)
}

// readStatic is a first ReadStatic handing back the plaintext as bytes.
func readStatic(sh *SeculatorShard, addr uint64, layer, fmapID uint32, vn int, idx uint32) []byte {
	v := make([]int32, intsPerBlock)
	sh.ReadStatic(addr, layer, fmapID, vn, idx, true, v)
	return bytesOf(v)
}

// TestEncodeDecodeRoundTrip: values survive the codec, and a block whose
// values end early is zero-padded — the encoder writes every byte of its
// block, so a value of an earlier block cannot survive in a reused one.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	vals := []int32{1, -2, 3, -4, 5, 1 << 30, -(1 << 30)}
	var blk block
	EncodeBlock(&blk, BlockOf(vals, 0))
	got := make([]int32, len(vals))
	DecodeBlock(got, &blk)
	if !slices.Equal(got, vals) {
		t.Fatalf("round trip: %v, want %v", got, vals)
	}
	// Multi-block rows pad with zeros, and EncodeBlock scrubs stale bytes
	// left in the destination by a previous block.
	long := make([]int32, 20)
	long[19] = 7
	got = make([]int32, 20)
	EncodeBlock(&blk, BlockOf(long, 0))
	DecodeBlock(BlockOf(got, 0), &blk)
	EncodeBlock(&blk, BlockOf(long, 1))
	DecodeBlock(BlockOf(got, 1), &blk)
	if got[19] != 7 || got[15] != 0 || got[0] != 0 {
		t.Fatal("multi-block round trip failed")
	}
	if blk != refBlock(long[16:]) {
		t.Fatalf("the last block of a 20-value row is %x, want four values and zeros", blk)
	}
	if b := BlockOf(long, 2); len(b) != 0 {
		t.Fatalf("block 2 of a 20-value row holds %d values", len(b))
	}
}

// FuzzBlockCodec holds the fused write and read paths to the composition
// they replaced, on every block-MAC path (mac.Paths): a write is encode,
// XOR the pad, mac.BlockMAC of the plaintext; a read is XOR the pad, then
// decode. A tile of fmaps × rows rows of cols values drawn from data —
// negative ones too, and a partial last block when cols % 16 ≠ 0 — is
// written as its final version (WriteTile), host-written beside it
// (HostWriteTile), stored as weights (HostStoreRow) and written block by block through the serial
// byte API (WriteBlock). Every line, memo entry, pad, MAC and register must
// be the composition's. Then every block is read back: partial reads,
// ReadInputRun runs of n reads decoded into their row — the first block of
// each row clipped to clip values — first and repeat weight reads, and
// serial byte reads. tamper, when not zero, flips a bit of one activation
// line first: its read must decode what the line now holds and fall back
// to hashing its MAC, while every other read takes its line's recorded
// MAC.
func FuzzBlockCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint16, data []byte, clip uint8, tamper uint16) {
		fmaps, rows, cols := 1+int(shape%2), 1+int(shape>>1%3), 1+int(shape>>3%40)
		runLen := 1 + int(shape>>9%4)
		bpr := (cols + intsPerBlock - 1) / intsPerBlock
		blocks := fmaps * rows * bpr
		vals := make([]int32, fmaps*rows*cols)
		for i := range vals {
			if len(data) > 0 {
				var w [4]byte
				for j := range w {
					w[j] = data[(4*i+j)%len(data)]
				}
				vals[i] = int32(binary.BigEndian.Uint32(w[:]))
			}
		}
		row := func(k, y int) []int32 { return vals[(k*rows+y)*cols:][:cols] }
		tile := Tile{Rows: rows, BPR: bpr, K1: fmaps, Y1: rows}
		eng := crypto.NewCTR(7, 9)
		// want walks every block with its line, values, counter and the
		// composition's pad, plaintext and ciphertext under layer.
		want := func(layer uint32, fn func(line uint64, k, y, j int, ctr crypto.Counter, pad, pt, ct block)) {
			for k := 0; k < fmaps; k++ {
				for y := 0; y < rows; y++ {
					for j := 0; j < bpr; j++ {
						ctr := crypto.Counter{Fmap: uint32(k), Layer: layer, VN: 1, Block: uint32(y*bpr + j)}
						var pad, ct block
						eng.Pad(pad[:], ctr)
						pt := refBlock(BlockOf(row(k, y), j))
						for i := range ct {
							ct[i] = pt[i] ^ pad[i]
						}
						fn(uint64((k*rows+y)*bpr+j), k, y, j, ctr, pad, pt, ct)
					}
				}
			}
		}
		macOf := func(ctr crypto.Counter, pt block) mac.Digest {
			return mac.BlockMAC(mac.BlockRef{Secret: 7, Layer: ctr.Layer, Fmap: ctr.Fmap, VN: ctr.VN, Index: ctr.Block}, pt[:])
		}
		for _, p := range mac.Paths() {
			func() {
				defer mac.UsePath(p)()
				what := fmt.Sprintf("%s, %d×%d rows of %d values", p.Name, fmaps, rows, cols)
				d, err := mem.New(mem.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				d.Reserve(uint64(2 * blocks))
				m := NewSeculatorMemory(d, 7, 9)
				m.ReserveKeystreams(uint64(2 * blocks))
				m.BeginLayer(1)
				sh := m.Own()
				sh.WriteTile(tile, 1, true, row)
				host := tile
				host.Base = uint64(blocks)
				golden := m.Shard().HostWriteTile(host, 1, 1, row)
				var wantW mac.Digest
				want(1, func(line uint64, _, _, _ int, ctr crypto.Counter, pad, pt, ct block) {
					dg := macOf(ctr, pt)
					wantW = wantW.Xor(dg)
					if e := m.keys[line]; !slices.Equal(d.Peek(line), ct[:]) || e.ct != ct || e.pad != pad || !e.hashed || e.mac != dg {
						t.Fatalf("%s: WriteTile line %d or its memo entry is not encode, XOR the pad, BlockMAC", what, line)
					}
					h := uint64(blocks) + line
					if e := m.keys[h]; !slices.Equal(d.Peek(h), ct[:]) || e.ct != ct || e.pad != pad || !e.hashed || e.mac != dg {
						t.Fatalf("%s: HostWriteTile line %d or its memo entry is not encode, XOR the pad, BlockMAC", what, h)
					}
				})
				if got := m.RegisterSnapshot(); got.W != wantW || golden != wantW {
					t.Fatalf("%s: MAC_W %v, host golden %v, want the fold of BlockMAC %v", what, got.W, golden, wantW)
				}

				// The serial byte API writes the same lines and folds the same
				// MACs through the same core.
				sd, _ := mem.New(mem.DefaultConfig())
				sm := NewSeculatorMemory(sd, 7, 9)
				sm.BeginLayer(1)
				want(1, func(line uint64, k, _, _ int, ctr crypto.Counter, _, pt, ct block) {
					sm.WriteBlock(line, uint32(k), 1, ctr.Block, pt[:])
					if !slices.Equal(sd.Peek(line), ct[:]) {
						t.Fatalf("%s: WriteBlock stored line %d other than the composition's", what, line)
					}
				})
				if got := sm.RegisterSnapshot().W; got != wantW {
					t.Fatalf("%s: WriteBlock's MAC_W %v, want %v", what, got, wantW)
				}

				// Partial reads decode what the writes stored.
				got := make([]int32, len(vals))
				gotRow := func(k, y int) []int32 { return got[(k*rows+y)*cols:][:cols] }
				want(1, func(line uint64, k, y, j int, ctr crypto.Counter, _, _, _ block) {
					sh.ReadPartial(line, uint32(k), 1, ctr.Block, BlockOf(gotRow(k, y), j))
				})
				if !slices.Equal(got, vals) || m.RegisterSnapshot().R != wantW {
					t.Fatalf("%s: partial reads decoded %v and folded %v, want %v and MAC_W", what, got, m.RegisterSnapshot().R, vals)
				}

				bad := -1
				if tamper != 0 {
					bad = int(tamper>>8) % blocks
					d.Tamper(uint64(bad), int(tamper)&63, 1<<(tamper>>6&3))
					sd.Tamper(uint64(bad), int(tamper)&63, 1<<(tamper>>6&3))
				}
				m.BeginLayer(2)
				sm.BeginLayer(2)
				clear(got)
				before := m.Hashing()
				var wantFR mac.Digest
				want(1, func(line uint64, k, y, j int, ctr crypto.Counter, pad, _, _ block) {
					dst := BlockOf(gotRow(k, y), j)
					if j == 0 {
						dst = dst[:min(len(dst), int(clip%(intsPerBlock+1)))]
					}
					sh.ReadInputRun(line, 1, uint32(k), 1, ctr.Block, true, runLen, dst)
					var now block // XOR the pad, then decode
					for i := range now {
						now[i] = d.Peek(line)[i] ^ pad[i]
					}
					wantFR = wantFR.Xor(macOf(ctr, now))
					if !slices.Equal(dst, ints(now[:4*len(dst)])) {
						t.Fatalf("%s: line %d decoded %v, want %v", what, line, dst, ints(now[:4*len(dst)]))
					}
					if b := sm.ReadInput(line, 1, uint32(k), 1, ctr.Block, true); block(b) != now {
						t.Fatalf("%s: ReadInput's bytes of line %d are not ct ⊕ pad", what, line)
					}
				})
				for k := 0; k < fmaps; k++ {
					for y := 0; y < rows; y++ {
						if n := min(cols, int(clip%(intsPerBlock+1))); slices.ContainsFunc(gotRow(k, y)[n:min(cols, intsPerBlock)], func(v int32) bool { return v != 0 }) {
							t.Fatalf("%s: a read clipped to %d values decoded past them", what, n)
						}
					}
				}
				regs := m.RegisterSnapshot()
				wantIR := wantFR
				if runLen%2 == 0 {
					wantIR = mac.Digest{}
				}
				if regs.FR != wantFR || regs.IR != wantIR || regs.IRFolds != uint64(blocks*runLen) || sm.RegisterSnapshot().FR != wantFR {
					t.Fatalf("%s: FR %v, IR %v over %d folds; want the fold of BlockMAC of what was fetched", what, regs.FR, regs.IR, regs.IRFolds)
				}
				hashed, reused := 0, blocks
				if bad >= 0 {
					hashed, reused = 1, blocks-1
				}
				if h := m.Hashing(); h.Loop-before.Loop != hashed || h.Reused-before.Reused != reused {
					t.Fatalf("%s: reads hashed %d and reused %d MACs, want %d and %d", what, h.Loop-before.Loop, h.Reused-before.Reused, hashed, reused)
				}
				if err := sm.VerifyPreviousLayer(mac.Digest{}); (err == nil) != (bad < 0) {
					t.Fatalf("%s: Equation 1 on the serial memory says %v with line %d tampered", what, err, bad)
				}

				// Weights: the host store seals what HostWriteTile does, under
				// the weight counters, a first read of it decodes the values and owes
				// nothing, and a repeat compares instead of decoding.
				base := uint64(blocks)
				for k := 0; k < fmaps; k++ {
					for y := 0; y < rows; y++ {
						sh.HostStoreRow(base+uint64((k*rows+y)*bpr), 0x8001, uint32(k), 1, uint32(y*bpr), bpr, row(k, y))
					}
				}
				clear(got)
				want(0x8001, func(line uint64, k, y, j int, ctr crypto.Counter, _, _, ct block) {
					if !slices.Equal(d.Peek(base+line), ct[:]) {
						t.Fatalf("%s: HostStoreRow stored weight line %d other than the composition's", what, line)
					}
					dst := BlockOf(gotRow(k, y), j)
					if !sh.ReadStatic(base+line, 0x8001, uint32(k), 1, ctr.Block, true, dst) ||
						!sh.ReadStatic(base+line, 0x8001, uint32(k), 1, ctr.Block, false, dst) {
						t.Fatalf("%s: a weight read of line %d reported a difference", what, line)
					}
					if len(dst) > 0 {
						dst[0]++
						if sh.ReadStatic(base+line, 0x8001, uint32(k), 1, ctr.Block, false, dst) {
							t.Fatalf("%s: a repeat weight read of line %d matched other values", what, line)
						}
						dst[0]--
					}
				})
				if !slices.Equal(got, vals) || m.WeightDigest() != (mac.Digest{}) {
					t.Fatalf("%s: first weight reads decoded %v and folded %v, want %v and nothing", what, got, m.WeightDigest(), vals)
				}
			}()
		}
	})
}

// benchTile is the tile the per-block benchmarks move: 8 fmaps of 4 rows of
// 2 blocks (32 values a row), 64 blocks from line 0.
var benchTile = Tile{Rows: 4, BPR: 2, K1: 8, Y1: 4}

func benchMemory(b *testing.B) (*SeculatorMemory, RowValues) {
	d, err := mem.New(mem.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	n := benchTile.Blocks()
	d.Reserve(uint64(n))
	m := NewSeculatorMemory(d, 7, 9)
	m.ReserveKeystreams(uint64(n))
	m.BeginLayer(1)
	vals := make([]int32, n*intsPerBlock)
	for i := range vals {
		vals[i] = int32(i*2654435761) >> 3
	}
	cols := benchTile.BPR * intsPerBlock
	return m, func(k, y int) []int32 { return vals[(k*benchTile.Rows+y)*cols:][:cols] }
}

// BenchmarkTileWrite prices the fused write per block: "final" is the layer
// loop's ofmap write of a final version — pad computed into the memo entry,
// the values encoded straight into the MAC lane and sealed in the same pass,
// the line stored, the MAC hashed in a batch, recorded and folded.
func BenchmarkTileWrite(b *testing.B) {
	m, rows := benchMemory(b)
	n := benchTile.Blocks()
	b.Run("final", func(b *testing.B) {
		sh := m.Own()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sh.WriteTile(benchTile, 1, true, rows)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/block")
	})
}

// BenchmarkReadDecode prices the fused read per block: a first ReadInputRun
// of a line a final write stored, decoded straight into the caller's
// values. "reused" is a clean run's read — pad and MAC taken from the memo,
// so no plaintext byte is formed; "hashed" reads lines no write recorded a
// MAC for, so each read hashes one, its plaintext formed in the MAC lane.
func BenchmarkReadDecode(b *testing.B) {
	for _, arm := range []string{"reused", "hashed"} {
		b.Run(arm, func(b *testing.B) {
			m, rows := benchMemory(b)
			sh := m.Own()
			sh.WriteTile(benchTile, 1, arm == "reused", rows)
			m.BeginLayer(2)
			n := benchTile.Blocks()
			dst := make([]int32, intsPerBlock)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for line := 0; line < n; line++ {
					k, blk := line/(benchTile.Rows*benchTile.BPR), line%(benchTile.Rows*benchTile.BPR)
					sh.ReadInputRun(uint64(line), 1, uint32(k), 1, uint32(blk), true, 1, dst)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/block")
		})
	}
}
