package protect

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"unsafe"

	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/sim"
	"seculator/internal/tensor"
)

// rowTile is the tile of k consecutive blocks of fmap f — block indices
// idx, idx+1, … at lines addr, addr+1, … — as one row of k blocks when idx
// is a multiple of k, else as k rows of one. Its fmap holds no other row it
// could place, so Rows is 0 and Base is addr less the first row's offset.
func rowTile(addr uint64, f, idx uint32, k int) Tile {
	bpr := k
	if int(idx)%k != 0 {
		bpr = 1
	}
	y := int(idx) / bpr
	return Tile{Base: addr - uint64(idx), BPR: bpr, K0: int(f), K1: int(f) + 1, Y0: y, Y1: y + k/bpr}
}

// tilePlaintext packs a tile's rows with index-unique blocks.
func tilePlaintext(t Tile) []byte {
	pt := make([]byte, 0, t.Blocks()*tensor.BlockBytes)
	for i := 0; i < t.Blocks(); i++ {
		pt = append(pt, shardPattern(i+1)...)
	}
	return pt
}

// TestTileCallsMatchRows: a tile call stores, counts, records and folds
// exactly what the same rows do as one-row tiles, one call each — the
// tile's MACs are only hashed in batches across its rows. The tiles cover
// batches that fill exactly, ones that end part-full on either side of the
// 16-lane kernel's threshold, and rows of several blocks. A non-final tile
// of one-block rows is also the serial WriteBlock, block by block.
func TestTileCallsMatchRows(t *testing.T) {
	for _, tile := range []Tile{
		{Base: 0, Rows: 4, BPR: 1, K0: 0, K1: 4, Y0: 0, Y1: 4},  // 16: one full batch
		{Base: 3, Rows: 5, BPR: 1, K0: 1, K1: 6, Y0: 0, Y1: 5},  // 25: full, then 9 lanes
		{Base: 0, Rows: 7, BPR: 1, K0: 2, K1: 5, Y0: 2, Y1: 7},  // 15: one part-full batch
		{Base: 8, Rows: 3, BPR: 3, K0: 0, K1: 3, Y0: 1, Y1: 3},  // 18 in rows of 3: full, then 2
		{Base: 0, Rows: 1, BPR: 20, K0: 0, K1: 2, Y0: 0, Y1: 1}, // 40 in rows of 20: two full, then 8
	} {
		pt := tilePlaintext(tile)
		rb := tile.BPR * tensor.BlockBytes
		lines := tile.Base + uint64(tile.K1*tile.Rows*tile.BPR)
		build := func() *SeculatorMemory {
			d := shardTestDRAM(t)
			d.Reserve(lines)
			m := NewSeculatorMemory(d, 3, 4)
			m.ReserveKeystreams(lines)
			m.BeginLayer(1)
			return m
		}
		// rows calls fn with each row of the tile as a one-row tile.
		rows := func(fn func(addr uint64, k, y int, sub Tile, row []byte)) {
			o := 0
			for k := tile.K0; k < tile.K1; k++ {
				for y := tile.Y0; y < tile.Y1; y++ {
					sub := tile
					sub.K0, sub.K1, sub.Y0, sub.Y1 = k, k+1, y, y+1
					fn(tile.Base+uint64((k*tile.Rows+y)*tile.BPR), k, y, sub, pt[o:o+rb])
					o += rb
				}
			}
		}
		// A final or host write records each line's MAC in its memo entry.
		recorded := func(name string, m *SeculatorMemory, layer uint32, vn int) {
			rows(func(addr uint64, k, y int, _ Tile, row []byte) {
				for b := 0; b < tile.BPR; b++ {
					ref := m.ref(layer, uint32(k), vn, uint32(y*tile.BPR+b))
					if e := m.keys[addr+uint64(b)]; !e.hashed || e.mac != mac.BlockMAC(ref, row[b*tensor.BlockBytes:(b+1)*tensor.BlockBytes]) {
						t.Fatalf("%+v %s: line %d's memo entry does not record its block's MAC", tile, name, addr+uint64(b))
					}
				}
			})
		}
		// compare runs the tile call and the row calls on a fresh memory each.
		compare := func(name string, tiled, rowed func(m *SeculatorMemory, sh *SeculatorShard) mac.Digest) {
			a, b := build(), build()
			sa, sb := a.Shard(), b.Shard()
			ga, gb := tiled(a, sa), rowed(b, sb)
			a.Merge(sa)
			b.Merge(sb)
			if ga != gb {
				t.Fatalf("%+v %s: golden %x tiled, %x row by row", tile, name, ga, gb)
			}
			if ra, rb := a.RegisterSnapshot(), b.RegisterSnapshot(); ra != rb {
				t.Fatalf("%+v %s: registers %+v tiled, %+v row by row", tile, name, ra, rb)
			}
			if a.BlockCounts() != b.BlockCounts() || a.Hashing() != b.Hashing() || a.Keystreams() != b.Keystreams() {
				t.Fatalf("%+v %s: tallies %+v %+v %+v tiled, %+v %+v %+v row by row", tile, name,
					a.BlockCounts(), a.Hashing(), a.Keystreams(), b.BlockCounts(), b.Hashing(), b.Keystreams())
			}
			if ta, tb := a.dram.Traffic(), b.dram.Traffic(); ta != tb {
				t.Fatalf("%+v %s: traffic %+v tiled, %+v row by row", tile, name, ta, tb)
			}
			for l := uint64(0); l < lines; l++ {
				if !bytes.Equal(a.dram.Peek(l), b.dram.Peek(l)) || a.keys[l] != b.keys[l] {
					t.Fatalf("%+v %s: line %d or its memo entry differs", tile, name, l)
				}
			}
			if n := len(sa.rowh.Sum()); n != 0 {
				t.Fatalf("%+v %s: the tile call left %d MACs queued", tile, name, n)
			}
		}
		vals := packed(tile, pt)
		for _, final := range []bool{false, true} {
			compare(map[bool]string{false: "WriteTile", true: "WriteTile final"}[final],
				func(m *SeculatorMemory, sh *SeculatorShard) mac.Digest {
					sh.WriteTile(tile, 2, final, vals)
					if final {
						recorded("WriteTile final", m, 1, 2)
					}
					return mac.Digest{}
				},
				func(_ *SeculatorMemory, sh *SeculatorShard) mac.Digest {
					rows(func(_ uint64, _, _ int, sub Tile, row []byte) {
						sh.WriteTile(sub, 2, final, packed(sub, row))
					})
					return mac.Digest{}
				})
		}
		if tile.BPR == 1 {
			compare("WriteTile against WriteBlock",
				func(_ *SeculatorMemory, sh *SeculatorShard) mac.Digest {
					sh.WriteTile(tile, 2, false, vals)
					return mac.Digest{}
				},
				func(m *SeculatorMemory, _ *SeculatorShard) mac.Digest {
					rows(func(addr uint64, k, y int, _ Tile, row []byte) {
						m.WriteBlock(addr, uint32(k), 2, uint32(y), row)
					})
					return mac.Digest{}
				})
		}
		compare("HostWriteTile",
			func(m *SeculatorMemory, sh *SeculatorShard) mac.Digest {
				g := sh.HostWriteTile(tile, 0, 1, vals)
				recorded("HostWriteTile", m, 0, 1)
				return g
			},
			func(_ *SeculatorMemory, sh *SeculatorShard) mac.Digest {
				var g mac.Digest
				rows(func(_ uint64, _, _ int, sub Tile, row []byte) {
					g = g.Xor(sh.HostWriteTile(sub, 0, 1, packed(sub, row)))
				})
				return g
			})
	}
}

// TestTileNeedsItsBlocks: a tile call given a row of more values than the
// row's blocks hold — first, in the middle or last — panics before it stores
// or hashes anything: no line stored, no memo entry touched, no MAC queued
// and nothing counted.
func TestTileNeedsItsBlocks(t *testing.T) {
	tile := Tile{Rows: 2, BPR: 1, K0: 0, K1: 2, Y0: 0, Y1: 2}
	for long, n := range []int{intsPerBlock + 1, 2 * intsPerBlock, 3 * intsPerBlock, intsPerBlock + 1} {
		m, d := newSecMem(t)
		m.ReserveKeystreams(uint64(tile.Blocks()))
		m.BeginLayer(1)
		sh := m.Shard()
		rows := func(k, y int) []int32 {
			if k*2+y == long {
				return make([]int32, n)
			}
			return make([]int32, intsPerBlock)
		}
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			sh.WriteTile(tile, 1, false, rows)
			return false
		}()
		touched := 0
		for a := uint64(0); a < uint64(tile.Blocks()); a++ {
			if e := m.entry(a); e != nil && *e != (keystream{}) {
				touched++
			}
		}
		if !panicked || d.Lines() != 0 || touched != 0 || *sh.n != (BlockCounts{}) || len(sh.rowh.Sum()) != 0 {
			t.Fatalf("row %d of %d values in a one-block row: panicked %v, %d lines stored, %d memo entries touched, counts %+v",
				long, n, panicked, d.Lines(), touched, *sh.n)
		}
	}
}

// hasherBytes is the memory of a hasher value: its lanes, digests and
// batch count (and the portable state's pointer, not what it points to).
func hasherBytes(h *mac.RowHasher) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(h)), unsafe.Sizeof(*h))
}

// holdsPlaintext reports whether any aligned 8-byte word of any block of
// pt occurs anywhere in raw.
func holdsPlaintext(raw, pt []byte) bool {
	for o := 0; o+8 <= len(pt); o += 8 {
		if bytes.Contains(raw, pt[o:o+8]) {
			return true
		}
	}
	return false
}

// TestRecycleScrubsLanes: a tile write leaves every lane of the writing
// shard's hasher holding a block of its plaintext; the shard's Recycle —
// and, for the memory's own shard, the memory's — leaves no word of that
// plaintext anywhere in the hasher. The memory's Recycle also zeroes the
// block, pad and hashing tallies its own shard made.
func TestRecycleScrubsLanes(t *testing.T) {
	tile := Tile{Rows: 5, BPR: 1, K0: 0, K1: 5, Y0: 0, Y1: 5} // 25 blocks: every lane written
	pt := tilePlaintext(tile)
	for _, how := range []string{"shard", "memory"} {
		m, d := newSecMem(t)
		d.Reserve(uint64(tile.Blocks()))
		m.BeginLayer(1)
		sh := m.Shard()
		if how == "memory" {
			sh = m.Own()
		}
		sh.WriteTile(tile, 1, true, packed(tile, pt))
		for lane := 0; lane < mac.LaneCount; lane++ {
			// Lane i holds block 16+i, or block i where the last batch
			// did not reach it.
			blk := lane + mac.LaneCount
			if blk >= tile.Blocks() {
				blk = lane
			}
			if !bytes.Contains(hasherBytes(&sh.rowh), pt[blk*tensor.BlockBytes:(blk+1)*tensor.BlockBytes]) {
				t.Fatalf("%s: lane %d does not hold block %d: the check below sees nothing", how, lane, blk)
			}
		}
		m.Merge(sh)
		if m.BlockCounts().OfmapWrites != tile.Blocks() || m.Keystreams().Computed != tile.Blocks() || m.Hashing().Loop != tile.Blocks() {
			t.Fatalf("%s: tallies %+v %+v %+v before Recycle: the check below sees nothing", how, m.BlockCounts(), m.Keystreams(), m.Hashing())
		}
		if how == "shard" {
			sh.Recycle()
		} else if !m.Recycle(d, 0xabc, 0xdef) {
			t.Fatal("Recycle refused the memory's own identity")
		} else if m.BlockCounts() != (BlockCounts{}) || m.Keystreams() != (Keystreams{}) || m.Hashing() != (Hashing{}) {
			t.Fatalf("after the memory's Recycle its tallies are %+v %+v %+v", m.BlockCounts(), m.Keystreams(), m.Hashing())
		}
		if holdsPlaintext(hasherBytes(&sh.rowh), pt) {
			t.Fatalf("after the %s's Recycle the hasher still holds plaintext", how)
		}
		if sh.recs != [mac.LaneCount]*keystream{} {
			t.Fatalf("after the %s's Recycle the lanes still point at memo entries", how)
		}
	}
}

// TestRecycleScrubsEveryPlaintext: every path that forms plaintext bytes in
// a shard — a tile write's lanes, a partial read's MAC lane, a re-read that
// changed, a first weight read of other bytes than the host's (its MAC lane
// and the host's), the weight host store's plaintext line, and the serial
// byte API's write and read — leaves it only in the shard's own memory, and
// the shard's Recycle (the memory's, for its own shard) leaves no word of
// any of it there. Each block is index-unique, so a surviving word names
// the path that left it.
func TestRecycleScrubsEveryPlaintext(t *testing.T) {
	for _, how := range []string{"shard", "memory"} {
		const lines = 8
		m, d := newSecMem(t)
		d.Reserve(lines)
		m.ReserveKeystreams(lines)
		m.BeginLayer(1)
		sh := m.Shard()
		if how == "memory" {
			sh = m.Own()
		}
		var pts [][]byte
		block := func(i int) []byte {
			pts = append(pts, shardPattern(100+i))
			return pts[len(pts)-1]
		}
		tile := rowTile(0, 0, 0, 2)
		sh.WriteTile(tile, 1, true, packed(tile, append(block(0), block(1)...)))
		sh.ReadPartial(0, 0, 1, 0, nil)
		sh.HostStoreRow(2, 0x8001, 1, 1, 0, 1, ints(block(2)))
		d.Tamper(2, 0, 0x10)
		pts = append(pts, slices.Clone(pts[2]))
		pts[len(pts)-1][0] ^= 0x10 // what the read now decrypts
		sh.ReadStatic(2, 0x8001, 1, 1, 0, true, nil)
		if how == "memory" {
			m.WriteBlock(3, 0, 1, 2, block(3))
			m.ReadPartial(3, 0, 1, 2)
		}
		m.Merge(sh)
		m.BeginLayer(2)
		tile = rowTile(4, 1, 0, 1)
		sh.HostWriteTile(tile, 1, 1, packed(tile, block(4)))
		d.SetInjector(&runTamper{d: d, n: 2, sched: []byte{1, 9, 0x04}})
		sh.ReadInputRun(4, 1, 1, 1, 0, true, 2, nil)
		d.SetInjector(nil)
		raw := unsafe.Slice((*byte)(unsafe.Pointer(sh)), unsafe.Sizeof(*sh))
		found := 0
		for _, pt := range pts {
			if holdsPlaintext(raw, pt) {
				found++
			}
		}
		if found == 0 {
			t.Fatalf("%s: no plaintext in the shard before Recycle: the check below sees nothing", how)
		}
		m.Merge(sh)
		if how == "shard" {
			sh.Recycle()
		} else if !m.Recycle(d, 0xabc, 0xdef) {
			t.Fatal("Recycle refused the memory's own identity")
		}
		for i, pt := range pts {
			if holdsPlaintext(raw, pt) {
				t.Fatalf("after the %s's Recycle the shard still holds a word of plaintext %d", how, i)
			}
		}
	}
}

// writeFlip is a write-side injector: it flips one bit of every line it
// sees stored.
type writeFlip struct{}

func (writeFlip) OnRead(uint64, []byte) {}

func (writeFlip) OnWrite(_ uint64, data []byte) { data[5] ^= 0x20 }

// TestWriteInjectorNeverReachesTheMemo: a write forms its ciphertext in the
// line's memo entry and stores a copy, so a write-side injector changes the
// stored line and never the entry. The next layer's first read of each line
// then fetches bytes the entry does not hold, hashes what it fetched
// instead of taking the recorded MAC, and Equation 1 fails.
func TestWriteInjectorNeverReachesTheMemo(t *testing.T) {
	tile := Tile{Rows: 2, BPR: 2, K0: 0, K1: 2, Y0: 0, Y1: 2} // lines 0–7
	m, d := newSecMem(t)
	d.Reserve(8)
	m.ReserveKeystreams(8)
	m.BeginLayer(1)
	sh := m.Own()
	d.SetInjector(writeFlip{})
	sh.WriteTile(tile, 1, true, packed(tile, tilePlaintext(tile)))
	d.SetInjector(nil)
	for l := uint64(0); l < 8; l++ {
		written := block(d.Peek(l))
		written[5] ^= 0x20
		if e := m.keys[l]; e.ct != written || !e.hashed {
			t.Fatalf("line %d: the memo entry is not the ciphertext the write formed", l)
		}
	}
	m.BeginLayer(2)
	before := m.Hashing()
	for l := uint64(0); l < 8; l++ {
		sh.ReadInputRun(l, 1, uint32(l/4), 1, uint32(l%4), true, 1, nil)
	}
	if h := m.Hashing(); h.Reused != before.Reused || h.Loop-before.Loop != 8 {
		t.Fatalf("reads of lines the injector changed took %d recorded MACs and hashed %d, want 0 and 8", h.Reused-before.Reused, h.Loop-before.Loop)
	}
	if err := m.VerifyPreviousLayer(mac.Digest{}); !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("Equation 1 after a write-side flip of every line: %v", err)
	}
}

// TestOwnShardTalliesIntoMemory: the memory's own shard counts the blocks it
// moves and the pads it uses straight into the memory, and records its
// traffic in the DRAM's counters, as it moves them — no Merge stands between
// a call and what the memory reports. Another shard's tallies wait for Merge.
func TestOwnShardTalliesIntoMemory(t *testing.T) {
	tile := Tile{Rows: 3, BPR: 2, K0: 0, K1: 2, Y0: 0, Y1: 3} // 12 blocks at lines 0–11
	const lines = 16
	m, d := newSecMem(t)
	d.Reserve(lines)
	m.ReserveKeystreams(lines)
	m.BeginLayer(1)
	sh := m.Own()
	sh.WriteTile(tile, 1, true, packed(tile, tilePlaintext(tile)))
	m.BeginLayer(2)
	sh.ReadInputRun(0, 1, 0, 1, 0, true, 3, nil) // one pad, reused; three reads
	sh.ReadInputRun(1, 1, 0, 1, 1, true, 1, nil)

	moved := BlockCounts{OfmapWrites: 12, IfmapFirst: 2, IfmapRepeat: 2}
	var traffic mem.TrafficStats
	traffic.ReadBlocks[sim.DataTraffic], traffic.WriteBlocks[sim.DataTraffic] = 4, 12
	pads := Keystreams{Computed: 12, Reused: 2}
	check := func(when string) {
		t.Helper()
		if got := m.BlockCounts(); got != moved {
			t.Fatalf("%s: block counts %+v, want %+v", when, got, moved)
		}
		if got := m.Keystreams(); got != pads {
			t.Fatalf("%s: pads %+v, want %+v", when, got, pads)
		}
		if got := d.Traffic(); got != traffic {
			t.Fatalf("%s: traffic %+v, want %+v", when, got, traffic)
		}
	}
	check("the own shard, unmerged")

	other := m.Shard()
	other.HostWriteTile(rowTile(12, 0, 0, 4), 0, 1, packed(rowTile(12, 0, 0, 4), tilePlaintext(rowTile(12, 0, 0, 4))))
	check("another shard, unmerged")
	m.Merge(other)
	moved.HostWrites += 4
	traffic.WriteBlocks[sim.DataTraffic] += 4
	pads.Computed += 4
	check("another shard, merged")
	m.Merge(m.Own())
	check("the own shard, merged")
}
