package protect

import (
	"bytes"
	"crypto/subtle"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"seculator/internal/crypto"
	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/sim"
	"seculator/internal/tensor"
)

func shardTestDRAM(t *testing.T) *mem.DRAM {
	t.Helper()
	d, err := mem.New(mem.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// shardPattern builds a deterministic, index-unique plaintext block.
func shardPattern(i int) []byte {
	b := make([]byte, tensor.BlockBytes)
	for j := range b {
		b[j] = byte(i*31 + j*7)
	}
	return b
}

// blockMemory is the per-block API the reference model and the memory's
// serial API share.
type blockMemory interface {
	BeginLayer(layer uint32)
	WriteBlock(addr uint64, fmapID uint32, vn int, blockIdx uint32, plaintext []byte)
	ReadInput(addr uint64, prevLayer, fmapID uint32, vn int, blockIdx uint32, first bool) []byte
	RegisterSnapshot() RegisterState
}

// runBlockScript drives the two-layer reference workload one block at a
// time: layer 1 writes n blocks, layer 2 first-reads them all, repeat-reads
// every fifth, and writes n more.
func runBlockScript(t *testing.T, m blockMemory, n int) {
	t.Helper()
	m.BeginLayer(1)
	for i := 0; i < n; i++ {
		m.WriteBlock(uint64(i), uint32(i%3), 1, uint32(i), shardPattern(i))
	}
	m.BeginLayer(2)
	for i := 0; i < n; i++ {
		pt := m.ReadInput(uint64(i), 1, uint32(i%3), 1, uint32(i), true)
		if !bytes.Equal(pt, shardPattern(i)) {
			t.Fatalf("per-block read %d decrypted wrong plaintext", i)
		}
	}
	for i := 0; i < n; i += 5 {
		m.ReadInput(uint64(i), 1, uint32(i%3), 1, uint32(i), false)
	}
	for i := 0; i < n; i++ {
		m.WriteBlock(uint64(n+i), 0, 2, uint32(i), shardPattern(n+i))
	}
}

// runReferenceScript runs the workload on the per-block reference model.
func runReferenceScript(t *testing.T, n int) (*mem.DRAM, *refMemory) {
	t.Helper()
	d := shardTestDRAM(t)
	r := newRefMemory(d, 7, 9)
	runBlockScript(t, r, n)
	return d, r
}

// runShardedScript drives the same workload through w shards of one memory
// on one goroutine against pre-reserved DRAM, shard s taking every index
// s mod w and the shards taking turns phase by phase, so the fold order
// differs maximally from the per-block run.
func runShardedScript(t *testing.T, n, w int) (*mem.DRAM, *SeculatorMemory) {
	t.Helper()
	d := shardTestDRAM(t)
	d.Reserve(uint64(2 * n))
	m := NewSeculatorMemory(d, 7, 9)
	m.ReserveKeystreams(uint64(2 * n)) // every read decrypts with the pad whichever shard wrote its line left
	shards := make([]*SeculatorShard, w)
	for s := range shards {
		shards[s] = m.Shard()
	}
	phase := func(fn func(s int, sh *SeculatorShard)) {
		for s, sh := range shards {
			fn(s, sh)
		}
		for _, sh := range shards {
			m.Merge(sh)
		}
	}

	m.BeginLayer(1)
	phase(func(s int, sh *SeculatorShard) {
		for i := s; i < n; i += w {
			tile := rowTile(uint64(i), uint32(i%3), uint32(i), 1)
			sh.WriteTile(tile, 1, false, packed(tile, shardPattern(i)))
		}
	})
	m.BeginLayer(2)
	phase(func(s int, sh *SeculatorShard) {
		for i := s; i < n; i += w {
			if pt := readRun(sh, uint64(i), 1, uint32(i%3), 1, uint32(i), true, 1); !bytes.Equal(pt, shardPattern(i)) {
				t.Fatalf("shard %d read %d decrypted wrong plaintext", s, i)
			}
		}
		for i := s * 5; i < n; i += w * 5 {
			sh.ReadInputRun(uint64(i), 1, uint32(i%3), 1, uint32(i), false, 1, nil)
		}
	})
	phase(func(s int, sh *SeculatorShard) {
		for i := s; i < n; i += w {
			tile := rowTile(uint64(n+i), 0, uint32(i), 1)
			sh.WriteTile(tile, 2, false, packed(tile, shardPattern(n+i)))
		}
	})
	return d, m
}

// loaderRows and loaderRowBlocks shape runLoaderBeside's weight loader.
const loaderRows, loaderRowBlocks = 10, 4

// runLoaderBeside runs the per-block workload through the memory's serial
// API — its own shard, which folds every MAC — while a second goroutine
// does what the secure executor's weight loader does beside its layer loop:
// a shard that host-stores rows of weights (HostStoreRow) and computes
// output pads ahead (PadAhead) on reserved lines [2n, 2n+2·rows·blocks),
// which the workload never touches, and owes no MAC. The loader is joined
// and merged before the memory is returned.
func runLoaderBeside(t *testing.T, n int) (*mem.DRAM, *SeculatorMemory) {
	t.Helper()
	const lines = loaderRows * loaderRowBlocks
	d := shardTestDRAM(t)
	d.Reserve(uint64(2*n + 2*lines))
	m := NewSeculatorMemory(d, 7, 9)
	m.ReserveKeystreams(uint64(2*n + 2*lines))
	loader := m.Shard()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < loaderRows; r++ {
			base := uint64(2*n + r*loaderRowBlocks)
			loader.HostStoreRow(base, 0x8001, uint32(r), 1, 0, loaderRowBlocks, ints(fuzzRow(loaderRowBlocks, byte(r))))
			loader.PadAhead(base+lines, 3, uint32(r), 1, 0, loaderRowBlocks)
		}
	}()
	runBlockScript(t, m, n)
	<-done
	m.Merge(loader)
	return d, m
}

// TestShardedFoldsMatchSerial is the soundness test of the shard crypto
// path. Every arm must leave the four XOR-MAC registers and their fold
// counts, every ciphertext byte of the workload in DRAM, and the traffic
// totals bit-identical to the per-block reference model: w = 1, 2 and 8
// shards interleaved by index on one goroutine (the XOR fold is
// commutative, so the order is immaterial, and every read, whichever shard
// wrote its line, decrypts with the pad that write left in the keystream
// memo); the memory's serial API (its own shard, which tallies into the
// memory and records its traffic per call); and the
// serial API beside a concurrent loader-shaped shard, which must fold
// nothing, store the lines a host write of its rows produces, and leave its
// pads marked ahead — the contract the secure executor's two goroutines
// rely on.
func TestShardedFoldsMatchSerial(t *testing.T) {
	const n = 100
	rd, ref := runReferenceScript(t, n)
	want := ref.RegisterSnapshot()

	same := func(what string, d *mem.DRAM, m *SeculatorMemory, extraWrites uint64) {
		t.Helper()
		if got := m.RegisterSnapshot(); got != want {
			t.Fatalf("%s: registers\n got %+v\nwant %+v", what, got, want)
		}
		for a := uint64(0); a < 2*n; a++ {
			if !bytes.Equal(d.Peek(a), rd.Peek(a)) {
				t.Fatalf("%s: ciphertext mismatch at line %d", what, a)
			}
		}
		wantTraffic := rd.Traffic()
		wantTraffic.WriteBlocks[sim.DataTraffic] += extraWrites
		if got := d.Traffic(); got != wantTraffic {
			t.Fatalf("%s: traffic %+v, want %+v", what, got, wantTraffic)
		}
		if got := m.Hashing(); got != (Hashing{Loop: 3*n + n/5}) {
			t.Fatalf("%s: MACs %+v, want each owed one hashed once: %d", what, got, 3*n+n/5)
		}
		if got, want := d.Lines(), rd.Lines()+int(extraWrites); got != want {
			t.Fatalf("%s: %d lines, want %d", what, got, want)
		}
	}
	for _, w := range []int{1, 2, 8} {
		pd, pm := runShardedScript(t, n, w)
		same(fmt.Sprintf("w=%d", w), pd, pm, 0)
		if got, want := pm.Keystreams(), (Keystreams{Computed: 2 * n, Reused: n + n/5}); got != want {
			t.Fatalf("w=%d: pads %+v, want %+v", w, got, want)
		}
	}
	sd := shardTestDRAM(t)
	sm := NewSeculatorMemory(sd, 7, 9)
	runBlockScript(t, sm, n)
	same("serial", sd, sm, 0)

	const lines = loaderRows * loaderRowBlocks
	ld, lm := runLoaderBeside(t, n)
	same("serial beside a loader", ld, lm, lines)
	if got, want := lm.Keystreams(), (Keystreams{Computed: 2*n + 2*lines, Reused: n + n/5, Ahead: lines}); got != want {
		t.Fatalf("beside a loader: pads %+v, want %+v", got, want)
	}
	if got, want := lm.BlockCounts().HostWrites, lines; got != want {
		t.Fatalf("beside a loader: %d host writes counted, want %d", got, want)
	}
	// The reference: the same rows host-written into a memory of their own.
	hd := shardTestDRAM(t)
	hm := NewSeculatorMemory(hd, 7, 9)
	for r := 0; r < loaderRows; r++ {
		tile := rowTile(0, uint32(r), 0, loaderRowBlocks)
		hm.Shard().HostWriteTile(tile, 0x8001, 1, packed(tile, fuzzRow(loaderRowBlocks, byte(r))))
		for b := 0; b < loaderRowBlocks; b++ {
			a := uint64(2*n + r*loaderRowBlocks + b)
			if !bytes.Equal(ld.Peek(a), hd.Peek(uint64(b))) {
				t.Fatalf("beside a loader: line %d is not the host's sealed weight block", a)
			}
			if k := lm.keys[a]; !k.host || k.hashed {
				t.Fatalf("beside a loader: weight line %d's entry is marked host %v, hashed %v", a, k.host, k.hashed)
			}
			if k := lm.keys[a+lines]; !k.ahead || k.set {
				t.Fatalf("beside a loader: output line %d's entry is marked ahead %v, set %v", a+lines, k.ahead, k.set)
			}
		}
	}
}

// TestShardedEquationOneVerifies: layer 2 first-reads exactly layer 1's
// writes, so Equation 1 must verify with a zero external digest on the
// interleaved shard path, and beside a concurrent loader, just as on the
// serial one.
func TestShardedEquationOneVerifies(t *testing.T) {
	_, sharded := runShardedScript(t, 60, 4)
	_, beside := runLoaderBeside(t, 60)
	for what, m := range map[string]*SeculatorMemory{"interleaved shards": sharded, "beside a loader": beside} {
		if err := m.VerifyPreviousLayer(mac.Digest{}); err != nil {
			t.Fatalf("Equation 1 failed on the %s path: %v", what, err)
		}
	}
}

// TestShardBatchRowMatchesBlocks: a tile of one row of several blocks must
// produce the same ciphertext and the same MAC folds as per-block reference
// writes.
func TestShardBatchRowMatchesBlocks(t *testing.T) {
	const n = 8
	row := make([]byte, n*tensor.BlockBytes)
	for i := 0; i < n; i++ {
		copy(row[i*tensor.BlockBytes:], shardPattern(i))
	}

	da := shardTestDRAM(t)
	ma := NewSeculatorMemory(da, 3, 4)
	ma.BeginLayer(1)
	sa := ma.Shard()
	sa.WriteTile(rowTile(0, 2, 0, n), 1, false, packed(rowTile(0, 2, 0, n), row))
	ma.Merge(sa)

	db := shardTestDRAM(t)
	mb := newRefMemory(db, 3, 4)
	mb.BeginLayer(1)
	for i := 0; i < n; i++ {
		mb.WriteBlock(uint64(i), 2, 1, uint32(i), shardPattern(i))
	}

	if aw, bw := ma.RegisterSnapshot(), mb.RegisterSnapshot(); aw != bw {
		t.Fatalf("MAC_W differs: batch %+v, per-block %+v", aw, bw)
	}
	for a := uint64(0); a < n; a++ {
		if !bytes.Equal(da.Peek(a), db.Peek(a)) {
			t.Fatalf("ciphertext differs at line %d", a)
		}
	}
}

// TestShardRecycleScrubsHasher: the shard's hasher holds the last plaintext
// block it MACed (in its lanes and, on the portable path, the block's tail
// inside its SHA-256 state), so Recycle must scrub it like the scratch lines
// (the ciphertext a read fetched, the one a re-read fetched, the pad, and
// the plaintext a weight host store encoded) — and keep it, so a pooled run
// builds none; the memory's Recycle zeroes every keystream memo entry,
// recorded ciphertext and MAC included. The scrubbed state is the one
// mac.RowHasher.Scrub leaves on any used hasher (mac's own tests decode
// it); reflect.DeepEqual follows the hasher into that state.
func TestShardRecycleScrubsHasher(t *testing.T) {
	var scrubbed mac.RowHasher
	scrubbed.Add(mac.BlockRef{}, shardPattern(0))
	scrubbed.Sum()
	scrubbed.Scrub()

	d := shardTestDRAM(t)
	d.Reserve(1)
	m := NewSeculatorMemory(d, 3, 4)
	m.BeginLayer(1)
	sh := m.Shard()
	sh.WriteTile(rowTile(0, 2, 0, 1), 1, false, packed(rowTile(0, 2, 0, 1), shardPattern(1)))
	if reflect.DeepEqual(sh.rowh, scrubbed) {
		t.Fatal("a used hasher compares equal to a scrubbed one: the comparison sees nothing")
	}
	// A run whose re-read arrives flipped fills the fetch lines: the first
	// read's ciphertext and the re-read's, and the pad computed for both.
	m.Merge(sh)
	m.BeginLayer(2)
	d.SetInjector(&runTamper{d: d, n: 2, sched: []byte{1, 3, 0x40}})
	sh.ReadInputRun(0, 1, 2, 1, 0, true, 2, nil)
	// No memo is reserved yet, so every pad went through the shard's scratch.
	var zero block
	if sh.ct == zero || sh.runCT == zero || sh.pad == zero {
		t.Fatal("a scratch line is still zero before Recycle: the check below sees nothing")
	}
	sh.Recycle()
	if !reflect.DeepEqual(sh.rowh, scrubbed) {
		t.Fatal("Recycle left the shard's hasher unscrubbed, or dropped it")
	}
	if sh.ct != zero || sh.pt != zero || sh.runCT != zero || sh.pad != zero {
		t.Fatal("Recycle left a scratch line behind")
	}
	if *sh.n != (BlockCounts{}) || *sh.ks != (Keystreams{}) {
		t.Fatalf("Recycle left block or pad counts behind: %+v, %+v", *sh.n, *sh.ks)
	}

	// The keystream memo holds a pad, a counter and a ciphertext per written
	// line, a final write's MAC, a weight host store's mark, and a pad
	// computed ahead with its mark: the memory's Recycle zeroes every entry
	// and keeps the capacity, and the pad tallies, the ahead share included.
	const memoLen = 6
	m.ReserveKeystreams(memoLen)
	sh.WriteTile(rowTile(0, 2, 0, 3), 3, true, packed(rowTile(0, 2, 0, 3), make([]byte, 3*tensor.BlockBytes)))
	if slices.ContainsFunc(m.keys[:3], func(k keystream) bool {
		return k.pad == zero || k.ct == zero || !k.hashed || k.mac == (mac.Digest{})
	}) {
		t.Fatal("a written line's memo entry lacks a pad, ciphertext or MAC: the check below sees nothing")
	}
	sh.HostStoreRow(3, 0x8001, 2, 1, 0, 1, ints(shardPattern(4)))
	sh.PadAhead(4, 2, 5, 1, 0, 2)
	if k := m.keys[3]; !k.host || k.ct == zero || sh.pt == zero {
		t.Fatal("a weight host store left no marked entry or no plaintext: the check below sees nothing")
	}
	// A first read of other bytes hashes the host's plaintext in a lane.
	d.Tamper(3, 0, 1)
	sh.ReadStatic(3, 0x8001, 2, 1, 0, true, nil)
	if reflect.DeepEqual(sh.rowh, scrubbed) {
		t.Fatal("a changed weight read left the hasher's lanes empty: the check below sees nothing")
	}
	if slices.ContainsFunc(m.keys[4:], func(k keystream) bool { return !k.ahead || k.pad == zero }) {
		t.Fatal("a line padded ahead has no marked pad: the check below sees nothing")
	}
	m.Merge(sh)
	if m.Keystreams().Ahead != 2 {
		t.Fatalf("pads %+v: the two computed ahead are not counted", m.Keystreams())
	}
	if !m.Recycle(d, 3, 4) {
		t.Fatal("Recycle refused the memory's own identity")
	}
	if len(m.keys) != memoLen || slices.ContainsFunc(m.keys, func(k keystream) bool { return k != keystream{} }) {
		t.Fatal("Recycle left a keystream memo entry behind, or dropped the memo")
	}
	if m.Keystreams() != (Keystreams{}) {
		t.Fatalf("Recycle left pad counts behind: %+v", m.Keystreams())
	}
	if sh.Recycle(); sh.pt != zero || !reflect.DeepEqual(sh.rowh, scrubbed) {
		t.Fatal("Recycle left the weight store's plaintext or the host plaintext's lane behind")
	}
}

// TestShardSealRowMatchesWriteRow: on a one-row tile, HostWriteTile seals
// each block as the composition does — encode, XOR the block's CTR pad —
// stores it, and returns the XOR of mac.BlockMAC over the plaintext blocks
// as the golden digest. The one-block host writes store the same lines and
// fold the same digest, and HostStoreRow, the weight load, stores the same
// lines and hashes nothing.
func TestShardSealRowMatchesWriteRow(t *testing.T) {
	const n, idx = 5, 5
	row := make([]byte, n*tensor.BlockBytes)
	for i := 0; i < n; i++ {
		copy(row[i*tensor.BlockBytes:], shardPattern(i))
	}
	d := shardTestDRAM(t)
	d.Reserve(16)
	m := NewSeculatorMemory(d, 3, 4)
	sh := m.Shard()

	eng := crypto.NewCTR(3, 4)
	var gs mac.Digest
	sealed := make([]byte, len(row))
	for i := 0; i < n; i++ {
		ctr := crypto.Counter{Fmap: 2, Layer: 0x8001, VN: 1, Block: uint32(idx + i)}
		o := i * tensor.BlockBytes
		eng.Pad(sealed[o:o+tensor.BlockBytes], ctr)
		subtle.XORBytes(sealed[o:o+tensor.BlockBytes], sealed[o:o+tensor.BlockBytes], row[o:o+tensor.BlockBytes])
		gs = gs.Xor(mac.BlockMAC(mac.BlockRef{Secret: 3, Layer: 0x8001, Fmap: 2, VN: 1, Index: uint32(idx + i)}, row[o:o+tensor.BlockBytes]))
	}

	gw := sh.HostWriteTile(rowTile(4, 2, idx, n), 0x8001, 1, packed(rowTile(4, 2, idx, n), row))
	if gw != gs {
		t.Fatalf("golden digest: write %x, composition %x", gw, gs)
	}
	if sh.n.HostWrites != n || d.Lines() != n {
		t.Fatalf("HostWriteTile: %d writes counted, %d lines stored, want %d", sh.n.HostWrites, d.Lines(), n)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(d.Peek(uint64(4+i)), sealed[i*tensor.BlockBytes:(i+1)*tensor.BlockBytes]) {
			t.Fatalf("line %d: stored ciphertext differs from the sealed row", i)
		}
	}
	// And both are the one-block host write, block for block.
	var gb mac.Digest
	for i := 0; i < n; i++ {
		tile := rowTile(uint64(10+i), 2, uint32(idx+i), 1)
		gb = gb.Xor(sh.HostWriteTile(tile, 0x8001, 1, packed(tile, shardPattern(i))))
		if !bytes.Equal(d.Peek(uint64(10+i)), d.Peek(uint64(4+i))) {
			t.Fatalf("line %d: row and per-block host writes differ", i)
		}
	}
	if gb != gs {
		t.Fatalf("golden digest: per-block %x, row %x", gb, gs)
	}
	m.ReserveKeystreams(32)
	sh.HostStoreRow(20, 0x8001, 2, 1, idx, n, ints(row))
	for i := 0; i < n; i++ {
		if !bytes.Equal(d.Peek(uint64(20+i)), d.Peek(uint64(4+i))) {
			t.Fatalf("line %d: the weight store and the host write differ", i)
		}
		if k := m.keys[20+i]; !k.host || k.hashed {
			t.Fatalf("line %d: the weight store left its entry %v marked host, %v hashed", i, k.host, k.hashed)
		}
	}
}
