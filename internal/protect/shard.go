package protect

import (
	"crypto/subtle"
	"fmt"

	"seculator/internal/crypto"
	"seculator/internal/mac"
	"seculator/internal/sim"
	"seculator/internal/tensor"
)

// SeculatorShard is a per-goroutine view of a SeculatorMemory. Each shard
// owns a private clone of the CTR engine (the AES key schedule is shared and
// immutable, the scratch is not), a private mac.RowHasher every block MAC of
// the shard comes from — one at a time for a read, batched across a call's
// lanes for a write — and private ciphertext/plaintext scratch lines — so
// two shards may encrypt and store concurrently without touching shared
// mutable state, as long as they operate on distinct lines inside the
// DRAM's reservation (mem.DRAM.Reserve: there a line is a fixed 64-byte
// range of one slab, so a quiet read or write shares nothing with its
// neighbours). The secure executor runs two per inference: the memory's own
// (Own), which its layer loop and the serial API share, and the weight
// loader's.
//
// Ownership rules (DESIGN.md §10): a shard is single-goroutine. Its reads
// decode into the caller's values and its writes encode from them, each in
// one pass per block, with plaintext bytes formed only in the lane that
// hashes a block's MAC (codec.go). Every block MAC a shard's
// reads and writes owe is hashed by the shard and folded, as it is hashed,
// straight into the memory's registers and weight fold (owe, settle): so
// only one goroutine at a time may move blocks that owe a MAC — the reads
// and WriteTile. A tile write queues its blocks' MACs in the hasher's lanes
// and hashes, records and folds every one of them before it returns: no
// batch outlives the call that filled it. The host tile write
// (HostWriteTile) batches its MACs the same way into the golden digest it
// returns, and HostStoreRow and PadAhead owe none. The memory's own shard
// tallies its blocks and pads straight into the memory's, and records each
// call's block moves in the DRAM's traffic counters (record): it runs on
// the orchestrating goroutine, the only one that may. Any other shard
// keeps its tallies, which reach the memory and the traffic counters when
// the orchestrator calls Merge after the shard has quiesced.
type SeculatorShard struct {
	parent *SeculatorMemory
	engine *crypto.CTREngine

	// n and ks are where the shard tallies the blocks it moves and the pads
	// it uses: the memory's counts and ks for its own shard (Own), else
	// tally, which Merge adds to the memory's.
	n     *BlockCounts
	ks    *Keystreams
	tally struct {
		n  BlockCounts
		ks Keystreams
	}

	// ct is the line a read fetched, or the ciphertext a write to a line
	// outside the memo stores; pad is a pad with no memo entry to live in.
	ct  block
	pad block
	// pt is the plaintext of a block no MAC lane holds: a weight host
	// store's (HostStoreRow owes no MAC), or a serial byte read's output.
	pt   block
	rowh mac.RowHasher
	// recs[i] is the memo entry the MAC queued in lane i of rowh is recorded
	// in once hashed (a final or host write's), or nil.
	recs [mac.LaneCount]*keystream

	// runCT is the line a ReadInputRun re-read fetches, compared against ct.
	runCT block
}

// BlockCounts is the number of 64-byte blocks a memory's shards moved, by
// tensor class — what the executor did, as opposed to what the simulator's
// traffic model says it should do. A first read is a block's first touch in
// its layer, a repeat any later one.
type BlockCounts struct {
	IfmapFirst, IfmapRepeat   int
	WeightFirst, WeightRepeat int
	PartialReads              int
	OfmapWrites, HostWrites   int
}

// Reads is every block fetched from DRAM.
func (c BlockCounts) Reads() int {
	return c.IfmapFirst + c.IfmapRepeat + c.WeightFirst + c.WeightRepeat + c.PartialReads
}

// Writes is every block stored to DRAM.
func (c BlockCounts) Writes() int { return c.OfmapWrites + c.HostWrites }

func (c *BlockCounts) add(o BlockCounts) {
	c.IfmapFirst += o.IfmapFirst
	c.IfmapRepeat += o.IfmapRepeat
	c.WeightFirst += o.WeightFirst
	c.WeightRepeat += o.WeightRepeat
	c.PartialReads += o.PartialReads
	c.OfmapWrites += o.OfmapWrites
	c.HostWrites += o.HostWrites
}

// Keystreams counts the 64-byte CTR pads the shards used: Computed by the
// engine (every write; a read the memo misses; a pad computed ahead) or
// Reused from the memo. Ahead is the share of Computed that PadAhead
// computed before the write that uses it.
type Keystreams struct{ Computed, Reused, Ahead int }

// keystream is one line's keystream memo entry: the pad its last shard write
// computed, the whole counter it is the pad of and the ciphertext it stored
// — and, once hashed, that write's block MAC, when the write records it: a
// host input write, or an ofmap line's final version (DESIGN.md §10, "MAC
// memo"). A weight host store records no MAC: it marks the entry host, and
// the weight check derives the host's plaintext from ct and pad only where a
// read did not fetch ct unchanged. A pad computed ahead of its write
// (PadAhead) sits in pad and ctr, marked ahead, until a write under ctr
// takes it.
type keystream struct {
	pad    [tensor.BlockBytes]byte
	ct     [tensor.BlockBytes]byte
	mac    mac.Digest
	ctr    crypto.Counter
	set    bool
	hashed bool // mac is the MAC of ct's plaintext under ctr
	host   bool // a weight host store (HostStoreRow) stored ct under ctr
	ahead  bool // pad is ctr's, computed ahead; no write has taken it yet
}

// entry returns line addr's memo entry, or nil outside the memo.
func (m *SeculatorMemory) entry(addr uint64) *keystream {
	if addr < uint64(len(m.keys)) {
		return &m.keys[addr]
	}
	return nil
}

// entries returns the memo entries of lines [addr, addr+n), panicking when
// the memo does not cover them all: the weight path and PadAhead keep their
// state nowhere else.
func (m *SeculatorMemory) entries(addr uint64, n int) []keystream {
	if end := addr + uint64(n); end < addr || end > uint64(len(m.keys)) {
		panic(fmt.Sprintf("protect: lines [%d, %d) lie outside the keystream memo of %d lines", addr, end, len(m.keys)))
	}
	return m.keys[addr : addr+uint64(n)]
}

// ReserveKeystreams sizes the memo to lines [0, n) in one allocation (none
// once it holds n); a memory never reserved computes every pad.
func (m *SeculatorMemory) ReserveKeystreams(n uint64) {
	if uint64(len(m.keys)) < n {
		m.keys = make([]keystream, n)
	}
}

// Keystreams returns the pad tallies of the memory's own shard and every
// shard merged since New or Recycle.
func (m *SeculatorMemory) Keystreams() Keystreams { return m.ks }

// Shard creates a view of the memory for one goroutine. Shards are cheap; the
// secure executor keeps its two for the whole run.
func (m *SeculatorMemory) Shard() *SeculatorShard {
	s := &SeculatorShard{parent: m, engine: m.engine.Clone()}
	s.n, s.ks = &s.tally.n, &s.tally.ks
	return s
}

// Own returns the memory's own shard, building it on first use: the one the
// serial API moves every block through, and the secure executor's layer
// loop. It tallies into the memory as it goes, so it has nothing to Merge.
// Recycle scrubs it with the memory.
func (m *SeculatorMemory) Own() *SeculatorShard {
	if m.own == nil {
		m.own = m.Shard()
		m.own.n, m.own.ks = &m.counts, &m.ks
	}
	return m.own
}

// Recycle scrubs a shard for reuse across runs of its (recycled) parent
// memory: its block and pad tallies reset, the ciphertext, pad and
// plaintext scratch lines are zeroed so no block of the previous run
// survives in pooled scratch, and the hasher is scrubbed in place (its
// lanes hold the last plaintext blocks it wrote or read; see
// mac.RowHasher.Scrub).
// The engine clone is kept — it shares the parent's
// immutable key schedule, which Recycle on the parent guarantees is
// unchanged.
func (s *SeculatorShard) Recycle() {
	s.tally.n, s.tally.ks = BlockCounts{}, Keystreams{}
	s.ct, s.pad, s.pt, s.runCT = block{}, block{}, block{}, block{}
	s.rowh.Scrub()
	clear(s.recs[:])
}

// Merge adds a shard's block and pad tallies to the memory's, and its
// block moves to the DRAM's traffic counters, resetting the shard's — the
// only shard state the memory does not already hold. Must run on the
// orchestrating goroutine after the shard has quiesced; a nil shard is
// skipped, and the memory's own has nothing to merge.
func (m *SeculatorMemory) Merge(s *SeculatorShard) {
	if s == nil {
		return
	}
	n, ks := &s.tally.n, &s.tally.ks
	m.dram.Record(sim.Read, sim.DataTraffic, n.Reads())
	m.dram.Record(sim.Write, sim.DataTraffic, n.Writes())
	m.counts.add(*n)
	m.ks = Keystreams{m.ks.Computed + ks.Computed, m.ks.Reused + ks.Reused, m.ks.Ahead + ks.Ahead}
	*n, *ks = BlockCounts{}, Keystreams{}
}

// record adds n blocks a call of the memory's own shard — the one that
// tallies into the memory — moved to the DRAM's traffic counters; another
// shard's reach them when Merge adds its tallies. It reads only the shard's
// own fields, so a shard beside the own one shares nothing with it.
func (s *SeculatorShard) record(kind sim.AccessKind, n int) {
	if s.n != &s.tally.n {
		s.parent.dram.Record(kind, sim.DataTraffic, n)
	}
}

// BlockCounts returns the per-tensor-class block totals of the memory's own
// shard and every shard merged since the memory was built or recycled.
func (m *SeculatorMemory) BlockCounts() BlockCounts { return m.counts }

// Hashing says how many block MACs the shards' reads and writes — the ones
// the layer checks consume — hashed, and how many reads needed none hashed
// (each took its MAC from the memo, or its weight term cancelled), since the
// memory was built or recycled.
type Hashing struct {
	Loop int // hashed by the shard that owed them, inline
	// Reused counts reads that hashed none: each took the MAC its line's
	// last write recorded, or fetched a weight host store's bytes unchanged.
	Reused int
}

// Hashing returns the split since the memory was built or recycled.
func (m *SeculatorMemory) Hashing() Hashing { return m.hashing }

// WeightDigest returns the weight fold since the current layer began (or
// restarted): for each weight block first-read (ReadStatic), the
// MAC of what the read fetched XOR the MAC of what the host stored there —
// zero for a read that fetched the host's bytes unchanged. With the unread
// blocks' terms (UnreadWeight) it is the layer's weight check, which passes
// on zero: the host's golden XOR-MAC and the reads' fold, less every term
// the two share.
func (m *SeculatorMemory) WeightDigest() mac.Digest { return m.weights }

// readPad returns the pad a read of a line whose memo entry is k (nil
// outside the memo) decrypts with under ctr: the entry's when the line's
// last write computed it for this very counter (on a clean run, every
// read's), else one computed into the shard's scratch.
func (s *SeculatorShard) readPad(k *keystream, ctr crypto.Counter) *block {
	if k != nil && k.set && k.ctr == ctr {
		s.ks.Reused++
		return &k.pad
	}
	s.ks.Computed++
	s.engine.Pad(s.pad[:], ctr)
	return &s.pad
}

// fetch reads line addr, whose memo entry is k (nil outside the memo), into
// the shard's ciphertext scratch and returns the pad it decrypts with under
// ctr; the caller looks k up once and counts the read in its tensor class.
func (s *SeculatorShard) fetch(addr uint64, k *keystream, ctr crypto.Counter) *block {
	s.parent.dram.ReadBlockQuiet(addr, s.ct[:])
	return s.readPad(k, ctr)
}

// open hands the reader the plaintext ct ⊕ pad of the line just fetched, in
// one pass: decoded into dst, or — for the serial API, which reads bytes —
// into raw when raw is not nil.
func open(dst []int32, raw []byte, ct, pad *block) {
	if raw != nil {
		xorBlock((*block)(raw), ct, pad)
		return
	}
	openBlock(dst, ct, pad)
}

// recorded returns the MAC memo entry k (nil outside the memo) holds when it
// is the MAC of its line just fetched into the shard's ciphertext scratch
// under ctr: the line's last write stored exactly these bytes under exactly
// this counter and recorded its MAC. Else nil. Plaintext and MAC are pure
// functions of (ciphertext, counter), so it is the digest hashing would
// produce. Both compared lines are DRAM contents the adversary already owns,
// so the compare's timing leaks nothing.
func (s *SeculatorShard) recorded(k *keystream, ctr crypto.Counter) *mac.Digest {
	if k != nil && k.hashed && k.ctr == ctr && k.ct == s.ct {
		return &k.mac
	}
	return nil
}

// foldTo names the accumulator an owed MAC folds into.
type foldTo uint8

const (
	toWrite   foldTo = iota // MAC_W
	toPartial               // MAC_R
	toFirst                 // MAC_FR and MAC_IR (a first read)
	toRepeat                // MAC_IR (a repeat read)
	toWeight                // the layer's weight fold (the golden comparison)
)

// fold folds d for n reads of one block into the current layer: the first
// into to, the rest as repeat reads (n > 1 only for ifmap reads).
func (m *SeculatorMemory) fold(to foldTo, d mac.Digest, n int) {
	m.mustStart()
	c := &m.checker
	switch to {
	case toWrite:
		c.OnWrite(d)
	case toPartial:
		c.OnPartialRead(d)
	case toFirst:
		c.OnFirstRead(d)
	case toRepeat:
		c.OnRepeatRead(d)
	case toWeight:
		m.weights = m.weights.Xor(d)
	default:
		panic("protect: owed MAC with no register")
	}
	for ; n > 1; n-- {
		c.OnRepeatRead(d)
	}
}

// owe hashes the block MAC under ref the layer's registers are owed for the
// plaintext ct ⊕ pad — formed in a lane of the hasher, and nowhere else —
// and folds it n times (n > 1 only for ifmap reads).
func (s *SeculatorShard) owe(ref mac.BlockRef, ct, pad *block, to foldTo, n int) {
	lane, _ := s.rowh.Slot(ref)
	xorBlock(lane, ct, pad)
	s.parent.fold(to, s.rowh.Sum()[0], n)
	s.parent.hashing.Loop++
}

// oweUnless owes the MAC of ct ⊕ pad, unless d — recorded's — is that MAC:
// then it folds d, unhashed.
func (s *SeculatorShard) oweUnless(d *mac.Digest, ref mac.BlockRef, ct, pad *block, to foldTo, n int) {
	if d == nil {
		s.owe(ref, ct, pad, to, n)
		return
	}
	s.parent.fold(to, *d, n)
	s.parent.hashing.Reused++
}

// ReadInputRun is n >= 1 consecutive reads of an ifmap block produced by
// prevLayer at version vn — the first with the given first flag, the rest
// repeats — decoding the first read's values into dst (at most 16; nil for
// none). A first read's MAC is owed to MAC_FR and MAC_IR, a repeat's to
// MAC_IR alone. Every read is fetched (an injector sees n OnRead calls),
// counted and folded, so all four registers and fold counts are those of n
// separate one-read calls; but plaintext and MAC are pure functions of
// (ciphertext, counter, ref), so a re-read is decrypted and MACed only when
// its ciphertext differs from the previous fetch's: each run of identical
// reads is owed as one MAC folded once per read. The first fetch's MAC is
// the memo's when the line's last write recorded it for these very bytes.
func (s *SeculatorShard) ReadInputRun(addr uint64, prevLayer, fmapID uint32, vn int, blockIdx uint32, first bool, n int, dst []int32) {
	s.readInput(addr, prevLayer, fmapID, vn, blockIdx, first, n, dst, nil)
}

// readInput is ReadInputRun, handing over the first read's plaintext as
// open does.
func (s *SeculatorShard) readInput(addr uint64, prevLayer, fmapID uint32, vn int, blockIdx uint32, first bool, n int, dst []int32, raw []byte) {
	m := s.parent
	ref, ctr := m.ref(prevLayer, fmapID, vn, blockIdx), m.counter(prevLayer, fmapID, vn, blockIdx)
	k := m.entry(addr)
	pad := s.fetch(addr, k, ctr)
	open(dst, raw, &s.ct, pad)
	memo := s.recorded(k, ctr)
	to := toRepeat
	if first {
		to = toFirst
		s.n.IfmapFirst++
	} else {
		s.n.IfmapRepeat++
	}
	s.n.IfmapRepeat += n - 1
	reads := 1
	for t := 1; t < n; t++ {
		m.dram.ReadBlockQuiet(addr, s.runCT[:])
		// Both operands are DRAM contents the adversary already owns, so the
		// compare's timing leaks nothing.
		if s.runCT != s.ct {
			s.oweUnless(memo, ref, &s.ct, pad, to, reads)
			s.ct = s.runCT
			pad = s.readPad(k, ctr)
			to, reads, memo = toRepeat, 0, nil
		}
		reads++
	}
	s.oweUnless(memo, ref, &s.ct, pad, to, reads)
	s.record(sim.Read, n)
}

// ReadPartial reads back a partial ofmap block of this layer, decoding its
// values into dst and owing its MAC to MAC_R.
func (s *SeculatorShard) ReadPartial(addr uint64, fmapID uint32, vn int, blockIdx uint32, dst []int32) {
	s.readPartial(addr, fmapID, vn, blockIdx, dst, nil)
}

// readPartial is ReadPartial, handing over the plaintext as open does.
func (s *SeculatorShard) readPartial(addr uint64, fmapID uint32, vn int, blockIdx uint32, dst []int32, raw []byte) {
	m := s.parent
	pad := s.fetch(addr, m.entry(addr), m.counter(m.layer, fmapID, vn, blockIdx))
	open(dst, raw, &s.ct, pad)
	s.n.PartialReads++
	s.record(sim.Read, 1)
	s.owe(m.ref(m.layer, fmapID, vn, blockIdx), &s.ct, pad, toPartial, 1)
}

// ReadStatic fetches a read-only (weight) block: no register folds. Only
// the caller knows whether this is the block's first read in its layer. A
// first read decodes the block's values into dst, and owes the layer's
// weight fold (WeightDigest) the difference between what it fetched and
// what the line's weight host store stored — nothing when it fetched
// exactly those bytes under exactly that counter, else the MAC of the
// fetched plaintext and, if a host store wrote the line, the MAC of the
// host's. A repeat's MAC is bound to nothing, so it is not computed: the
// repeat reports whether it decodes to the values dst holds — the first
// read's — and changes nothing. The line must lie inside the keystream
// memo.
func (s *SeculatorShard) ReadStatic(addr uint64, ownerLayer, fmapID uint32, vn int, blockIdx uint32, first bool, dst []int32) bool {
	m := s.parent
	k := &m.entries(addr, 1)[0]
	ctr := m.counter(ownerLayer, fmapID, vn, blockIdx)
	pad := s.fetch(addr, k, ctr)
	s.record(sim.Read, 1)
	if !first {
		s.n.WeightRepeat++
		return opensTo(dst, &s.ct, pad)
	}
	s.n.WeightFirst++
	openBlock(dst, &s.ct, pad)
	// Both compared lines are DRAM contents the adversary already owns, so
	// the compare's timing leaks nothing.
	if k.host && k.ctr == ctr && k.ct == s.ct {
		m.hashing.Reused++
		return true
	}
	s.owe(m.ref(ownerLayer, fmapID, vn, blockIdx), &s.ct, pad, toWeight, 1)
	if k.host {
		s.owe(m.refAt(k.ctr), &k.ct, &k.pad, toWeight, 1)
	}
	return true
}

// UnreadWeight returns the weight fold's term for a weight block no read of
// the layer fetched, given the values that stand in for it (the layer's
// decoded weights): zero when the line's weight host store stored exactly
// those values under that block's counter, else their block's MAC XOR, if a
// host store wrote the line, the host plaintext's. It is pure: no register,
// count or line changes. The line must lie inside the keystream memo.
func (m *SeculatorMemory) UnreadWeight(addr uint64, ownerLayer, fmapID uint32, vn int, blockIdx uint32, vals []int32) mac.Digest {
	k := &m.entries(addr, 1)[0]
	ctr := m.counter(ownerLayer, fmapID, vn, blockIdx)
	var pt, ct block
	sealBlock(&pt, &ct, &k.pad, vals)
	// pt ⊕ pad is the entry's ciphertext exactly when pt is the host's
	// plaintext: two on-chip plaintexts, compared in constant time.
	if k.host && k.ctr == ctr && subtle.ConstantTimeCompare(ct[:], k.ct[:]) == 1 {
		return mac.Digest{}
	}
	d := mac.BlockMAC(m.refAt(ctr), pt[:])
	if k.host {
		xorBlock(&pt, &k.ct, &k.pad)
		d = d.Xor(mac.BlockMAC(m.refAt(k.ctr), pt[:]))
	}
	return d
}

// seal is the one write core. It forms one block in a single pass over its
// values: the plaintext — vals packed, or raw's 64 bytes when raw is not nil
// (the serial API's byte filler) — into pt, which is the MAC lane that
// hashes it when the write owes a MAC, and the ciphertext pt ⊕ pad into
// the line's memo entry, or into the shard's scratch for a line outside
// the memo. The entry's pad is taken when PadAhead computed it for exactly
// ctr, else computed into the entry (or the shard's scratch). It stores the
// ciphertext at line addr — into the DRAM's copy, which a write-side
// injector may change; the entry's stays what was written — and returns
// the entry, nil outside the memo, which now records this write's pad,
// counter and ciphertext and nothing of an earlier one.
func (s *SeculatorShard) seal(addr uint64, ctr crypto.Counter, pt *block, vals []int32, raw []byte) *keystream {
	pad, ct := &s.pad, &s.ct
	k := s.parent.entry(addr)
	if k != nil {
		pad, ct = &k.pad, &k.ct
	}
	if k == nil || !k.ahead || k.ctr != ctr {
		s.engine.Pad(pad[:], ctr)
		s.ks.Computed++
	}
	if raw != nil {
		*pt = block(raw)
		xorBlock(ct, pt, pad)
	} else {
		sealBlock(pt, ct, pad, vals)
	}
	if k != nil {
		k.ctr = ctr
		k.set, k.hashed, k.host, k.ahead = true, false, false, false
	}
	s.parent.dram.WriteBlockQuiet(addr, ct[:])
	return k
}

// Tile is a rectangle of an activation stored fmap by fmap from line Base,
// Rows rows of BPR blocks per fmap: rows [Y0, Y1) of fmaps [K0, K1). Row
// (k, y) is blocks y·BPR, y·BPR+1, … of fmap k, at lines
// Base + (k·Rows+y)·BPR, …. A tile call visits its rows fmap by fmap.
type Tile struct {
	Base           uint64
	Rows, BPR      int
	K0, K1, Y0, Y1 int
}

// Blocks is the number of blocks in the tile.
func (t Tile) Blocks() int { return t.rows() * t.BPR }

func (t Tile) rows() int { return (t.K1 - t.K0) * (t.Y1 - t.Y0) }

// row returns the fmap, the row and the first line of the tile's row i,
// counting fmap by fmap.
func (t Tile) row(i int) (k, y int, addr uint64) {
	k, y = t.K0+i/(t.Y1-t.Y0), t.Y0+i%(t.Y1-t.Y0)
	return k, y, t.Base + uint64((k*t.Rows+y)*t.BPR)
}

// RowValues yields the values of a tile's rows: RowValues(k, y) is row y
// of fmap k, which the row's BPR blocks pack sixteen values a block,
// zero-padded past the row's end. A row holds at most BPR·16 values.
type RowValues func(k, y int) []int32

// tileCall is what a tile call does with the blocks it seals: the layer
// whose counters and MAC positions they take at version vn; whether each
// block's MAC is recorded in its line's memo entry; and whether the MACs
// fold into the golden digest the call returns (a host write, which owes no
// register) or into MAC_W.
type tileCall struct {
	layer        uint32
	vn           int
	record, host bool
}

// tile seals every block of t, rows(k, y) block by block (put), and
// returns a host call's golden digest. No batch outlives the call. A row of
// more values than its blocks hold panics before the call touches a line, a
// memo entry or a lane: every row's length is checked first.
func (s *SeculatorShard) tile(t Tile, c tileCall, rows RowValues) mac.Digest {
	for i := 0; i < t.rows(); i++ {
		if k, y, _ := t.row(i); len(rows(k, y)) > t.BPR*intsPerBlock {
			panic(fmt.Sprintf("protect: tile row (%d, %d) of %d values for %d blocks", k, y, len(rows(k, y)), t.BPR))
		}
	}
	var g mac.Digest
	golden := &g
	if !c.host {
		golden = nil
	}
	m := s.parent
	for i := 0; i < t.rows(); i++ {
		k, y, addr := t.row(i)
		vals := rows(k, y)
		ctr := m.counter(c.layer, uint32(k), c.vn, uint32(y*t.BPR))
		for b := 0; b < t.BPR; b++ {
			s.put(&c, addr+uint64(b), ctr, BlockOf(vals, b), nil, golden)
			ctr.Block++
		}
	}
	s.settle(golden)
	return g
}

// put is the write sequence of one block: it seals the block — its values
// vals, or raw's 64 bytes — at line addr under ctr straight into the
// hasher's next lane, and queues its MAC, to be recorded in the line's memo
// entry when the call records. A batch it fills settles at once, folding as
// settle(golden) does; the caller settles the last.
func (s *SeculatorShard) put(c *tileCall, addr uint64, ctr crypto.Counter, vals []int32, raw []byte, golden *mac.Digest) {
	lane, n := s.rowh.Slot(s.parent.refAt(ctr))
	var rec *keystream
	if e := s.seal(addr, ctr, lane, vals, raw); c.record {
		rec = e
	}
	s.recs[n-1] = rec
	if n == mac.LaneCount {
		s.settle(golden)
	}
}

// settle hashes the MACs queued in the hasher's lanes, records each in its
// memo entry, if any, and folds them: into *golden for a host write, which
// owes no register; else into MAC_W, each counted as hashed by the loop.
func (s *SeculatorShard) settle(golden *mac.Digest) {
	m := s.parent
	for i, d := range s.rowh.Sum() {
		if k := s.recs[i]; k != nil {
			k.mac, k.hashed = d, true
		}
		if golden != nil {
			*golden = golden.Xor(d)
			continue
		}
		m.fold(toWrite, d, 1)
		m.hashing.Loop++
	}
}

// WriteTile encrypts and stores every block of a tile of the current
// layer's output, rows(k, y) its values, owing each block's MAC to MAC_W.
// Each block is encoded straight into the lane that hashes its MAC and
// sealed in the same pass (seal), and the tile's MACs are hashed in
// batches across its rows. final marks the rows' final version in their
// layer, the one the next layer's first reads ask for: each block's MAC is
// then also recorded in its line's memo entry as it is hashed.
func (s *SeculatorShard) WriteTile(t Tile, vn int, final bool, rows RowValues) {
	s.tile(t, tileCall{layer: s.parent.layer, vn: vn, record: final}, rows)
	s.n.OfmapWrites += t.Blocks()
	s.record(sim.Write, t.Blocks())
}

// HostWriteTile encrypts and stores every block of a tile of host-owned
// blocks, rows(k, y) its values, through seal — so each line's pad and
// ciphertext land in its memo entry, and so does each block's MAC — and
// returns the XOR of their MACs, hashed in batches across the rows, for the
// caller's golden digest. The layer-0 input load uses it: its first reads
// fold their MACs into MAC_FR, an observable register, so they take the
// recorded ones.
func (s *SeculatorShard) HostWriteTile(t Tile, ownerLayer uint32, vn int, rows RowValues) mac.Digest {
	g := s.tile(t, tileCall{layer: ownerLayer, vn: vn, record: true, host: true}, rows)
	s.n.HostWrites += t.Blocks()
	s.record(sim.Write, t.Blocks())
	return g
}

// HostStoreRow is the weight host store: it encrypts and stores a row of n
// blocks holding vals — blocks blockIdx, blockIdx+1, … at lines addr,
// addr+1, … — as HostWriteTile stores one, but hashes nothing. Each line's
// memo entry keeps the pad, counter and ciphertext seal records, marked
// host, which is all the weight check needs: a first read (ReadStatic) or
// the unread pass (UnreadWeight) that meets these bytes under this counter
// owes nothing, and one that does not recovers the host's plaintext from
// the entry. The lines must lie inside the keystream memo, and the row
// hold at least one block and at most n·16 values; a row that does not
// panics before it touches an entry or a line.
func (s *SeculatorShard) HostStoreRow(addr uint64, ownerLayer, fmapID uint32, vn int, blockIdx uint32, n int, vals []int32) {
	if n < 1 || len(vals) > n*intsPerBlock {
		panic(fmt.Sprintf("protect: a weight row of %d values in %d blocks", len(vals), n))
	}
	m := s.parent
	ks := m.entries(addr, n)
	ctr := m.counter(ownerLayer, fmapID, vn, blockIdx)
	for b := range ks {
		s.seal(addr+uint64(b), ctr, &s.pt, BlockOf(vals, b), nil).host = true
		ctr.Block++
	}
	s.n.HostWrites += n
	s.record(sim.Write, n)
}

// PadAhead computes the pads of n consecutive lines — addr, addr+1, … under
// the counters of blocks blockIdx, blockIdx+1, … of (layer, fmapID, vn) —
// into their memo entries, marked ahead, dropping whatever the entries
// recorded: the first write of each line under exactly that counter
// (seal) takes the pad instead of computing it, and clears the mark.
// The pads count as computed, and as ahead. The lines must lie inside the
// keystream memo, and no other goroutine may touch their entries until the
// caller publishes them.
func (s *SeculatorShard) PadAhead(addr uint64, layer, fmapID uint32, vn int, blockIdx uint32, n int) {
	ctr := s.parent.counter(layer, fmapID, vn, blockIdx)
	ks := s.parent.entries(addr, n)
	for i := range ks {
		k := &ks[i]
		s.engine.Pad(k.pad[:], ctr)
		k.ctr = ctr
		k.set, k.hashed, k.host, k.ahead = false, false, false, true
		ctr.Block++
	}
	s.ks.Computed += n
	s.ks.Ahead += n
}
