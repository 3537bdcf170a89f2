package protect

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"seculator/internal/crypto"
	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/tensor"
)

// The keystream memo is a memo of pure functions — the pad of a counter, the
// MAC of a ciphertext under a counter — so a memory whose memo is reserved
// and one whose memo never is — where every pad is computed and every MAC
// hashed — must be indistinguishable to everything but the pad and MAC
// tallies, under any DRAM mutation between operations and any injector
// during them. The weight path keeps its host state in the memo and has no
// memo-less form, so the reference side runs its ops through refMemory and
// a model of the weight check's arithmetic: the XOR, per first weight read,
// of the fetched block's MAC and the MAC of what the line's weight host
// store stored.

const (
	memoLines = 16 // lines the memo covers
	fuzzLines = 20 // lines the ops address; a row written at the last may run two past
	fuzzOpLen = 5  // bytes per op
)

// memoArm is one side of the differential: a memory, its one shard, its DRAM
// and injector, and the line its last Snapshot op captured. The
// reference arm also runs the weight ops through rm and keeps the model's
// tallies of them, since the last Recycle (weights since the last layer
// began): the weight fold, the block counts and pads they add and the MACs
// the memo arm owes for them.
type memoArm struct {
	d    *mem.DRAM
	m    *SeculatorMemory
	sh   *SeculatorShard
	tap  *runTamper
	snap []byte

	rm      *refMemory
	weights mac.Digest
	extra   BlockCounts
	pads    int
	macs    int
}

func newMemoArm(t *testing.T, memo bool, sched []byte) *memoArm {
	t.Helper()
	d := shardTestDRAM(t)
	d.Reserve(fuzzLines)
	m := NewSeculatorMemory(d, 7, 9)
	if memo {
		m.ReserveKeystreams(memoLines)
	}
	a := &memoArm{d: d, m: m, sh: m.Shard(), tap: &runTamper{d: d, n: 256, sched: sched},
		rm: newRefMemory(d, 7, 9)}
	d.SetInjector(a.tap)
	m.BeginLayer(1)
	return a
}

// fuzzCounter decodes a counter from one byte: small fields, so counters
// drawn apart collide often enough to hit entries they did not aim at.
func fuzzCounter(b byte) crypto.Counter {
	return crypto.Counter{Fmap: uint32(b & 3), Layer: uint32(b >> 2 & 3), VN: uint32(1 + b>>4&1), Block: uint32(b >> 5)}
}

// fuzzRow is k packed pattern blocks.
func fuzzRow(k int, seed byte) []byte {
	row := make([]byte, 0, k*tensor.BlockBytes)
	for b := 0; b < k; b++ {
		row = append(row, shardPattern(int(seed)+b)...)
	}
	return row
}

// lineWrite is what the reuse model knows of a line's last shard write: its
// counter, the ciphertext it stored, whether it records its MAC, and — for a
// weight host store — the plaintext the host stored.
type lineWrite struct {
	ctr      crypto.Counter
	ct       [tensor.BlockBytes]byte
	recorded bool
	host     *[tensor.BlockBytes]byte
}

// checkKeystreamMemo runs the op sequence on both arms. An op is five bytes
// (op, addr, a, b, c):
//
//	0 WriteTile     of 1+a%3 blocks from counter b (current layer), pattern
//	                c (rowTile); final if a&4; with a&16 the memo arm first
//	                pads the blocks' lines inside the memo ahead (PadAhead),
//	                under their counters, or with a&32 under counter c
//	1 HostWriteTile of 1+a%3 blocks from counter b, pattern c (rowTile);
//	                with a&4 HostStoreRow, its row moved inside the memo
//	2 ReadInputRun  counter: the line's last write's if a%4 != 0, else b;
//	                first = c&1, run length 1+(c>>1)%4
//	3 ReadPartial   counter as 2, in the current layer
//	4 ReadStatic    counter as 2, first = c&1, its line moved inside the memo
//	5 DRAM attack   a%4: Tamper(addr, b&63, c|1), Swap(addr, b), Snapshot(addr), Restore(addr)
//	6 next layer    merge, compare, verify the layer before, BeginLayer
//	7 Recycle       merge, compare, recycle memory, shard and DRAM
//
// Reads, digests, registers, the weight fold, block counts, traffic and
// every DRAM line must agree; the memo arm must reuse a pad exactly when the
// line's last shard write computed it for the read's counter, compute every
// other one, and take a pad computed ahead exactly when the write's counter
// is the one it was computed for; and it must take a read's MAC from the
// memo exactly when the model predicts it — a first ReadInputRun fetch of
// the bytes the line's last write stored, under its counter, by a write that
// records its MAC — hash every other one, and hash nothing for a first
// ReadStatic of the bytes a weight host store stored, under its counter. It
// returns how many reads hashed nothing.
func checkKeystreamMemo(t *testing.T, ops, sched []byte) (reused int) {
	t.Helper()
	memo, ref := newMemoArm(t, true, sched), newMemoArm(t, false, sched)
	arms := [2]*memoArm{memo, ref}
	last := map[uint64]lineWrite{} // each line's last shard write since the last Recycle
	layer := uint32(1)
	wasted := 0 // pads the memo arm computed ahead that no write took, since the last Recycle
	for len(ops) >= fuzzOpLen {
		op, addr, a, b, c := ops[0]%8, uint64(ops[1]%fuzzLines), ops[2], ops[3], ops[4]
		ops = ops[fuzzOpLen:]
		k := 1 + int(a%3)
		switch {
		case op == 1 && a&4 != 0:
			addr %= uint64(memoLines - k + 1)
		case op == 4:
			addr %= memoLines
		}
		what := fmt.Sprintf("op %d at line %d (%d %d %d)", op, addr, a, b, c)

		w, written := last[addr]
		ctr := fuzzCounter(b)
		if written && a%4 != 0 {
			ctr = w.ctr
		}
		if op == 3 {
			ctr.Layer = layer
		}
		hit := written && addr < memoLines && w.ctr == ctr
		ksBefore := [2]Keystreams{*memo.sh.ks, *ref.sh.ks}
		reusedBefore, fetchedBefore := memo.m.Hashing().Reused, len(memo.tap.fetched)
		refPads, ahead, wastedBefore := 0, 0, wasted
		var got [2][]byte
		switch op {
		case 0, 1:
			wc := fuzzCounter(b)
			if op == 0 {
				wc.Layer = layer
			}
			host := op == 1 && a&4 != 0
			row := fuzzRow(k, c)
			if op == 0 && a&16 != 0 && addr < memoLines {
				ahead = min(k, memoLines-int(addr))
				pc := wc
				if a&32 != 0 {
					pc = fuzzCounter(c)
				}
				memo.sh.PadAhead(addr, pc.Layer, pc.Fmap, int(pc.VN), pc.Block, ahead)
				if pc != wc {
					wasted += ahead
				}
			}
			tile := rowTile(addr, wc.Fmap, wc.Block, k)
			for i, arm := range arms {
				switch {
				case host && i == 1:
					for j := 0; j < k; j++ {
						o := j * tensor.BlockBytes
						arm.rm.hostStore(addr+uint64(j), wc.Layer, wc.Fmap, int(wc.VN), wc.Block+uint32(j), row[o:o+tensor.BlockBytes])
					}
					arm.extra.HostWrites += k
					refPads = k
				case host:
					arm.sh.HostStoreRow(addr, wc.Layer, wc.Fmap, int(wc.VN), wc.Block, k, ints(row))
				case op == 1:
					g := arm.sh.HostWriteTile(tile, wc.Layer, int(wc.VN), packed(tile, row))
					got[i] = g[:]
				default:
					arm.sh.WriteTile(tile, int(wc.VN), a&4 != 0, packed(tile, row))
				}
			}
			for i := 0; i < k; i++ {
				lw := lineWrite{ctr: wc, recorded: op == 1 && !host || op == 0 && a&4 != 0}
				copy(lw.ct[:], memo.d.Peek(addr+uint64(i)))
				if host {
					lw.host = (*[tensor.BlockBytes]byte)(row[i*tensor.BlockBytes:])
				}
				last[addr+uint64(i)] = lw
				wc.Block++
			}
		case 2:
			for i, arm := range arms {
				got[i] = readRun(arm.sh, addr, ctr.Layer, ctr.Fmap, int(ctr.VN), ctr.Block, c&1 != 0, 1+int(c>>1)%4)
			}
		case 3:
			for i, arm := range arms {
				got[i] = readPartial(arm.sh, addr, ctr.Fmap, int(ctr.VN), ctr.Block)
			}
		case 4:
			pt, d := ref.rm.read(addr, ctr.Layer, ctr.Fmap, int(ctr.VN), ctr.Block)
			got[1], refPads = pt, 1
			if c&1 == 0 {
				// A repeat decodes nothing: it reports whether the line decodes
				// to the values it is given, here the reference's.
				if memo.sh.ReadStatic(addr, ctr.Layer, ctr.Fmap, int(ctr.VN), ctr.Block, false, ints(pt)) {
					got[0] = pt
				}
				ref.extra.WeightRepeat++
				break
			}
			got[0] = readStatic(memo.sh, addr, ctr.Layer, ctr.Fmap, int(ctr.VN), ctr.Block)
			ref.extra.WeightFirst++
			ref.macs++
			if written && w.host != nil {
				hc := w.ctr
				d = d.Xor(mac.BlockMAC(mac.BlockRef{Secret: 7, Layer: hc.Layer, Fmap: hc.Fmap, VN: hc.VN, Index: hc.Block}, w.host[:]))
				if w.ctr != ctr || memo.tap.fetched[fetchedBefore] != w.ct {
					ref.macs++ // the host's MAC, beside the fetched block's
				}
			}
			ref.weights = ref.weights.Xor(d)
		case 5:
			for _, arm := range arms {
				switch a % 4 {
				case 0:
					arm.d.Tamper(addr, int(b&63), c|1)
				case 1:
					arm.d.Swap(addr, uint64(b%fuzzLines))
				case 2:
					arm.snap, _ = arm.d.Snapshot(addr)
				case 3:
					arm.d.Restore(addr, arm.snap)
				}
			}
		case 6, 7:
			sameMemoState(t, what, memo, ref)
			if op == 6 {
				e0, e1 := memo.m.VerifyPreviousLayer(mac.Digest{}), ref.m.VerifyPreviousLayer(mac.Digest{})
				if fmt.Sprint(e0) != fmt.Sprint(e1) {
					t.Fatalf("%s: Equation 1 says %v with the memo, %v without", what, e0, e1)
				}
				layer++
			} else {
				clear(last)
				ref.extra, ref.pads, ref.macs, wasted = BlockCounts{}, 0, 0, 0
			}
			ref.weights = mac.Digest{}
			for _, arm := range arms {
				if op == 7 {
					arm.sh.Recycle()
					if !arm.m.Recycle(arm.d, 7, 9) {
						t.Fatal("Recycle refused the memory's own identity")
					}
					arm.d.Reset()
					arm.d.SetInjector(arm.tap)
				}
				arm.m.BeginLayer(layer)
			}
		}
		ref.pads += refPads
		if !bytes.Equal(got[0], got[1]) {
			t.Fatalf("%s: %x with the memo, %x without", what, got[0], got[1])
		}
		// The model's MAC reuse: a first ReadInputRun fetch of exactly what a
		// recording write stored, under its counter; a first ReadStatic fetch
		// of exactly what a weight host store stored, under its counter.
		wantReused := 0
		if hit && (op == 2 || op == 4 && c&1 != 0) {
			fetched := memo.tap.fetched[fetchedBefore]
			if op == 2 && w.recorded && fetched == w.ct || op == 4 && w.host != nil && fetched == w.ct {
				wantReused = 1
			}
		}
		if d := memo.m.Hashing().Reused - reusedBefore; op < 6 && d != wantReused {
			t.Fatalf("%s: %d reads hashed nothing, the model predicts %d", what, d, wantReused)
		}
		reused += wantReused
		if ref.m.Hashing().Reused != 0 {
			t.Fatalf("%s: a memory with no memo reused a MAC", what)
		}
		dm, dr := *memo.sh.ks, *ref.sh.ks
		dm.Computed -= ksBefore[0].Computed
		dm.Reused -= ksBefore[0].Reused
		dm.Ahead -= ksBefore[0].Ahead
		dr.Computed -= ksBefore[1].Computed
		dr.Reused -= ksBefore[1].Reused
		if op <= 1 && dm.Reused != 0 {
			t.Fatalf("%s: pads %+v with the memo: a write reused a pad", what, dm)
		}
		if op < 6 && (dm.Ahead != ahead || dr.Reused != 0 || dr.Ahead != 0 ||
			dm.Computed+dm.Reused != dr.Computed+refPads+wasted-wastedBefore) {
			t.Fatalf("%s: pads %+v with the memo, %+v (and %d uncounted) without, %d ahead, %d of them untaken: the same pads, counted apart",
				what, dm, dr, refPads, ahead, wasted-wastedBefore)
		}
		if op >= 2 && op <= 4 && (hit && dm.Computed != 0 || !hit && dm.Reused != 0) {
			t.Fatalf("%s: pads %+v with the memo; a reuse expected: %v", what, dm, hit)
		}
	}
	sameMemoState(t, "the end", memo, ref)
	if km, kr := memo.m.Keystreams(), ref.m.Keystreams(); kr.Reused != 0 || km.Ahead > km.Computed ||
		km.Computed+km.Reused != kr.Computed+ref.pads+wasted {
		t.Fatalf("merged pads %+v with the memo, %+v (and %d uncounted, %d untaken ahead) without", km, kr, ref.pads, wasted)
	}
	return reused
}

// sameMemoState merges both arms and compares everything they expose, the
// reference arm's weight ops as its model tallied them.
func sameMemoState(t *testing.T, what string, memo, ref *memoArm) {
	t.Helper()
	memo.m.Merge(memo.sh)
	ref.m.Merge(ref.sh)
	if g, w := memo.m.RegisterSnapshot(), ref.m.RegisterSnapshot(); g != w {
		t.Fatalf("%s: registers\n with the memo %+v\n without       %+v", what, g, w)
	}
	if g, w := memo.m.WeightDigest(), ref.weights; g != w {
		t.Fatalf("%s: weight fold %v, the reference's golden ⊕ reads %v", what, g, w)
	}
	want := ref.m.BlockCounts()
	want.add(ref.extra)
	if g := memo.m.BlockCounts(); g != want {
		t.Fatalf("%s: block counts %+v with the memo, %+v without", what, g, want)
	}
	if memo.d.Traffic() != ref.d.Traffic() || memo.d.Lines() != ref.d.Lines() {
		t.Fatalf("%s: DRAM traffic or line count differs", what)
	}
	// A MAC is owed once either way; the memo only changes who produced it.
	// A weight read owes the fetched block's, and the host's unless the two
	// cancel.
	hm, hr := memo.m.Hashing(), ref.m.Hashing()
	if hr.Reused != 0 || hm.Loop+hm.Reused != hr.Loop+ref.macs {
		t.Fatalf("%s: MACs %+v with the memo, %+v and %d weight MACs without", what, hm, hr, ref.macs)
	}
	for a := uint64(0); a < fuzzLines+2; a++ {
		g, w := memo.d.Peek(a), ref.d.Peek(a)
		if !bytes.Equal(g, w) || (g == nil) != (w == nil) {
			t.Fatalf("%s: DRAM line %d is %x with the memo, %x without", what, a, g, w)
		}
	}
}

// FuzzKeystreamMemo drives the differential from fuzz input: an op sequence
// (see checkKeystreamMemo) and an injector schedule (see runTamper). The seed
// corpus is committed under testdata/fuzz.
func FuzzKeystreamMemo(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops, sched []byte) {
		checkKeystreamMemo(t, ops[:min(len(ops), 64*fuzzOpLen)], sched)
	})
}

// TestKeystreamMemoReusesWrites: on a clean write-then-read sequence every
// read decrypts with the pad its line's write computed, so the memo arm
// computes one pad per written block and the reference one per pad used.
func TestKeystreamMemoReusesWrites(t *testing.T) {
	arm := newMemoArm(t, true, nil)
	arm.sh.WriteTile(rowTile(0, 2, 0, 3), 1, false, packed(rowTile(0, 2, 0, 3), fuzzRow(3, 9)))
	for i := uint64(0); i < 3; i++ {
		arm.sh.ReadStatic(i, 1, 2, 1, uint32(i), true, nil)
		arm.sh.ReadPartial(i, 2, 1, uint32(i), nil)
	}
	arm.sh.ReadInputRun(1, 1, 2, 1, 1, true, 4, nil)
	arm.sh.ReadStatic(1, 1, 2, 2, 1, false, nil) // another VN: computed
	arm.m.Merge(arm.sh)
	if got, want := arm.m.Keystreams(), (Keystreams{Computed: 4, Reused: 7}); got != want {
		t.Fatalf("pads %+v, want %+v", got, want)
	}
}

// TestMACMemoReusesRecordingWrites walks the MAC memo's cases through the
// differential: a read takes the recorded MAC after a final write or a host
// input write, and hashes after a
// non-final write, under another counter, after a tamper, after a later
// write over a recorded one, and after a Recycle. A first weight read hashes
// nothing when it fetches what a weight host store stored, under its
// counter; otherwise it owes the fetched block's MAC and the host's — and a
// host input write is no weight store.
func TestMACMemoReusesRecordingWrites(t *testing.T) {
	ops := []byte{
		0, 2, 4, 0x21, 5, // final WriteTile of lines 2, 3
		6, 0, 0, 0, 0, // next layer
		2, 2, 1, 0, 1, // first read of line 2: reused
		2, 3, 1, 0, 6, // a run of four repeat reads of line 3: the first fetch reused
		0, 5, 0, 0x21, 7, // non-final WriteTile of line 5
		6, 0, 0, 0, 0,
		2, 5, 1, 0, 1, // hashed: nothing recorded
		1, 8, 1, 0x05, 9, // HostWriteTile of lines 8, 9
		2, 8, 1, 0, 1, // first input read of line 8: reused
		4, 9, 1, 0, 1, // first weight read of line 9: hashed, no weight store wrote it
		1, 8, 5, 0x05, 9, // HostStoreRow of lines 8, 9, 10
		4, 8, 1, 0, 1, // first weight read of line 8: nothing hashed
		4, 9, 1, 0, 0, // a repeat weight read: no MAC at all
		5, 9, 0, 3, 0x10, // tamper line 9
		4, 9, 1, 0, 1, // both MACs: the bytes differ
		4, 10, 0, 0x7f, 1, // line 10 under another counter: both MACs
		2, 8, 0, 0x7f, 1, // an input read of line 8 under another counter: hashed
		1, 11, 0, 0x05, 3, // HostWriteTile of line 11 ...
		0, 11, 0, 0x22, 4, // ... overwritten by a non-final WriteTile
		6, 0, 0, 0, 0,
		2, 11, 1, 0, 1, // hashed: the later write dropped the record
		0, 13, 12, 0x40, 11, // final WriteTile of line 13
		6, 0, 0, 0, 0,
		2, 13, 1, 0, 1, // reused
		7, 0, 0, 0, 0, // Recycle
		2, 2, 1, 0x21, 1, // hashed: the memo is empty
	}
	if n := checkKeystreamMemo(t, ops, nil); n != 5 {
		t.Fatalf("%d reads hashed nothing, want 5: lines 2, 3, 8 (twice) and 13", n)
	}
	// The entry stays compact: the pad, counter and flag it had, plus the
	// ciphertext, the MAC and three flags — the host and ahead marks fit in
	// what was padding.
	if got := reflect.TypeOf(keystream{}).Size(); got > 180 {
		t.Fatalf("a keystream memo entry is %d bytes", got)
	}
}

// TestPadAheadTakenOnce walks the pads computed ahead through the
// differential: a write under the counter a pad was computed for takes it
// and clears the mark, so the same write again computes its pads; a pad
// computed for another counter is not taken; a row that runs past the memo
// pads only its lines inside it; Recycle drops the marks with the entries.
func TestPadAheadTakenOnce(t *testing.T) {
	ops := []byte{
		0, 0, 16, 0x21, 5, // lines 0, 1 padded ahead, then written: both pads taken
		0, 0, 1, 0x21, 5, // the same counters, not padded ahead: computed
		0, 4, 48, 0x21, 5, // line 4 padded ahead under another counter: not taken
		0, 15, 16 | 1, 0x02, 9, // lines 15 – 17: only line 15 padded ahead, and taken
		0, 6, 16, 0x03, 1, // lines 6, 7 padded ahead and written ...
		6, 0, 0, 0, 0,
		2, 6, 1, 0, 1, // ... and read with the pads the writes took
		0, 9, 16 | 4, 0x04, 2, // a final write of lines 9 – 11 padded ahead
		7, 0, 0, 0, 0, // Recycle
		0, 0, 2, 0x21, 5, // computed: the memo is empty
	}
	checkKeystreamMemo(t, ops, nil)
}
