package protect

import (
	"bytes"
	"slices"
	"testing"

	"seculator/internal/mem"
	"seculator/internal/tensor"
)

// runTamper is the adversary of the ReadInputRun differential: an injector
// that logs every read it sees and mutates reads by a schedule of (read,
// offset, mask) byte triples — read%n is the 0-based call the flip lands on,
// offset&63 the byte, mask the XOR. A flip is transient (that fetch only: the
// next read sees the stored line again, A-B-A) unless offset's top bit is set,
// which also flips the stored line, so every later read sees it (A-B-B).
type runTamper struct {
	d       *mem.DRAM
	n       int
	sched   []byte
	calls   int
	log     [][2]uint64               // (line address, call index)
	fetched [][tensor.BlockBytes]byte // what each read returned, flips included
}

func (p *runTamper) OnRead(addr uint64, data []byte) {
	p.log = append(p.log, [2]uint64{addr, uint64(p.calls)})
	for i := 0; i+2 < len(p.sched); i += 3 {
		if int(p.sched[i])%p.n != p.calls {
			continue
		}
		off, mask := int(p.sched[i+1]&63), p.sched[i+2]
		data[off] ^= mask
		if p.sched[i+1]&0x80 != 0 {
			p.d.Tamper(addr, off, mask)
		}
	}
	p.fetched = append(p.fetched, [tensor.BlockBytes]byte(data))
	p.calls++
}

func (p *runTamper) OnWrite(uint64, []byte) {}

// runOutcome is everything a run of reads leaves behind that anything can
// observe, and what it cost.
type runOutcome struct {
	regs    RegisterState
	counts  BlockCounts
	traffic mem.TrafficStats
	pt      []byte // the first read's plaintext
	log     [][2]uint64
	hashing Hashing
	pads    Keystreams
}

// readRunOutcome writes one block as layer 1, then reads it n times as layer
// 2 under the tamper schedule — through one ReadInputRun, or through n
// ReadInput calls — and merges. It also returns the shard, for white-box
// checks of its staging.
func readRunOutcome(t *testing.T, n int, first bool, sched []byte, asRun bool) (runOutcome, *SeculatorShard) {
	t.Helper()
	const addr, fmap, vn, idx = 3, 2, 1, 5
	d := shardTestDRAM(t)
	d.Reserve(8)
	m := NewSeculatorMemory(d, 7, 9)
	sh := m.Shard()
	m.BeginLayer(1)
	sh.WriteTile(rowTile(addr, fmap, idx, 1), vn, false, packed(rowTile(addr, fmap, idx, 1), shardPattern(11)))
	m.Merge(sh)
	m.BeginLayer(2)
	tap := &runTamper{d: d, n: n, sched: sched}
	d.SetInjector(tap)

	var pt []byte
	if asRun {
		pt = readRun(sh, addr, 1, fmap, vn, idx, first, n)
	} else {
		for i := 0; i < n; i++ {
			got := readRun(sh, addr, 1, fmap, vn, idx, first && i == 0, 1)
			if i == 0 {
				pt = got
			}
		}
	}
	m.Merge(sh)
	return runOutcome{m.RegisterSnapshot(), m.BlockCounts(), d.Traffic(), pt, tap.log, m.Hashing(), m.Keystreams()}, sh
}

// checkReadInputRun is the differential: ReadInputRun(…, first, n) and n
// ReadInput calls must be indistinguishable — registers, fold counts, block
// counts, DRAM traffic, the plaintext handed back and what the injector saw.
func checkReadInputRun(t *testing.T, n int, first bool, sched []byte) {
	t.Helper()
	run, _ := readRunOutcome(t, n, first, sched, true)
	ref, _ := readRunOutcome(t, n, first, sched, false)
	if run.regs != ref.regs {
		t.Errorf("registers: run %+v, reads %+v", run.regs, ref.regs)
	}
	if run.counts != ref.counts || run.counts.Reads() != n {
		t.Errorf("block counts: run %+v, reads %+v, want %d reads", run.counts, ref.counts, n)
	}
	if run.traffic != ref.traffic {
		t.Errorf("DRAM traffic: run %+v, reads %+v", run.traffic, ref.traffic)
	}
	if !bytes.Equal(run.pt, ref.pt) {
		t.Errorf("plaintext: run %x, reads %x", run.pt, ref.pt)
	}
	if !slices.Equal(run.log, ref.log) || len(run.log) != n {
		t.Errorf("injector saw %v on the run, %v on the reads, want %d calls", run.log, ref.log, n)
	}
}

// TestReadInputRunMatchesReads walks the named tamper schedules over a few
// run lengths, both first flags.
func TestReadInputRunMatchesReads(t *testing.T) {
	for name, sched := range map[string][]byte{
		"none":             nil,
		"first read":       {0, 3, 0x40},
		"middle read":      {2, 9, 0x01},
		"last read":        {255, 63, 0x80}, // 255%n is n-1 for n = 1, 2, 4, 6 (not 32: read 31)
		"persistent":       {1, 0x80 | 7, 0x10},
		"flip and restore": {1, 0x80 | 7, 0x10, 3, 0x80 | 7, 0x10},
		"several":          {1, 1, 2, 2, 1, 2, 4, 0x80, 0xff, 5, 60, 8},
		"same read twice":  {2, 5, 1, 2, 5, 1},
	} {
		for _, n := range []int{1, 2, 4, 6, 32} {
			for _, first := range []bool{true, false} {
				checkReadInputRun(t, n, first, sched)
				if t.Failed() {
					t.Fatalf("schedule %q, n = %d, first = %v", name, n, first)
				}
			}
		}
	}
}

// TestReadInputRunSkipsUnchangedLines is the other half: the run is cheaper
// only because an unchanged line is not decrypted again. With no memo, a
// re-read that differs from the read before it costs a pad and a MAC, and
// one that does not costs neither, so the tallies show which path ran.
func TestReadInputRunSkipsUnchangedLines(t *testing.T) {
	// The write before the reads computed one pad and hashed one MAC.
	clean, _ := readRunOutcome(t, 6, true, nil, true)
	if clean.hashing.Loop != 1+1 || clean.pads.Computed != 1+1 {
		t.Fatalf("six reads of an untouched line: %+v, %+v; a re-read was decrypted", clean.hashing, clean.pads)
	}
	flipped, _ := readRunOutcome(t, 6, true, []byte{0, 3, 0x40}, true)
	if flipped.hashing.Loop != 1+2 || flipped.pads.Computed != 1+2 {
		t.Fatalf("a flipped first read: %+v, %+v; the re-read that differs was not decrypted", flipped.hashing, flipped.pads)
	}
}

// FuzzReadInputRun drives the differential from fuzz input: run length 1…32,
// the first flag, and a tamper schedule (see runTamper). The seed corpus is
// committed under testdata/fuzz.
func FuzzReadInputRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, first bool, sched []byte) {
		checkReadInputRun(t, 1+int(n%32), first, sched)
	})
}
