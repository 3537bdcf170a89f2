package mem

import (
	"bytes"
	"testing"
	"testing/quick"

	"seculator/internal/sim"
	"seculator/internal/tensor"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := (Config{Channels: 0, BlocksPerCycle: 1}).Validate(); err == nil {
		t.Fatal("zero channels accepted")
	}
	if err := (Config{Channels: 1, BlocksPerCycle: 0}).Validate(); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted invalid config")
	}
}

func mustNew(t *testing.T, cfg Config) *DRAM {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return d
}

func TestServiceTime(t *testing.T) {
	d := mustNew(t, Config{Channels: 2, LatencyCycles: 100, BlocksPerCycle: 0.25})
	if d.ServiceTime(0) != 0 {
		t.Fatal("zero blocks should be free")
	}
	// 1 block at 0.25 blocks/cycle -> 4 transfer cycles + 100 latency.
	if got := d.ServiceTime(1); got != 104 {
		t.Fatalf("ServiceTime(1) = %d, want 104", got)
	}
	// 10 blocks -> 40 transfer cycles.
	if got := d.ServiceTime(10); got != 140 {
		t.Fatalf("ServiceTime(10) = %d, want 140", got)
	}
}

func TestServiceTimeMonotoneProperty(t *testing.T) {
	d := mustNew(t, DefaultConfig())
	f := func(a, b uint8) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		return d.ServiceTime(x) <= d.ServiceTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRecordTraffic(t *testing.T) {
	d := mustNew(t, DefaultConfig())
	d.Record(sim.Read, sim.DataTraffic, 10)
	d.Record(sim.Write, sim.DataTraffic, 5)
	d.Record(sim.Read, sim.MACTraffic, 3)
	d.Record(sim.Read, sim.MACTraffic, 0) // no-op
	tr := d.Traffic()
	if tr.Total() != 18 {
		t.Fatalf("Total = %d", tr.Total())
	}
	if tr.ByKind(sim.DataTraffic) != 15 || tr.ByKind(sim.MACTraffic) != 3 {
		t.Fatalf("per-kind wrong: %+v", tr)
	}
	if tr.Overhead() != 3 {
		t.Fatalf("Overhead = %d", tr.Overhead())
	}
	d.ResetTraffic()
	if d.Traffic().Total() != 0 {
		t.Fatal("ResetTraffic failed")
	}
}

func payload(seed byte) []byte {
	b := make([]byte, tensor.BlockBytes)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

func TestBackingStoreRoundTrip(t *testing.T) {
	d := mustNew(t, DefaultConfig())
	p := payload(3)
	d.WriteBlock(42, p, sim.DataTraffic)
	got := make([]byte, tensor.BlockBytes)
	d.ReadBlock(42, got, sim.DataTraffic)
	if !bytes.Equal(got, p) {
		t.Fatal("store round trip failed")
	}
	// Unwritten lines read as zero.
	d.ReadBlock(99, got, sim.DataTraffic)
	if !bytes.Equal(got, make([]byte, tensor.BlockBytes)) {
		t.Fatal("unwritten line not zero")
	}
	if d.Lines() != 1 {
		t.Fatalf("Lines = %d", d.Lines())
	}
	tr := d.Traffic()
	if tr.WriteBlocks[sim.DataTraffic] != 1 || tr.ReadBlocks[sim.DataTraffic] != 2 {
		t.Fatalf("traffic accounting: %+v", tr)
	}
}

func TestWriteBlockCopies(t *testing.T) {
	d := mustNew(t, DefaultConfig())
	p := payload(1)
	d.WriteBlock(1, p, sim.DataTraffic)
	p[0] ^= 0xFF // caller mutates its buffer afterwards
	got := make([]byte, tensor.BlockBytes)
	d.ReadBlock(1, got, sim.DataTraffic)
	if got[0] == p[0] {
		t.Fatal("WriteBlock must copy the payload")
	}
}

func TestBadSizesPanic(t *testing.T) {
	d := mustNew(t, DefaultConfig())
	for _, f := range []func(){
		func() { d.WriteBlock(0, make([]byte, 8), sim.DataTraffic) },
		func() { d.ReadBlock(0, make([]byte, 8), sim.DataTraffic) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("short buffer should panic")
				}
			}()
			f()
		}()
	}
}

func TestAttackerPrimitives(t *testing.T) {
	d := mustNew(t, DefaultConfig())
	d.WriteBlock(1, payload(1), sim.DataTraffic)
	d.WriteBlock(2, payload(2), sim.DataTraffic)

	// Tamper.
	if !d.Tamper(1, 5, 0xFF) {
		t.Fatal("Tamper failed")
	}
	if d.Tamper(99, 0, 1) {
		t.Fatal("Tamper on missing line should fail")
	}
	if d.Tamper(1, -1, 1) || d.Tamper(1, 64, 1) {
		t.Fatal("Tamper out of range should fail")
	}
	if d.Peek(1)[5] != payload(1)[5]^0xFF {
		t.Fatal("Tamper did not flip the byte")
	}

	// Swap.
	before1, _ := d.Snapshot(1)
	before2, _ := d.Snapshot(2)
	if !d.Swap(1, 2) {
		t.Fatal("Swap failed")
	}
	if !bytes.Equal(d.Peek(1), before2) || !bytes.Equal(d.Peek(2), before1) {
		t.Fatal("Swap did not exchange payloads")
	}
	if d.Swap(1, 99) {
		t.Fatal("Swap with missing line should fail")
	}

	// Replay: snapshot, overwrite, restore.
	snap, ok := d.Snapshot(1)
	if !ok {
		t.Fatal("Snapshot failed")
	}
	d.WriteBlock(1, payload(9), sim.DataTraffic)
	if !d.Restore(1, snap) {
		t.Fatal("Restore failed")
	}
	if !bytes.Equal(d.Peek(1), snap) {
		t.Fatal("Restore did not replay the old payload")
	}
	if _, ok := d.Snapshot(12345); ok {
		t.Fatal("Snapshot of missing line should fail")
	}
	if d.Restore(1, make([]byte, 8)) {
		t.Fatal("Restore with wrong size should fail")
	}
}

func TestDefaultConfigShape(t *testing.T) {
	c := DefaultConfig()
	if c.Channels != 2 || c.LatencyCycles != 100 {
		t.Fatalf("default config diverges from Table 1: %+v", c)
	}
}

func TestRowBufferGeometry(t *testing.T) {
	if _, err := NewRowBuffer(0, 1, 1); err == nil {
		t.Fatal("zero channels accepted")
	}
	m := mustRowBuffer(t, 2, 4, 8)
	// Sequential blocks within a row: one miss, then hits.
	for i := uint64(0); i < 8; i++ {
		m.Access(i)
	}
	hits, misses := m.Stats()
	if misses != 1 || hits != 7 {
		t.Fatalf("sequential: hits=%d misses=%d", hits, misses)
	}
	if m.HitRate() != 7.0/8.0 {
		t.Fatalf("hit rate = %g", m.HitRate())
	}
	if c := m.Cycles(10, 38); c != 7*10+38 {
		t.Fatalf("cycles = %d", c)
	}
	m.Reset()
	if h, ms := m.Stats(); h != 0 || ms != 0 {
		t.Fatal("Reset failed")
	}
}

func TestRowBufferRejectsBadGeometry(t *testing.T) {
	if _, err := NewRowBuffer(0, 0, 0); err == nil {
		t.Fatal("NewRowBuffer should reject degenerate geometry")
	}
}

func mustRowBuffer(t *testing.T, channels, banks, rowBlocks int) *RowBufferModel {
	t.Helper()
	m, err := NewRowBuffer(channels, banks, rowBlocks)
	if err != nil {
		t.Fatalf("NewRowBuffer(%d, %d, %d): %v", channels, banks, rowBlocks, err)
	}
	return m
}

// Interleaving a second, far-away stream with a sequential one destroys
// row locality when both map to the same bank row group.
func TestRowBufferInterleavingHurts(t *testing.T) {
	seq := mustRowBuffer(t, 1, 1, 8)
	for i := uint64(0); i < 64; i++ {
		seq.Access(i)
	}
	mixed := mustRowBuffer(t, 1, 1, 8)
	for i := uint64(0); i < 64; i++ {
		mixed.Access(i)
		mixed.Access(1 << 20) // metadata detour to a distant row
	}
	if mixed.HitRate() >= seq.HitRate() {
		t.Fatalf("interleaving did not hurt: %.3f >= %.3f", mixed.HitRate(), seq.HitRate())
	}
}

func TestRowBufferAccessRange(t *testing.T) {
	m := mustRowBuffer(t, 2, 2, 4)
	m.AccessRange(0, 16)
	hits, misses := m.Stats()
	if hits+misses != 16 {
		t.Fatalf("accesses = %d", hits+misses)
	}
	// 16 blocks over 4-block rows: 4 row openings.
	if misses != 4 {
		t.Fatalf("misses = %d, want 4", misses)
	}
}

// Reserve sets slab space aside for sharded execution, but must be
// invisible to the attacker/test surface: a reserved line "exists" only
// once something is written to it.
func TestReserveInvisibleUntilWritten(t *testing.T) {
	d := mustNew(t, DefaultConfig())
	payload := make([]byte, tensor.BlockBytes)
	payload[0] = 0xAB
	d.WriteBlock(3, payload, sim.DataTraffic)

	d.Reserve(8)
	if d.Lines() != 1 {
		t.Fatalf("Lines after Reserve = %d, want 1", d.Lines())
	}
	if d.Peek(5) != nil {
		t.Fatal("Peek sees a reserved-but-unwritten line")
	}
	if got := d.Peek(3); got == nil || got[0] != 0xAB {
		t.Fatal("Peek lost the pre-reservation line")
	}
	if d.Tamper(5, 0, 0xFF) {
		t.Fatal("Tamper succeeded on a reserved-but-unwritten line")
	}
	if _, ok := d.Snapshot(5); ok {
		t.Fatal("Snapshot succeeded on a reserved-but-unwritten line")
	}
	if d.Restore(5, payload) {
		t.Fatal("Restore succeeded on a reserved-but-unwritten line")
	}
	if d.Swap(3, 5) {
		t.Fatal("Swap succeeded with a reserved-but-unwritten line")
	}

	// Writing a reserved line makes it fully visible.
	d.WriteBlockQuiet(5, payload)
	if d.Lines() != 2 {
		t.Fatalf("Lines after write = %d, want 2", d.Lines())
	}
	if got := d.Peek(5); got == nil || got[0] != 0xAB {
		t.Fatal("written reserved line not visible to Peek")
	}
	if !d.Tamper(5, 0, 0x01) || !d.Swap(3, 5) {
		t.Fatal("attacker primitives blocked on a written line")
	}

	// Reads round-trip through the reserved slab.
	dst := make([]byte, tensor.BlockBytes)
	d.ReadBlockQuiet(3, dst)
	if dst[0] != 0xAB^0x01 {
		t.Fatalf("swapped+tampered read = %#x", dst[0])
	}
}
