package protect

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/tensor"
)

func plainBlock(seed byte) []byte {
	b := make([]byte, tensor.BlockBytes)
	for i := range b {
		b[i] = seed ^ byte(3*i)
	}
	return b
}

func mustDRAM(t *testing.T) *mem.DRAM {
	t.Helper()
	d, err := mem.New(mem.DefaultConfig())
	if err != nil {
		t.Fatalf("mem.New: %v", err)
	}
	return d
}

func newSecMem(t *testing.T) (*SeculatorMemory, *mem.DRAM) {
	t.Helper()
	d := mustDRAM(t)
	return NewSeculatorMemory(d, 0xabc, 0xdef), d
}

func TestSeculatorMemoryRoundTrip(t *testing.T) {
	sm, _ := newSecMem(t)
	sm.BeginLayer(1)
	pt := plainBlock(1)
	sm.WriteBlock(10, 0, 1, 0, pt)
	got := sm.ReadPartial(10, 0, 1, 0)
	if !bytes.Equal(got, pt) {
		t.Fatal("partial read did not return the written plaintext")
	}
	// A write under layer 1 is readable as input from layer 2.
	sm.WriteBlock(11, 0, 2, 0, pt)
	sm.BeginLayer(2)
	got = sm.ReadInput(11, 1, 0, 2, 0, true)
	if !bytes.Equal(got, pt) {
		t.Fatal("input read did not return the written plaintext")
	}
}

func TestSeculatorMemoryEquationOne(t *testing.T) {
	sm, _ := newSecMem(t)
	sm.BeginLayer(1)
	finals := make([][]byte, 3)
	for i := range finals {
		finals[i] = plainBlock(byte(i + 1))
		sm.WriteBlock(uint64(i), uint32(i), 1, 0, finals[i])
	}
	sm.BeginLayer(2)
	for i, pt := range finals {
		got := sm.ReadInput(uint64(i), 1, uint32(i), 1, 0, true)
		if !bytes.Equal(got, pt) {
			t.Fatal("decrypt mismatch")
		}
	}
	if err := sm.VerifyPreviousLayer(mac.Digest{}); err != nil {
		t.Fatalf("honest Equation 1 failed: %v", err)
	}
}

func TestSeculatorMemoryDetectsTamper(t *testing.T) {
	sm, d := newSecMem(t)
	sm.BeginLayer(1)
	sm.WriteBlock(0, 0, 1, 0, plainBlock(9))
	d.Tamper(0, 4, 0x08)
	sm.BeginLayer(2)
	sm.ReadInput(0, 1, 0, 1, 0, true)
	if err := sm.VerifyPreviousLayer(mac.Digest{}); !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("tamper not detected: %v", err)
	}
}

// TestSeculatorMemoryGoldenHelpers: the host's golden digest is the fold of
// BlockDigest over the blocks it loaded, whether the input load's row seal
// computed it or the host folds it itself, and first input reads verify
// against it. The weight path keeps its host state in the keystream memo, so
// a weight store or read on a memory that reserved none panics; with one, a
// first weight read of the host's bytes folds nothing into the weight fold,
// and one of other bytes folds the difference of the two BlockDigests — as
// does the unread pass (UnreadWeight) given a stand-in plaintext.
func TestSeculatorMemoryGoldenHelpers(t *testing.T) {
	sm, d := newSecMem(t)
	blocks := [][]byte{plainBlock(1), plainBlock(2)}
	var want mac.Digest
	for i, b := range blocks {
		want = want.Xor(sm.BlockDigest(0, 5, 1, uint32(i), b))
	}
	sh := sm.Shard()
	row := slices.Concat(blocks...)
	if g := sh.HostWriteTile(rowTile(200, 5, 0, 2), 0, 1, packed(rowTile(200, 5, 0, 2), row)); g != want {
		t.Fatal("HostWriteTile's golden digest is not the fold of BlockDigest")
	}
	sm.BeginLayer(1)
	sm.ReadInput(200, 0, 5, 1, 0, true)
	sm.ReadInput(201, 0, 5, 1, 1, true)
	if err := sm.VerifyInputsGolden(want); err != nil {
		t.Fatalf("golden verification failed: %v", err)
	}

	for name, op := range map[string]func(){
		"HostStoreRow": func() { sh.HostStoreRow(100, 0x8001, 5, 1, 0, 2, ints(row)) },
		"ReadStatic":   func() { sh.ReadStatic(100, 0x8001, 5, 1, 0, true, nil) },
		"UnreadWeight": func() { sm.UnreadWeight(100, 0x8001, 5, 1, 0, ints(blocks[0])) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a memory with no keystream memo did not panic", name)
				}
			}()
			op()
		}()
	}

	sm.ReserveKeystreams(128)
	sh.HostStoreRow(100, 0x8001, 5, 1, 0, 2, ints(row))
	if pt := readStatic(sh, 100, 0x8001, 5, 1, 0); !bytes.Equal(pt, blocks[0]) {
		t.Fatal("ReadStatic plaintext mismatch")
	}
	sm.Merge(sh)
	if sm.WeightDigest() != (mac.Digest{}) || sm.Hashing().Reused != 1 {
		t.Fatalf("a first weight read of the host's bytes folded %v, %d reused", sm.WeightDigest(), sm.Hashing().Reused)
	}
	if g := sm.UnreadWeight(101, 0x8001, 5, 1, 1, ints(blocks[1])); g != (mac.Digest{}) {
		t.Fatal("the unread pass owes a term for the host's own plaintext")
	}
	other := plainBlock(9)
	host, fake := sm.BlockDigest(0x8001, 5, 1, 1, blocks[1]), sm.BlockDigest(0x8001, 5, 1, 1, other)
	if g := sm.UnreadWeight(101, 0x8001, 5, 1, 1, ints(other)); g != host.Xor(fake) {
		t.Fatal("the unread pass's term for another plaintext is not the difference of the two BlockDigests")
	}
	// A line no weight host store wrote owes the stand-in's MAC alone.
	sm.BeginLayer(2)
	sm.WriteBlock(102, 5, 1, 2, other)
	if g := sm.UnreadWeight(102, 0x8001, 5, 1, 2, ints(other)); g != sm.BlockDigest(0x8001, 5, 1, 2, other) {
		t.Fatal("the unread pass owes a host term for a line no weight host store wrote")
	}
	d.Tamper(101, 3, 0x10)
	pt := readStatic(sh, 101, 0x8001, 5, 1, 1)
	sm.Merge(sh)
	if sm.WeightDigest() != host.Xor(sm.BlockDigest(0x8001, 5, 1, 1, pt)) {
		t.Fatal("a tampered first weight read folded something other than the difference of the two BlockDigests")
	}
}

func TestSeculatorMemoryRereadCheck(t *testing.T) {
	sm, _ := newSecMem(t)
	sm.BeginLayer(1)
	sm.WriteBlock(0, 0, 1, 0, plainBlock(3))
	sm.BeginLayer(2)
	sm.ReadInput(0, 1, 0, 1, 0, true)
	sm.ReadInput(0, 1, 0, 1, 0, false) // second sweep
	if err := sm.VerifyRereads(2); err != nil {
		t.Fatalf("even-sweep IR check failed: %v", err)
	}
}

// TestSeculatorMemoryMustStart: a MAC folded before BeginLayer has no layer
// to fold into, through the serial API or through a shard.
func TestSeculatorMemoryMustStart(t *testing.T) {
	for name, use := range map[string]func(sm *SeculatorMemory){
		"WriteBlock": func(sm *SeculatorMemory) { sm.WriteBlock(0, 0, 1, 0, plainBlock(0)) },
		"shard WriteTile": func(sm *SeculatorMemory) {
			sm.Shard().WriteTile(rowTile(0, 0, 0, 1), 1, false, packed(rowTile(0, 0, 0, 1), plainBlock(0)))
		},
	} {
		sm, _ := newSecMem(t)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s before BeginLayer did not panic", name)
				}
			}()
			use(sm)
		}()
	}
}

// TestRowsMustBeWholeBlocks: every write path stores whole 64-byte blocks.
// A tile call packs each row's values sixteen a block, zero-padding the
// last, and panics on a row of more values than its blocks hold, rather
// than storing and MACing the blocks and dropping the row's tail; so does
// the weight store. WriteBlock, the byte API, takes exactly one block. Each
// call is given a row of two blocks.
func TestRowsMustBeWholeBlocks(t *testing.T) {
	row := Tile{Rows: 1, BPR: 2, K1: 1, Y1: 1}
	values := func(n int) RowValues { return func(int, int) []int32 { return make([]int32, n) } }
	writes := map[string]func(sm *SeculatorMemory, sh *SeculatorShard, n int){
		"WriteBlock": func(sm *SeculatorMemory, _ *SeculatorShard, n int) { sm.WriteBlock(0, 0, 1, 0, make([]byte, 4*n)) },
		"WriteTile": func(_ *SeculatorMemory, sh *SeculatorShard, n int) {
			sh.WriteTile(row, 1, false, values(n))
		},
		"HostWriteTile": func(_ *SeculatorMemory, sh *SeculatorShard, n int) {
			sh.HostWriteTile(row, 0, 1, values(n))
		},
		"HostStoreRow": func(sm *SeculatorMemory, sh *SeculatorShard, n int) {
			sm.ReserveKeystreams(4)
			sh.HostStoreRow(0, 0x8001, 0, 1, 0, 2, make([]int32, n))
		},
	}
	for name, write := range writes {
		for _, n := range []int{0, 15, 16, 25, 32, 33} {
			sm, d := newSecMem(t)
			sm.BeginLayer(1)
			sh := sm.Shard()
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				write(sm, sh, n)
				return false
			}()
			// Two blocks take up to 32 values; WriteBlock takes 16 values' bytes.
			want := n > 2*intsPerBlock
			if name == "WriteBlock" {
				want = n != intsPerBlock
			}
			if panicked != want {
				t.Errorf("%s of %d values: panicked %v, want %v", name, n, panicked, want)
			}
			if sm.Merge(sh); panicked && (d.Lines() != 0 || sm.BlockCounts() != (BlockCounts{}) || sm.RegisterSnapshot() != (RegisterState{})) {
				t.Errorf("%s of %d values stored, counted or folded something before panicking", name, n)
			}
		}
	}
}

// TestSerialCallsAreCounted: the memory's own shard tallies each serial call
// into the memory as it moves the blocks, so the attack scenario's shape — every tile written Versions times, each
// non-final version read back as a partial, the finals first-read by the
// next layer — shows up block for block in BlockCounts, the pad and hashing
// tallies, and the DRAM's data traffic.
func TestSerialCallsAreCounted(t *testing.T) {
	const tiles, versions, perTile = 4, 3, 4
	const lines = tiles * perTile
	sm, d := newSecMem(t)
	d.Reserve(lines)
	sm.ReserveKeystreams(lines)
	sm.BeginLayer(1)
	for vn := 1; vn <= versions; vn++ {
		for a := 0; a < lines; a++ {
			if vn > 1 {
				sm.ReadPartial(uint64(a), uint32(a/perTile), vn-1, uint32(a%perTile))
			}
			sm.WriteBlock(uint64(a), uint32(a/perTile), vn, uint32(a%perTile), plainBlock(byte(vn*a)))
		}
	}
	sm.BeginLayer(2)
	for a := 0; a < lines; a++ {
		sm.ReadInput(uint64(a), 1, uint32(a/perTile), versions, uint32(a%perTile), true)
	}
	if err := sm.VerifyPreviousLayer(mac.Digest{}); err != nil {
		t.Fatal(err)
	}
	want := BlockCounts{OfmapWrites: versions * lines, PartialReads: (versions - 1) * lines, IfmapFirst: lines}
	if got := sm.BlockCounts(); got != want {
		t.Fatalf("block counts %+v, want %+v", got, want)
	}
	if got, want := d.Traffic(), (mem.TrafficStats{ReadBlocks: [6]uint64{48}, WriteBlocks: [6]uint64{48}}); got != want {
		t.Fatalf("traffic %+v, want %+v", got, want)
	}
	if got, want := sm.Keystreams(), (Keystreams{Computed: 48, Reused: 48}); got != want {
		t.Fatalf("pads %+v, want %+v: every read decrypts with its line's last write's", got, want)
	}
	if got, want := sm.Hashing(), (Hashing{Loop: 96}); got != want {
		t.Fatalf("hashing %+v, want %+v", got, want)
	}
}

// SeculatorMemory is a FunctionalMemory itself: an in-layer read takes the
// partial path, a read of the previous layer the input path, and EndLayer
// runs the Equation 1 check from layer 2 on.
func TestSeculatorMemoryFunctional(t *testing.T) {
	d := mustDRAM(t)
	var fm FunctionalMemory = NewSeculatorMemory(d, 1, 2)
	if fm.DesignName() != Seculator {
		t.Fatal("wrong design name")
	}
	fm.BeginLayer(1)
	pt := plainBlock(7)
	fm.WriteBlock(0, 0, 1, 0, pt)
	// In-layer read = partial path.
	got, err := fm.Read(0, 1, 0, 1, 0, false)
	if err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("partial read: %v", err)
	}
	fm.WriteBlock(0, 0, 2, 0, pt)
	if err := fm.EndLayer(); err != nil {
		t.Fatalf("layer-1 EndLayer should be a no-op: %v", err)
	}
	fm.BeginLayer(2)
	if _, err := fm.Read(0, 1, 0, 2, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := fm.EndLayer(); err != nil {
		t.Fatalf("honest verification failed: %v", err)
	}
}
