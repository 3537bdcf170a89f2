package protect

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"seculator/internal/mac"
	"seculator/internal/resilience"
	"seculator/internal/tensor"
)

// borrowedShard returns a shard of a fresh memory (runBlockScript's crypto
// identity, lines reserved) with a helper borrowed,
// at GOMAXPROCS >= 2 (restored by t.Cleanup), where Borrow may start one.
func borrowedShard(t *testing.T, lines int) (*SeculatorMemory, *SeculatorShard) {
	t.Helper()
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	d := shardTestDRAM(t)
	d.Reserve(uint64(lines))
	m := NewSeculatorMemory(d, 7, 9)
	sh := m.Shard()
	if !sh.Borrow(1) {
		t.Fatal("no helper to borrow at GOMAXPROCS >= 2 with one run in flight")
	}
	t.Cleanup(sh.HandBack)
	return m, sh
}

// awaitHelper publishes what the shard pushed and waits until the helper
// itself has hashed it — so what follows sees the helper's work, not a drain's.
func awaitHelper(t *testing.T, h *macHelper) {
	t.Helper()
	h.publish()
	deadline := time.Now().Add(10 * time.Second)
	for h.done.Load() != h.head.Load() {
		if time.Now().After(deadline) {
			t.Fatal("the helper never hashed its ring")
		}
		runtime.Gosched()
	}
}

// writeScript is layer 1 of runBlockScript, through a shard: n blocks
// written at lines i%64.
func writeScript(m *SeculatorMemory, sh *SeculatorShard, n int) RegisterState {
	m.BeginLayer(1)
	ct := make([]byte, tensor.BlockBytes)
	for i := 0; i < n; i++ {
		sh.WriteRow(uint64(i%64), uint32(i%3), 1, uint32(i), shardPattern(i), ct)
	}
	m.Merge(sh)
	return m.RegisterSnapshot()
}

// TestHelperFoldsMatchSerial: the reference script through a shard with a
// helper — the ring overrun several times, so the loop hashes some MACs
// inline, the helper some and the drain the rest — folds exactly what the
// per-block reference folds, registers and fold counts, and every owed MAC
// is hashed once, by someone.
func TestHelperFoldsMatchSerial(t *testing.T) {
	const n = 5 * ringJobs
	_, ref := runReferenceScript(t, n)
	want := ref.RegisterSnapshot()

	m, sh := borrowedShard(t, 2*n)
	ct := make([]byte, tensor.BlockBytes)
	m.BeginLayer(1)
	for i := 0; i < n; i++ {
		sh.WriteRow(uint64(i), uint32(i%3), 1, uint32(i), shardPattern(i), ct)
	}
	m.Merge(sh)
	m.BeginLayer(2)
	for i := 0; i < n; i++ {
		sh.ReadInput(uint64(i), 1, uint32(i%3), 1, uint32(i), true)
	}
	for i := 0; i < n; i += 5 {
		sh.ReadInput(uint64(i), 1, uint32(i%3), 1, uint32(i), false)
	}
	for i := 0; i < n; i++ {
		sh.WriteRow(uint64(n+i), 0, 2, uint32(i), shardPattern(n+i), ct)
	}
	m.Merge(sh)
	if got := m.RegisterSnapshot(); got != want {
		t.Fatalf("registers through a helper\n got %+v\nwant %+v", got, want)
	}
	if h := m.Hashing(); !h.Borrowed || h.Loop+h.Helper != 3*n+n/5 {
		t.Fatalf("hashing %+v: want a helper and %d MACs in all", h, 3*n+n/5)
	}
}

// TestHelperPanicSurfacesAtDrain: a panic on the helper goroutine must not
// kill the process. It is re-raised on the borrower at the next drain (as a
// loader panic is at awaitWeights), so a run's resilience.Recover turns it
// into an InternalError — and the helper lives on to serve the next borrower
// correctly.
func TestHelperPanicSurfacesAtDrain(t *testing.T) {
	var first *macHelper
	run := func(poison bool) (regs RegisterState, err error) {
		defer resilience.Recover(&err)
		m, sh := borrowedShard(t, 64)
		defer sh.HandBack()
		h := sh.helper
		if first == nil {
			first = h
		} else if h != first {
			t.Fatal("the next borrower got another helper")
		}
		m.BeginLayer(1)
		if poison {
			h.push(mac.BlockRef{}, shardPattern(0), foldTo(255), 1, nil)
		} else {
			for i := 0; i < batchJobs; i++ {
				sh.WriteRow(uint64(i), 2, 1, uint32(i), shardPattern(i), make([]byte, tensor.BlockBytes))
			}
		}
		awaitHelper(t, h)
		m.Merge(sh) // the drain: a helper panic re-raised here
		return writeScript(m, sh, 3*ringJobs), nil
	}
	_, err := run(true)
	var ie *resilience.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("poisoned job: err = %v, want a *resilience.InternalError", err)
	}
	got, err := run(false)
	if err != nil {
		t.Fatalf("the next borrower: %v", err)
	}
	ref := newRefMemory(shardTestDRAM(t), 7, 9)
	ref.BeginLayer(1)
	for i := 0; i < 3*ringJobs; i++ {
		ref.WriteBlock(uint64(i%64), uint32(i%3), 1, uint32(i), shardPattern(i))
	}
	if want := ref.RegisterSnapshot(); got != want {
		t.Fatalf("after a helper panic\n got %+v\nwant %+v", got, want)
	}
}
