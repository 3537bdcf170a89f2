package protect

import (
	"runtime"
	"sync"
	"sync/atomic"

	"seculator/internal/mac"
	"seculator/internal/tensor"
)

// helper.go — block MACs hashed beside the layer loop.
//
// Seculator checks integrity once per layer (Equation 1), so no block MAC is
// needed before its layer's check: a shard that has borrowed a helper copies
// each MAC it owes — (position, 64-byte plaintext, register, read count, and
// a final write's memo entry) — into the helper's ring and moves on, and the
// helper hashes and folds it into a partial bank of its own, recording a
// final write's MAC in its entry. Merge drains the ring before anything reads
// a register: the draining shard hashes every job the helper has not claimed
// and waits out the one batch it has, so each register holds exactly the
// folds an inline run would have made (XOR commutes). A shard without a
// helper, or whose helper's ring is full, hashes inline through the same fold.

const (
	// ringJobs is a helper ring's capacity: 3.25 KiB of jobs, the loop's
	// lead on the helper before it hashes inline.
	ringJobs = 32
	// batchJobs bounds one helper claim — the most a drain ever waits for —
	// and is how many jobs a push publishes at once: publishing is a full
	// fence, too dear to pay per block.
	batchJobs = 8
	// idleSpins is how many times an idle helper polls its ring before it
	// parks — about 70 µs on a 2-vCPU x86 host: longer than the gap a layer
	// boundary or a compute visit leaves, so a borrowed helper is awake when
	// the next burst comes (a parked one is rescheduled only after the ring
	// has filled). It polls without yielding: a yield with a P idle makes the
	// runtime start another thread for nothing.
	idleSpins = 20000
)

// foldTo names the accumulator an owed MAC folds into.
type foldTo uint8

const (
	toWrite   foldTo = iota // MAC_W
	toPartial               // MAC_R
	toFirst                 // MAC_FR and MAC_IR (a first read)
	toRepeat                // MAC_IR (a repeat read)
	toWeight                // the layer's weight fold (the golden comparison)
)

// macFolds is what owed MACs fold into: a partial register bank, the
// weight fold, how many MACs were hashed into them and how many reads
// hashed none instead: they folded the MAC the memo recorded, or (a weight
// read that fetched the host's bytes) owed nothing.
type macFolds struct {
	bank    mac.PartialBank
	weights mac.Digest
	hashed  int
	reused  int
}

// hash folds the MAC of ref ‖ block, hashed with rowh, for n reads into to,
// first recording it in rec — a final write's memo entry — if there is one.
func (f *macFolds) hash(rowh *mac.RowHasher, ref mac.BlockRef, block []byte, to foldTo, n int, rec *keystream) {
	d := rowh.Block(ref, block)
	if rec != nil {
		rec.mac, rec.hashed = d, true
	}
	f.add(to, d, n)
	f.hashed++
}

// add folds d for n reads of one block: the first into to, the rest as
// repeat reads (n > 1 only for ifmap reads).
func (f *macFolds) add(to foldTo, d mac.Digest, n int) {
	switch to {
	case toWrite:
		f.bank.OnWrite(d)
	case toPartial:
		f.bank.OnPartialRead(d)
	case toFirst:
		f.bank.OnFirstRead(d)
	case toRepeat:
		f.bank.OnRepeatRead(d)
	case toWeight:
		f.weights = f.weights.Xor(d)
	default:
		panic("protect: owed MAC with no register")
	}
	for ; n > 1; n-- {
		f.bank.OnRepeatRead(d)
	}
}

// macJob is one owed MAC: hash ref ‖ block once, fold it for n reads into
// to, and record it in rec when a final write owes it.
type macJob struct {
	ref   mac.BlockRef
	block [tensor.BlockBytes]byte
	to    foldTo
	n     int32
	rec   *keystream
}

// hash folds the job into f with rowh.
func (j *macJob) hash(f *macFolds, rowh *mac.RowHasher) {
	f.hash(rowh, j.ref, j.block[:], j.to, int(j.n), j.rec)
}

// macHelper is one persistent hashing goroutine and its ring. The ring has
// one producer (the borrowing shard) and two consumers that claim batches by
// CAS on tail: the helper, and the shard itself when it drains. The helper
// keeps no pointer into any run but the memo entries of the final writes
// queued on it, which HandBack clears: a borrower holds the helper, not the
// other way round. The counters sit on separate cache lines by writer, so a
// push touches no line the helper writes per batch.
type macHelper struct {
	ring [ringJobs]macJob

	// The producer's line. Jobs [head, pushed) are written but not yet
	// published; free is its last read of done, re-read only when the ring
	// looks full.
	head   atomic.Uint64
	pushed uint64
	free   uint64
	_      [40]byte
	tail   atomic.Uint64 // jobs claimed
	busy   atomic.Bool   // the helper holds a claim (set before its CAS)
	_      [55]byte
	// done is where the helper's completed batches end; between drains its
	// one in-flight batch is [done, tail), and [done, head) is the ring's fill.
	done     atomic.Uint64
	_        [56]byte
	sleeping atomic.Bool // parked on wake; whoever clears it sends the token
	_        [63]byte
	wake     chan struct{}

	// Written by the helper inside a claim, read and reset by the borrower
	// once busy is clear.
	folds    macFolds
	rowh     mac.RowHasher
	panicVal any
}

// helpers is the process's helper set: one per CPU beyond the first, started
// on demand, never stopped.
var helpers struct {
	mu      sync.Mutex
	idle    []*macHelper
	started int
}

// Helpers returns how many helper goroutines the process has started.
func Helpers() int {
	helpers.mu.Lock()
	defer helpers.mu.Unlock()
	return helpers.started
}

// Borrow attaches an idle helper to the shard, starting one while fewer than
// GOMAXPROCS-1 exist, provided fewer than GOMAXPROCS runs are in flight (runs
// counts the caller's own). It reports whether the shard has a helper; one
// that has none hashes inline.
func (s *SeculatorShard) Borrow(runs int) bool {
	if s.helper != nil {
		return true
	}
	procs := runtime.GOMAXPROCS(0)
	if runs >= procs {
		return false
	}
	helpers.mu.Lock()
	defer helpers.mu.Unlock()
	if n := len(helpers.idle); n > 0 {
		s.helper = helpers.idle[n-1]
		helpers.idle = helpers.idle[:n-1]
	} else if helpers.started < procs-1 {
		helpers.started++
		s.helper = &macHelper{wake: make(chan struct{}, 1)}
		go s.helper.run()
	}
	return s.helper != nil
}

// HandBack detaches the shard's helper and returns it to the idle set: jobs
// still queued (a run that ended in error) are dropped — their final writes
// record no MAC — and the ring, the helper's hasher and its partials are
// scrubbed, so no plaintext of this run, and no pointer into its memo,
// outlives it there. Orchestrator-only; a no-op without a helper.
func (s *SeculatorShard) HandBack() {
	h := s.helper
	if h == nil {
		return
	}
	// Claim everything (head first: tail never passes it), so no later
	// helper CAS succeeds and only a claim in flight is left to wait for.
	h.head.Store(h.pushed)
	h.tail.Store(h.pushed)
	h.quiesce()
	clear(h.ring[:])
	h.rowh.Scrub()
	h.folds, h.panicVal = macFolds{}, nil
	s.helper = nil
	helpers.mu.Lock()
	helpers.idle = append(helpers.idle, h)
	helpers.mu.Unlock()
}

// owe routes one block MAC the layer's registers are owed: onto the helper's
// ring while it has room, else hashed here. n > 1 only for ifmap reads; rec
// is a final write's memo entry, nil for every other MAC.
func (s *SeculatorShard) owe(ref mac.BlockRef, block []byte, to foldTo, n int, rec *keystream) {
	if h := s.helper; h != nil && h.push(ref, block, to, n, rec) {
		return
	}
	s.folds.hash(&s.rowh, ref, block, to, n, rec)
}

// settle lands every MAC the shard owes in its own folds: it hashes each job
// the helper has not claimed, waits for the helper's in-flight batch, and
// takes the helper's partials, re-raising a panic the helper recovered.
func (s *SeculatorShard) settle() {
	h := s.helper
	if h == nil {
		return
	}
	h.publish()
	for {
		t, hd := h.tail.Load(), h.head.Load()
		if t == hd {
			break
		}
		end := min(hd, t+batchJobs)
		if !h.tail.CompareAndSwap(t, end) {
			continue
		}
		for i := t; i < end; i++ {
			h.ring[i%ringJobs].hash(&s.folds, &s.rowh)
		}
	}
	h.quiesce()
	if p := h.panicVal; p != nil {
		h.panicVal = nil
		panic(p)
	}
	s.folds.bank.W.Merge(h.folds.bank.W)
	s.folds.bank.R.Merge(h.folds.bank.R)
	s.folds.bank.FR.Merge(h.folds.bank.FR)
	s.folds.bank.IR.Merge(h.folds.bank.IR)
	s.folds.weights = s.folds.weights.Xor(h.folds.weights)
	s.helperHashed += h.folds.hashed
	h.folds = macFolds{}
}

// quiesce waits until the helper holds no claim (everything is claimed, so it
// can take no other) and marks the whole ring free. Producer-side only.
func (h *macHelper) quiesce() {
	for h.busy.Load() {
		runtime.Gosched()
	}
	h.free = h.head.Load()
	h.done.Store(h.free)
}

// push copies a job into the ring, publishing every batchJobs-th. It reports
// false, and queues nothing, when the ring is full.
func (h *macHelper) push(ref mac.BlockRef, block []byte, to foldTo, n int, rec *keystream) bool {
	p := h.pushed
	if p-h.free >= ringJobs {
		if h.free = h.done.Load(); p-h.free >= ringJobs {
			return false
		}
	}
	j := &h.ring[p%ringJobs]
	j.ref, j.to, j.n, j.rec = ref, to, int32(n), rec
	copy(j.block[:], block)
	h.pushed = p + 1
	if h.pushed%batchJobs == 0 {
		h.publish()
	}
	return true
}

// publish hands the pushed jobs to the helper and wakes it if it is parked.
func (h *macHelper) publish() {
	if h.head.Load() == h.pushed {
		return
	}
	h.head.Store(h.pushed)
	if h.sleeping.Load() && h.sleeping.CompareAndSwap(true, false) {
		h.wake <- struct{}{}
	}
}

// run is the helper goroutine: claim a batch, hash it, repeat; park when the
// ring stays empty.
func (h *macHelper) run() {
	for {
		if !h.batch() {
			h.idle()
		}
	}
}

// batch claims up to batchJobs jobs and folds them into the helper's bank. It
// reports false when the ring was empty. A panic while hashing is kept for the
// borrower's next drain; the helper lives on.
func (h *macHelper) batch() bool {
	t, hd := h.tail.Load(), h.head.Load()
	if t == hd {
		return false
	}
	end := min(hd, t+batchJobs)
	h.busy.Store(true)
	defer h.busy.Store(false)
	if !h.tail.CompareAndSwap(t, end) {
		return true
	}
	defer h.done.Store(end)
	defer func() {
		if p := recover(); p != nil {
			h.panicVal = p
		}
	}()
	for i := t; i < end; i++ {
		h.ring[i%ringJobs].hash(&h.folds, &h.rowh)
	}
	return true
}

// idle polls the empty ring briefly, then parks until a push or never: the
// CAS on sleeping decides whether the pusher sends a token or the helper
// cancels its own sleep, so no token is lost and none is left over.
func (h *macHelper) idle() {
	for i := 0; i < idleSpins; i++ {
		if h.tail.Load() != h.head.Load() {
			return
		}
	}
	h.sleeping.Store(true)
	if h.tail.Load() != h.head.Load() && h.sleeping.CompareAndSwap(true, false) {
		return
	}
	<-h.wake
}
