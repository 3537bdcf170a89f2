package secure

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/parallel"
	"seculator/internal/protect"
	"seculator/internal/tensor"
)

// Tuning thresholds of the sharded tile paths. Sharding has a fork/join
// cost, so tiny tiles run inline on the orchestrator.
const (
	// minForkBlocks is the smallest number of 64-byte blocks per shard worth
	// a fork: one block costs ~4 AES + 1 SHA-256 invocation, so below this
	// the handshake dominates.
	minForkBlocks = 16

	// minComputeOps is the smallest estimated MAC-free arithmetic volume
	// (multiply-accumulates) worth forking a compute range for.
	minComputeOps = 1 << 13
)

// defaultParallel is the worker count of Executor runs that leave Parallel
// at 0: 1 (serial) unless SECULATOR_INFER_PARALLEL names a larger count.
// It is read once at start-up — the variable is how an operator raises the
// count and how CI forces every existing test through the sharded path
// without code changes.
var defaultParallel = 1

func init() {
	if v, err := strconv.Atoi(os.Getenv("SECULATOR_INFER_PARALLEL")); err == nil && v > 1 {
		defaultParallel = v
	}
}

// cryptoPool is the persistent worker pool shared by every parallel
// inference in the process — workers outlive any single Run, like the
// serving scheduler's pool. Sized generously relative to GOMAXPROCS: tasks
// are short and CPU-bound. The weight loader is not one of them: it lives as
// long as its run and would hold a worker that Fork needs.
var (
	cryptoPoolOnce sync.Once
	cryptoPool     *parallel.Pool
)

func sharedPool() *parallel.Pool {
	cryptoPoolOnce.Do(func() {
		n := runtime.GOMAXPROCS(0)
		if n < 8 {
			n = 8
		}
		cryptoPool = parallel.NewPool(n)
	})
	return cryptoPool
}

// lockedInjector serializes fault-injector callbacks when DRAM transfers
// happen from multiple shards: the injectors in package fault keep state
// (RNG, replay maps) and are single-goroutine by contract.
type lockedInjector struct {
	mu sync.Mutex
	in mem.Injector
}

func (li *lockedInjector) OnRead(lineAddr uint64, data []byte) {
	li.mu.Lock()
	li.in.OnRead(lineAddr, data)
	li.mu.Unlock()
}

func (li *lockedInjector) OnWrite(lineAddr uint64, data []byte) {
	li.mu.Lock()
	li.in.OnWrite(lineAddr, data)
	li.mu.Unlock()
}

// inferRuntime is the per-Run parallel execution state: the worker shards,
// their scratch and the weight loader. workers == 1 routes every tile
// inline through shard 0, which preserves the exact serial order of every
// DRAM access and MAC fold.
type inferRuntime struct {
	workers int
	pool    *parallel.Pool // nil when workers == 1
	sm      *protect.SeculatorMemory
	dram    *mem.DRAM

	shards []*protect.SeculatorShard

	// Per-shard staging for the row-batch encrypt path (caller-owned
	// scratch contract of protect's batch APIs). Indexed by shard; grown on
	// demand, never shared across concurrently running shards.
	rowPT [][]byte
	rowCT [][]byte

	// wDigest collects per-shard XOR folds of first-touch weight MACs
	// during one forked weight-tile read; a shard sets wStale when a repeat
	// read differs from its first.
	wDigest []mac.Digest
	wStale  atomic.Bool

	preload preloadState

	// Per-layer bookkeeping slabs: grown to the largest layer seen and
	// reused across layers, recovery attempts, and — through the run pool —
	// requests, so the steady-state layer loop performs no per-tile or
	// per-layer slice allocation. Every slab is kept at full length (len ==
	// cap) so scrub's clear() reaches every byte it ever held.
	lr        layerRun // the per-layer execution context, reset per layer
	inTouched []bool   // producer-block first-read bitmap
	wTouched  []bool   // weight-block first-read bitmap
	inData    []int32  // input-assembly tensor backing
	inTensor  nn.Tensor
	// outData double-buffers the layer outputs by layer parity: layer i
	// assembles into buffer i&1 while layer i-1's output (buffer (i-1)&1,
	// the producer plaintext for external folds) stays intact. Only the
	// host readout's tensor escapes the run and stays freshly allocated.
	outData   [2][]int32
	outTensor [2]nn.Tensor
	wData     []int32 // decoded-weight tensor backing
	wTensor   nn.Weights
	flatRuns  []flatRun // FC block-run staging (orchestrator only)
	blockBuf  [tensor.BlockBytes]byte

	// The loader's private staging: it runs concurrently with the executing
	// layer's shards, so it must never share rowScratch with them.
	preloadPT []byte
	preloadCT []byte
}

// workerCount resolves the executor's effective intra-inference worker
// count (the run-pool key).
func (x *Executor) workerCount() int {
	w := x.Parallel
	if w == 0 {
		w = defaultParallel
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (x *Executor) newRuntime(w int, sm *protect.SeculatorMemory, dram *mem.DRAM) *inferRuntime {
	rt := &inferRuntime{workers: w, sm: sm, dram: dram}
	rt.shards = make([]*protect.SeculatorShard, w)
	for i := range rt.shards {
		rt.shards[i] = sm.Shard()
	}
	rt.rowPT = make([][]byte, w)
	rt.rowCT = make([][]byte, w)
	rt.wDigest = make([]mac.Digest, w)
	if w > 1 {
		rt.pool = sharedPool()
	}
	return rt
}

func (rt *inferRuntime) parallelOn() bool { return rt.workers > 1 }

// rowScratch returns shard s's plaintext and ciphertext staging for a row
// of nblocks blocks, growing it if needed. Distinct shards own distinct
// buffers, so concurrent calls with distinct s are safe.
func (rt *inferRuntime) rowScratch(s, nblocks int) (pt, ct []byte) {
	need := nblocks * tensor.BlockBytes
	if cap(rt.rowPT[s]) < need {
		rt.rowPT[s] = make([]byte, need)
		rt.rowCT[s] = make([]byte, need)
	}
	return rt.rowPT[s][:need], rt.rowCT[s][:need]
}

// shardCount picks how many shards to fork for n items of `weight` blocks
// each: enough that every shard gets at least minForkBlocks of crypto work,
// never more than the worker count or the item count.
func (rt *inferRuntime) shardCount(n, weight int) int {
	if rt.workers <= 1 || n <= 0 {
		return 1
	}
	total := n * weight
	if total < 2*minForkBlocks {
		return 1
	}
	nsh := total / minForkBlocks
	if nsh > rt.workers {
		nsh = rt.workers
	}
	if nsh > n {
		nsh = n
	}
	if nsh < 1 {
		nsh = 1
	}
	return nsh
}

// forkBlocks partitions n work items (each covering `weight` blocks of
// crypto work) into contiguous chunks across the shard set, runs fn on each
// chunk, and folds every shard's partial MAC state and traffic counts back
// into the memory once all chunks have joined. Shard 0 runs on the calling
// goroutine; fn must confine itself to its own shard and to state disjoint
// from every other chunk. With one worker the chunk is the whole range and
// runs inline — the serial path is literally the parallel path at n=1, so
// serial and parallel runs execute identical per-block operations.
func (rt *inferRuntime) forkBlocks(n, weight int, fn func(shard int, sh *protect.SeculatorShard, lo, hi int)) {
	if n <= 0 {
		return
	}
	nsh := rt.shardCount(n, weight)
	if nsh <= 1 {
		fn(0, rt.shards[0], 0, n)
		rt.sm.Merge(rt.shards[0])
		return
	}
	rt.pool.Fork(nsh, func(s int) {
		lo, hi := n*s/nsh, n*(s+1)/nsh
		if lo < hi {
			fn(s, rt.shards[s], lo, hi)
		}
	})
	rt.sm.Merge(rt.shards[:nsh]...)
}

// forkCompute splits a (k-range × row-range) of MAC-free arithmetic across
// the pool. Each sub-range owns a disjoint set of output elements and
// performs its per-element accumulations in the same order as the serial
// nest, so results are bit-identical. cost is the estimated op count.
func (rt *inferRuntime) forkCompute(k0, k1, y0, y1, cost int, fn func(k0, k1, y0, y1 int)) {
	splitK := (k1 - k0) >= (y1 - y0)
	n := y1 - y0
	if splitK {
		n = k1 - k0
	}
	nsh := min(rt.workers, n)
	if rt.workers <= 1 || cost < minComputeOps || nsh <= 1 {
		fn(k0, k1, y0, y1)
		return
	}
	rt.pool.Fork(nsh, func(s int) {
		lo, hi := n*s/nsh, n*(s+1)/nsh
		if lo >= hi {
			return
		}
		if splitK {
			fn(k0+lo, k0+hi, y0, y1)
		} else {
			fn(k0, k1, y0+lo, y0+hi)
		}
	})
}

// preloadState is the run's weight loader: one goroutine that host-writes
// every layer's weights in layer order through its own shard and staging
// while the layer loop runs, so only layer 0's load is on the critical path.
type preloadState struct {
	sh *protect.SeculatorShard

	// ready carries one token per weighted layer, sent once that layer's
	// region is stored and its golden digest published; the loader closes it
	// on exit. nil when no loader is running.
	ready    chan struct{}
	stop     atomic.Bool // set by drain: stop before the next layer
	panicVal any         // a recovered loader panic, published by the close
}

// startLoader launches the run's weight loader. Only legal in overlap mode
// (no attacker hook, no injector): it mutates DRAM while layers execute,
// which is invisible to the architecture (disjoint, pre-reserved lines) but
// not to a hook that expects "all loads precede phase -1" ordering. A plain
// goroutine, not a pool task: the pool is nil at one worker.
func (rt *inferRuntime) startLoader(x *Executor, states []layerState, weights []*nn.Weights) {
	p := &rt.preload
	if p.sh == nil {
		p.sh = rt.sm.Shard()
	}
	// Buffered to the number of sends, so the loader never blocks and
	// whatever waits for it (drain) cannot deadlock.
	ready := make(chan struct{}, len(states))
	p.ready = ready
	go func() {
		defer close(ready)
		defer func() { p.panicVal = recover() }()
		for i := range states {
			if weights[i] == nil {
				continue
			}
			if p.stop.Load() {
				return
			}
			pt, ct := rt.preloadScratch(states[i].wl.sliceBlocks)
			states[i].goldenWeights = x.loadLayerWeights(p.sh, &states[i], weights[i], pt, ct)
			ready <- struct{}{}
		}
	}()
}

// awaitWeights blocks until the loader has published the next weighted
// layer — tokens arrive in layer order, one per call. A closed channel
// means the loader died: its panic is re-raised here, on the orchestrator.
func (rt *inferRuntime) awaitWeights() {
	if _, ok := <-rt.preload.ready; !ok {
		panic(rt.preload.panicVal)
	}
}

// drain joins the loader — called on every exit from Run, so no goroutine
// touches the run's DRAM after Run returns or after the state is parked —
// and only then merges its shard: the loader counts writes for the whole
// run, and Merge is orchestrator-only.
func (rt *inferRuntime) drain() {
	p := &rt.preload
	if p.ready == nil {
		return
	}
	p.stop.Store(true)
	for range p.ready {
	}
	p.ready, p.panicVal = nil, nil
	p.stop.Store(false)
	rt.sm.Merge(p.sh)
}

// ---- per-layer slab accessors ----

// flatRun is one run of consecutive FC input elements hitting the same
// producer block (see readFlatRange).
type flatRun struct{ ch, row, j, n int }

func growInts(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:cap(s)]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:cap(s)]
}

// touchedInput returns the producer first-read bitmap sized to n blocks,
// cleared for a fresh layer attempt.
func (rt *inferRuntime) touchedInput(n int) []bool {
	rt.inTouched = growBools(rt.inTouched, n)
	clear(rt.inTouched[:n])
	return rt.inTouched[:n]
}

// touchedWeights is touchedInput for the weight-block bitmap.
func (rt *inferRuntime) touchedWeights(n int) []bool {
	rt.wTouched = growBools(rt.wTouched, n)
	clear(rt.wTouched[:n])
	return rt.wTouched[:n]
}

// inputTensor returns the reusable input-assembly tensor shaped for the
// producer, zeroed: untouched blocks must decode as zeros, exactly like a
// fresh allocation.
func (rt *inferRuntime) inputTensor(chans, rows, cols int) *nn.Tensor {
	n := chans * rows * cols
	rt.inData = growInts(rt.inData, n)
	clear(rt.inData[:n])
	rt.inTensor = nn.Tensor{Chans: chans, H: rows, W: cols, Data: rt.inData[:n]}
	return &rt.inTensor
}

// outputTensor returns the layer-output tensor for parity (layer index &
// 1), zeroed for accumulation. The other parity — the previous layer's
// output, still consumed as producer plaintext — is untouched.
func (rt *inferRuntime) outputTensor(parity, chans, rows, cols int) *nn.Tensor {
	n := chans * rows * cols
	rt.outData[parity] = growInts(rt.outData[parity], n)
	clear(rt.outData[parity][:n])
	rt.outTensor[parity] = nn.Tensor{Chans: chans, H: rows, W: cols, Data: rt.outData[parity][:n]}
	return &rt.outTensor[parity]
}

// weightsTensor returns the reusable decoded-weight tensor for a layer,
// zeroed (never-decoded padded slices must read as zero weights).
func (rt *inferRuntime) weightsTensor(k, c, r, s int) *nn.Weights {
	n := k * c * r * s
	rt.wData = growInts(rt.wData, n)
	clear(rt.wData[:n])
	rt.wTensor = nn.Weights{K: k, C: c, R: r, S: s, Data: rt.wData[:n]}
	return &rt.wTensor
}

// preloadScratch is rowScratch for the weight loader, backed by slabs no
// executing shard touches.
func (rt *inferRuntime) preloadScratch(sliceBlocks int) (pt, ct []byte) {
	need := sliceBlocks * tensor.BlockBytes
	if cap(rt.preloadPT) < need {
		rt.preloadPT = make([]byte, need)
		rt.preloadCT = make([]byte, need)
	}
	return rt.preloadPT[:need], rt.preloadCT[:need]
}

// ---- pooled run state ----

// runState bundles everything one Executor.Run builds before executing:
// the DRAM image, the secure memory (AES key schedule, MAC checker), and
// the runtime (shards, staging slabs, the weight loader). Steady-state
// serving traffic recreates exactly this state on every request, keyed by
// nothing but (worker count, DRAM config, crypto identity) — so completed
// runs park their state in a sync.Pool and later runs with the same key
// reuse it instead of re-allocating ~10^4 objects.
//
// Scrub discipline (DESIGN.md §15): a state enters the pool only after
// every plaintext byte of the run — activations, weights, DRAM ciphertext
// — has been zeroed. The AES key schedule is retained, but
// only because the pool key pins the exact (secret, random) identity: a
// run under any other identity builds fresh state.
type runState struct {
	dram *mem.DRAM
	sm   *protect.SeculatorMemory
	rt   *inferRuntime

	dramCfg        mem.Config
	secret, random uint64
	poolable       bool
}

var (
	// runPools maps worker count -> *sync.Pool of *runState. Worker count
	// keys the pool because the shard set is sized at build time; the
	// remaining identity (DRAM config, secret, random) is checked on Get.
	runPools sync.Map

	// runPoolingOff disables cross-request run-state reuse; only the
	// in-package conformance test sets it, to produce fresh-state baselines
	// for dirty-reset detection.
	runPoolingOff atomic.Bool
)

func runPoolFor(workers int) *sync.Pool {
	if p, ok := runPools.Load(workers); ok {
		return p.(*sync.Pool)
	}
	p, _ := runPools.LoadOrStore(workers, &sync.Pool{})
	return p.(*sync.Pool)
}

// acquireRun returns a run state for this executor: a pooled one when a
// compatible state is parked, else a freshly built one. Runs with an
// attacker hook or fault injector never use the pool — those harnesses
// may retain the DRAM handle past Run, and their runs are not the steady
// state this path optimizes.
func (x *Executor) acquireRun() (*runState, error) {
	w := x.workerCount()
	poolable := !runPoolingOff.Load() && x.AfterPhase == nil && x.Injector == nil
	if poolable {
		if v := runPoolFor(w).Get(); v != nil {
			rs := v.(*runState)
			if rs.dramCfg == x.DRAM && rs.secret == x.Secret && rs.random == x.Random {
				return rs, nil
			}
			// Keyed to a different config or crypto identity: a pooled
			// state must never be rebound, so drop it and build fresh.
		}
	}
	dram, err := mem.New(x.DRAM)
	if err != nil {
		return nil, err
	}
	sm := protect.NewSeculatorMemory(dram, x.Secret, x.Random)
	return &runState{
		dram: dram, sm: sm, rt: x.newRuntime(w, sm, dram),
		dramCfg: x.DRAM, secret: x.Secret, random: x.Random,
		poolable: poolable,
	}, nil
}

// release joins the run's weight loader and, when the state is
// pool-eligible, scrubs and parks it for the next compatible run.
func (rs *runState) release() {
	rs.rt.drain()
	if !rs.poolable || runPoolingOff.Load() {
		return
	}
	if !rs.sm.Recycle(rs.dram, rs.secret, rs.random) {
		return
	}
	rs.dram.Reset()
	rs.rt.scrub()
	runPoolFor(rs.rt.workers).Put(rs)
}

// scrub wipes every byte of run-derived data from the runtime's pooled
// scratch: shard staging, row buffers, decoded activations and weights,
// and the loader's shard and staging (drain has already joined it and reset
// its hand-off state). Bitmaps and digests clear too, so a dirty reset
// cannot leak one run's protocol state into the next.
func (rt *inferRuntime) scrub() {
	for _, sh := range rt.shards {
		sh.Recycle()
	}
	if rt.preload.sh != nil {
		rt.preload.sh.Recycle()
	}
	for i := range rt.rowPT {
		clear(rt.rowPT[i])
		clear(rt.rowCT[i])
	}
	clear(rt.wDigest)
	rt.wStale.Store(false)
	clear(rt.inData)
	clear(rt.outData[0])
	clear(rt.outData[1])
	clear(rt.wData)
	clear(rt.preloadPT)
	clear(rt.preloadCT)
	clear(rt.blockBuf[:])
	clear(rt.inTouched)
	clear(rt.wTouched)
	rt.flatRuns = rt.flatRuns[:0]
	rt.lr = layerRun{}
	rt.inTensor = nn.Tensor{}
	rt.outTensor[0] = nn.Tensor{}
	rt.outTensor[1] = nn.Tensor{}
	rt.wTensor = nn.Weights{}
}
