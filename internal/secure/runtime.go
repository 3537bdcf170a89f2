package secure

import (
	"math"
	"sync"
	"sync/atomic"

	"seculator/internal/dataflow"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/protect"
	"seculator/internal/vngen"
)

// inferRuntime is the per-Run execution state: the loop shard every block of
// the layer loop moves through — the memory's own, which hashes each block
// MAC and folds it into the memory's registers as it goes — the weight
// loader, and the per-layer slabs. No block is staged: the shards encode
// from and decode into the tensors below.
type inferRuntime struct {
	sm *protect.SeculatorMemory
	sh *protect.SeculatorShard // sm.Own()

	preload preloadState

	// Per-layer bookkeeping slabs: grown to the largest layer seen and
	// reused across layers, recovery attempts, and — through the run pool —
	// requests, so the steady-state layer loop performs no per-tile or
	// per-layer slice allocation. Every slab is kept at full length (len ==
	// cap) so scrub's clear() reaches every byte it ever held.
	lr        layerRun        // the per-layer execution context, reset per layer
	unit      vngen.LayerUnit // the layer's VN generator, configured per layer
	inTouched []bool          // producer-block first-read bitmap
	wTouched  []bool          // weight-block first-read bitmap
	inData    []int32         // input-assembly tensor backing
	inTensor  nn.Tensor
	// outData double-buffers the layer outputs by layer parity: layer i
	// assembles into buffer i&1 while layer i-1's output (buffer (i-1)&1,
	// the producer plaintext for external folds) stays intact. Only the
	// host readout's tensor escapes the run and stays freshly allocated.
	outData   [2][]int32
	outTensor [2]nn.Tensor
	wData     []int32 // decoded-weight tensor backing
	wTensor   nn.Weights

	// gen walks each layer's tile-event stream into lr's callbacks, which
	// are bound once, when the runtime is built: lr keeps one address for
	// the runtime's life, so no layer re-boxes them as method values.
	gen       dataflow.Generator
	onEvent   dataflow.Visitor
	onCompute func(dataflow.LoopIdx) bool
}

// preloadState is the run's weight loader and the claim that splits the
// model's provisioning between it and the layer loop. A layer is
// provisioned (provisionLayer: its weights stored, its output pads computed
// ahead) by whichever side first moves next past it. The loader is one
// goroutine that claims layers in order and provisions them through its own
// shard while the loop runs; the loop provisions inline, on its own shard,
// each layer it reaches unclaimed. So the loop never waits for a loader
// that has not started, only for one still provisioning the very layer the
// loop has reached.
type preloadState struct {
	sh *protect.SeculatorShard

	// next is the first layer nobody has claimed: a side claims layer i by
	// moving next from i to i+1, and drain claims every layer left.
	next atomic.Int32
	// ready carries one token per layer the loader claimed, in layer
	// order, sent once that layer is provisioned; the loader closes it on
	// exit. nil when no loader is running.
	ready chan struct{}
	// release holds the loader's normal exit until drain fills it: the
	// loader then ends on the loop's P, which keeps its goroutine for the
	// next run's loader to reuse (DESIGN.md §10). One slot, kept with the
	// shard across pooled runs.
	release  chan struct{}
	panicVal any // a recovered loader panic, published by the close
	// tap is Executor.claimTap, for this run.
	tap func(loop bool, layer int, next *atomic.Int32)
}

// startLoader resets the claim counter and launches the run's weight
// loader, which claims layers in order, provisions each it wins and sends
// its token, and, out of layers, waits for drain's release. Only legal in
// overlap mode (no attacker hook, no injector): it mutates DRAM while
// layers execute, which is invisible to the architecture (disjoint,
// pre-reserved lines) but not to a hook that expects "all loads precede
// phase -1" ordering.
func (rt *inferRuntime) startLoader(states []layerState, weights []*nn.Weights, tap func(bool, int, *atomic.Int32)) {
	p := &rt.preload
	if p.sh == nil {
		p.sh = rt.sm.Shard()
		p.release = make(chan struct{}, 1)
	}
	// Buffered to the number of sends, so the loader never blocks on one
	// and whatever waits for it (drain) cannot deadlock.
	ready := make(chan struct{}, len(states))
	p.ready, p.tap = ready, tap
	p.next.Store(0)
	go func() {
		defer close(ready)
		defer func() { p.panicVal = recover() }()
		for {
			i := p.next.Load()
			if int(i) >= len(states) {
				break
			}
			if tap != nil {
				tap(false, int(i), &p.next)
			}
			if !p.next.CompareAndSwap(i, i+1) {
				continue // the loop claimed it: try the next
			}
			// The loop stores to this layer's entries only after it takes
			// this token, and the loader touches them no more: one writer
			// each.
			provisionLayer(p.sh, &states[i], weights[i])
			ready <- struct{}{}
		}
		// Normal exit only: a loader that died closes at once, since the
		// loop may be waiting on its token.
		<-p.release
	}()
}

// awaitLayer makes layer i ready to run — its weights stored, its output
// pads computed: inline, on the loop's shard, when the loop claims the
// layer, else by taking the token of the loader that claimed it. The loader
// claims in layer order and sends in claim order, so its tokens reach the
// loop in the order the loop needs them. A closed channel means the loader
// died: its panic is re-raised here, on the orchestrator.
func (rt *inferRuntime) awaitLayer(i int, st *layerState, w *nn.Weights) {
	p := &rt.preload
	if p.tap != nil {
		p.tap(true, i, &p.next)
	}
	if p.next.CompareAndSwap(int32(i), int32(i+1)) {
		provisionLayer(rt.sh, st, w)
		return
	}
	if _, ok := <-p.ready; !ok {
		panic(p.panicVal)
	}
}

// drain joins the loader, if one runs — called on every exit from Run, so
// no goroutine touches the run's DRAM after Run returns or after the state
// is parked — and only then merges its shard's block and pad tallies: the
// loader counts writes for the whole run, and Merge is orchestrator-only.
// It claims every layer left, so the loader stops before the next one
// (a cancelled or failed run does not finish loading a model nobody will
// execute), and fills release before it waits, so a loader parked there
// wakes onto this P and ends on it.
func (rt *inferRuntime) drain() {
	p := &rt.preload
	if p.ready != nil {
		p.next.Store(math.MaxInt32)
		p.release <- struct{}{}
		for range p.ready {
		}
		select {
		case <-p.release: // a loader that died never took it
		default:
		}
		p.ready, p.panicVal, p.tap = nil, nil, nil
	}
	rt.sm.Merge(p.sh)
}

// ---- per-layer slab accessors ----

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

// touchedWeights is touchedInput's first-read bitmap for the weight blocks.
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

// ---- pooled run state ----

// runState bundles everything one Executor.Run builds before executing:
// the DRAM image, the secure memory (AES key schedule, MAC checker), and
// the runtime (shards, staging slabs, the weight loader). Steady-state
// serving traffic recreates exactly this state on every request, keyed by
// nothing but (DRAM config, crypto identity) — so completed runs park their
// state in a sync.Pool and later runs with the same key reuse it instead of
// re-allocating ~10^4 objects.
//
// Scrub discipline (DESIGN.md §15): a state enters the pool only after
// every plaintext byte of the run — activations, weights, DRAM ciphertext
// — has been zeroed. The AES key schedule is retained, but only because the
// pool key pins the exact (secret, random) identity: a run under any other
// identity builds fresh state.
type runState struct {
	dram *mem.DRAM
	sm   *protect.SeculatorMemory
	rt   *inferRuntime

	dramCfg        mem.Config
	secret, random uint64
	poolable       bool
}

var (
	// runPool holds parked *runState values; their identity (DRAM config,
	// secret, random) is checked on Get.
	runPool sync.Pool

	// runPoolingOff disables cross-request run-state reuse; only the
	// in-package conformance test sets it, to produce fresh-state baselines
	// for dirty-reset detection.
	runPoolingOff atomic.Bool
)

// acquireRun returns a run state for this executor: a pooled one when a
// compatible state is parked, else a freshly built one. Runs with an
// attacker hook or fault injector never use the pool — those harnesses
// may retain the DRAM handle past Run, and their runs are not the steady
// state this path optimizes.
func (x *Executor) acquireRun() (*runState, error) {
	poolable := !runPoolingOff.Load() && x.AfterPhase == nil && x.Injector == nil
	if poolable {
		if v := runPool.Get(); v != nil {
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
	rt := &inferRuntime{sm: sm, sh: sm.Own()}
	rt.onEvent, rt.onCompute = rt.lr.onEvent, rt.lr.onCompute
	return &runState{
		dram: dram, sm: sm, rt: rt,
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
	runPool.Put(rs)
}

// scrub wipes every byte of run-derived data from the runtime's pooled
// scratch — the loader shard's scratch and lanes, and the decoded
// activations and weights, the only run buffers (drain has already joined
// the loader and reset its hand-off state; the memory's Recycle has
// scrubbed the loop shard). Bitmaps and the generator's tile bookkeeping clear too, so a dirty
// reset cannot leak one run's protocol state into the next; the bound
// callbacks stay, pointing at the zeroed layer context.
func (rt *inferRuntime) scrub() {
	if rt.preload.sh != nil {
		rt.preload.sh.Recycle()
	}
	clear(rt.inData)
	clear(rt.outData[0])
	clear(rt.outData[1])
	clear(rt.wData)
	clear(rt.inTouched)
	clear(rt.wTouched)
	rt.gen.Clear()
	rt.lr = layerRun{}
	rt.unit = vngen.LayerUnit{}
	rt.inTensor = nn.Tensor{}
	rt.outTensor[0] = nn.Tensor{}
	rt.outTensor[1] = nn.Tensor{}
	rt.wTensor = nn.Weights{}
}
