// Package secure is the functional end-to-end execution path: it runs a
// real (int32) neural network through Seculator's protection machinery,
// layer by layer, exactly as the architecture would —
//
//   - the host encrypts the model inputs and weights into DRAM and keeps
//     golden XOR-MACs for them;
//   - each layer executes as the tile-event stream of its scheduled
//     mapping: every ifmap/weight/partial-ofmap tile is fetched from DRAM
//     and decrypted with the paper's AES-CTR counter layout, every
//     write-back is encrypted under its generated version number, and
//     every block MAC folds into the XOR-MAC registers;
//   - at each layer boundary the Equation 1 check verifies the previous
//     layer, first-layer inputs are checked against the host's golden
//     digest, and weights against what the host stored (a weight fold that
//     keeps only the difference between the host's MACs and the reads');
//   - finally the host reads the outputs back through the same path.
//
// The output must equal package nn's direct reference computation bit for
// bit, demonstrating that the protection is transparent to the numerics;
// any DRAM tampering between or during layers must surface as an integrity
// error. This is the "rigorously experimentally validated" half of
// Section 7.4.
package secure

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"seculator/internal/dataflow"
	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/npu"
	"seculator/internal/pattern"
	"seculator/internal/protect"
	"seculator/internal/resilience"
	"seculator/internal/sched"
	"seculator/internal/tensor"
	"seculator/internal/vngen"
	"seculator/internal/workload"
)

// Hook lets tests interpose an attacker between execution phases.
// phase -1 runs after model load; phase i >= 0 runs after layer i completes
// (before the next layer, or before host readout for the last).
type Hook func(phase int, d *mem.DRAM)

// Region is one contiguous block range of the executor's DRAM layout.
type Region struct {
	Base   uint64
	Blocks int
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+uint64(r.Blocks)
}

// PlanInfo describes the run's address-space layout: the layer-0 input
// region followed by each layer's output-activation and weight regions,
// all contiguous from line 0. Attack harnesses use it to aim mutations at
// blocks the protection protocol is guaranteed to consume (every weight
// block is read by its layer, every final-output block by the host
// readout), so detection claims carry no false negatives.
type PlanInfo struct {
	Input   Region
	Acts    []Region // per layer: its output activation region
	Weights []Region // per layer: its weight region (Blocks == 0 for pools)
}

// Final returns the last layer's output region — the blocks the host
// readout first-reads in full.
func (p PlanInfo) Final() Region {
	if len(p.Acts) == 0 {
		return Region{}
	}
	return p.Acts[len(p.Acts)-1]
}

// CommandSource delivers the host's "run layer" commands (Figure 6): called
// with layer i's planned mapping just before layer i runs, Command returns
// the write triplet the NPU received for it, or the error that refused it.
type CommandSource interface {
	Command(i int, planned sched.Choice) (pattern.Triplet, error)
}

// Executor drives the functional execution.
type Executor struct {
	NPU    npu.Config
	DRAM   mem.Config
	Secret uint64
	Random uint64

	// Commands, when non-nil, is the session's command channel; nil derives
	// every layer's command locally.
	Commands CommandSource

	// AfterPhase, when non-nil, is the attacker hook.
	AfterPhase Hook

	// OnPlan, when non-nil, receives the address-space layout right after
	// planning, before anything is written — the targeting information an
	// in-position attacker (or the conformance attack fuzzer) works from.
	OnPlan func(PlanInfo)

	// OnLayerMACs, when non-nil, observes the four XOR-MAC registers of the
	// bank accumulating layer `phase` right after that layer's event stream
	// and verification close (phase i >= 0), and of the readout epoch's bank
	// with phase == Layers. The serial/parallel equivalence oracle compares
	// these snapshots across hooked and loader runs, at one P and at several,
	// bit for bit.
	OnLayerMACs func(phase int, regs protect.RegisterState)

	// Injector, when non-nil, is installed on the DRAM read/write paths —
	// the fault-injection attachment point (package fault).
	Injector mem.Injector

	// Retry bounds the layer-level detect-and-recover loop: on an
	// integrity-check failure the executor re-fetches the layer's working
	// set, re-derives its VN sequence, and re-executes the layer up to
	// MaxRetries times, back to back. The zero policy disables recovery
	// (every detection is terminal).
	Retry resilience.Policy

	// Residency, when non-nil, attaches the run to a pinned
	// verify-once-then-resident weight cache (see residency.go): the run
	// writes no weight to DRAM and fetches, decrypts and checks none, and
	// computes straight from the residency's verified tensors, whose
	// values the residency's epoch check (Verify) covers. The attach is
	// refused — the run silently takes the full path — unless the
	// residency matches this executor's config exactly, the caller's
	// weights ARE the residency's verified tensors, and no attacker hook
	// or fault injector is installed.
	Residency *WeightResidency

	// weightFoldTap, when non-nil, observes each weighted layer attempt's
	// weight fold before its check: the in-package oracle holds it to a
	// reference's golden ⊕ reads ⊕ unread arithmetic.
	weightFoldTap func(layer int, fold mac.Digest)

	// claimTap, when non-nil, runs on the side about to try a layer's
	// claim (the layer loop with loop set, else the weight loader), with
	// the claim counter: in-package tests use it to force which side
	// provisions which layer.
	claimTap func(loop bool, layer int, next *atomic.Int32)
}

// DefaultSecret and DefaultRandom are the process's DRAM crypto identity:
// the accelerator secret ID (P in every block MAC) and the boot-time
// randomness of the CTR engine. They are deliberately process constants —
// ciphertext and golden MACs are then a pure function of (network, model
// seed, design), which is what lets the serving tier pin verified weights
// across requests (residency.go).
const (
	DefaultSecret uint64 = 0x5ec1_a70f_ee1d_c0de
	DefaultRandom uint64 = 0xb007_5eed
)

// NewExecutor returns an executor with the default system configuration
// and the default recovery policy.
func NewExecutor() *Executor {
	return &Executor{
		NPU:    npu.DefaultConfig(),
		DRAM:   mem.DefaultConfig(),
		Secret: DefaultSecret,
		Random: DefaultRandom,
		Retry:  resilience.DefaultPolicy(),
	}
}

// actLayout is the DRAM layout of one activation tensor: each channel's
// rows are padded to block boundaries so any row range is block-aligned,
// and MAC positions are fmap-relative (fmap ID = channel, block index =
// row*bpr + j) so consumers may retile freely — the paper's order-freedom.
type actLayout struct {
	base    uint64
	chans   int
	rows    int
	cols    int
	bpr     int // blocks per row
	ownerID uint32
	vn      int
}

func (a actLayout) addr(ch, row, blk int) uint64 {
	return a.base + uint64((ch*a.rows+row)*a.bpr+blk)
}

func (a actLayout) blocks() int { return a.chans * a.rows * a.bpr }

// weightLayout stores layer weights as (k, c-group) slices, each padded to
// a block boundary: fmap ID = filter k, block index = cg*sliceBlocks + j.
type weightLayout struct {
	base        uint64
	k           int
	cGroups     int
	sliceInts   int // int32 weights per (k, cg) slice
	sliceBlocks int
	ownerID     uint32
}

func (w weightLayout) blocks() int { return w.k * w.cGroups * w.sliceBlocks }

func (w weightLayout) addr(k, cg, blk int) uint64 {
	return w.base + uint64((k*w.cGroups+cg)*w.sliceBlocks+blk)
}

// layerState carries everything the executor tracks per layer.
type layerState struct {
	layer  workload.Layer
	choice sched.Choice
	write  pattern.Triplet // the received command's write triplet

	act actLayout    // this layer's output region
	wl  weightLayout // this layer's weight region (zero for pools)

	resident bool // weights pre-verified by an attached residency
	out      *nn.Tensor
}

// Result is the outcome of a functional run.
type Result struct {
	Output *nn.Tensor
	Layers int
	// Blocks is the run's planned address space in DRAM lines: the
	// layer-0 input, then every layer's output activations and weights.
	// A resident run plans its weight regions but never writes them.
	Blocks int

	// OutputMAC is the final layer's MAC_W register — the XOR-MAC a host
	// consuming the outputs verifies against. Because the XOR fold is
	// commutative, it is bit-identical in whatever order the block MACs
	// fold, and whichever side stores the weights, whenever; the
	// provisioning equivalence tests assert exactly that.
	OutputMAC mac.Digest

	// Counts is what the run moved, in 64-byte blocks per tensor class,
	// summed from the shards' own tallies, retried layers included. Its
	// Reads and Writes are what the run's DRAM recorded as data traffic.
	Counts protect.BlockCounts

	// Hashing says how many of the block MACs its reads and writes owe the
	// layer loop hashed, and how many reads took the MAC their line's last
	// write recorded in the keystream memo instead (DESIGN.md §10). Like
	// Recovery, it is also reported beside a detection error.
	Hashing protect.Hashing

	// Keystream is how many CTR pads the run computed — on a clean run, one
	// per block written — and reused, summed from the shards like Counts.
	Keystream protect.Keystreams

	// Recovery reports the detect-and-recover activity of the run: layer
	// retries performed, layers recovered from transient faults, and
	// whether a persistent violation latched the breach.
	Recovery resilience.Stats
}

// Run executes the network on input with the given per-layer weights (nil
// for pools), returning the decrypted output. Each layer runs on the
// command received just before it, its VNs drawn from a vngen.LayerUnit
// configured with the command's write triplet; a refused command stops the
// run there with no output. An integrity violation —
// induced by the AfterPhase hook, the fault Injector, or real tampering —
// triggers the layer-level recovery loop: the layer's working set is
// re-fetched, its VN sequence re-derived, and the layer re-executed under
// the Retry policy. A violation that clears is counted as a recovered
// transient; one that persists aborts the run with the breach latched and a
// typed error (resilience.FreshnessError on the versioned activation path,
// a persistent resilience.IntegrityError on host-golden data). No panic
// escapes this method; ctx cancels between layers and between retries.
func (x *Executor) Run(ctx context.Context, net workload.Network, input *nn.Tensor, weights []*nn.Weights) (res Result, err error) {
	defer resilience.Recover(&err)
	if ctx == nil {
		ctx = context.Background()
	}
	if err := x.NPU.Validate(); err != nil {
		return Result{}, &resilience.ConfigError{Err: err}
	}
	if err := x.DRAM.Validate(); err != nil {
		return Result{}, &resilience.ConfigError{Err: err}
	}
	if err := net.Validate(); err != nil {
		return Result{}, &resilience.ConfigError{Err: err}
	}
	if len(weights) != len(net.Layers) {
		return Result{}, &resilience.ConfigError{
			Err: fmt.Errorf("secure: %d weight tensors for %d layers", len(weights), len(net.Layers)),
		}
	}
	rs, err := x.acquireRun()
	if err != nil {
		return Result{}, &resilience.ConfigError{Err: err}
	}
	dram, sm, rt := rs.dram, rs.sm, rs.rt
	defer rs.release()
	if x.Injector != nil {
		// Every fetch is the layer loop's, so the injector sees one
		// goroutine.
		dram.SetInjector(x.Injector)
	}

	states, inputLayout, total, err := x.plan(net, weights)
	if err != nil {
		return Result{}, err
	}
	if x.OnPlan != nil {
		x.OnPlan(planInfo(states, inputLayout))
	}
	// Reserve the run's whole address space (mem.DRAM.Reserve): inside the
	// reservation a line is a fixed range of one slab, which is what lets
	// the loader write beside the layer loop and spares both a lookup and a
	// first-write allocation per line. A pooled DRAM that has
	// run a network this large already reserves nothing. Reservation is
	// attacker-invisible, so the two paths stay bit- and
	// observation-identical. The keystream memo is sized alike (DESIGN.md §10).
	dram.Reserve(total)
	sm.ReserveKeystreams(total)

	// Provisioning. A residency attach marks every layer trusted: the run
	// stores no weight and fetches none. Otherwise the host load leaves the
	// critical path: a loader goroutine writes the model, layer by layer, while
	// the layer loop runs, and computes ahead the pads of the output lines
	// each layer writes once (startLoader); the loop provisions any layer it
	// reaches before the loader has claimed it (awaitLayer) — unless an
	// attacker hook or injector is installed; both observe load/execute
	// ordering that overlapping would change, so those runs load everything
	// up front.
	resident := x.residentFor(net, weights)
	overlap := !resident && x.AfterPhase == nil && x.Injector == nil
	if overlap {
		rt.startLoader(states, weights, x.claimTap)
	}
	goldenInput := x.loadInput(rt, input, inputLayout)
	switch {
	case resident:
		for i := range states {
			states[i].resident = true
		}
	case !overlap:
		x.loadAllWeights(rt, states, weights)
	}
	x.hook(-1, dram)

	var stats resilience.Stats
	producer := inputLayout
	producerData := input
	prevWrite := pattern.Empty
	for i := range states {
		st := &states[i]
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		// The layer's command: received, or derived locally without a host.
		if x.Commands == nil {
			st.write = dataflow.DeriveWrite(st.choice.Mapping)
		} else if st.write, err = x.Commands.Command(i, st.choice); err != nil {
			return Result{Hashing: sm.Hashing(), Recovery: stats}, err
		}
		rt.unit.Configure(st.act.ownerID, st.write, dataflow.DeriveRead(st.choice.Mapping), prevWrite)
		prevWrite = st.write
		if overlap {
			rt.awaitLayer(i, st, weights[i]) // this layer's weights are stored, its output pads computed
		}
		// One attempt = re-fetch + re-execute the layer's event stream,
		// then close the pending verification (layer-0 golden inputs, or
		// the previous layer's Equation 1 check).
		attempt := func(restart bool) error {
			unread, err := x.runLayer(rt, st, producer, producerData, weights[i], restart)
			if err != nil {
				return classify(err, i, resilience.ClassWeight)
			}
			if !rt.unit.Done() {
				// The layer-completion condition: a received triplet whose
				// sequence outlasts the layer's writes is a refused command.
				return &resilience.ChannelError{Layer: i, Err: fmt.Errorf(
					"secure: layer %d ended before its write triplet %+v did", i, st.write)}
			}
			if i == 0 {
				// First-layer inputs verify against the host's golden
				// digest; blocks the mapping never touched fold host-side.
				if err := sm.VerifyInputsGolden(goldenInput.Xor(unread)); err != nil {
					return classify(fmt.Errorf("secure: layer 0 inputs: %w", err), 0, resilience.ClassInput)
				}
				return nil
			}
			if err := sm.VerifyPreviousLayer(unread); err != nil {
				return classify(fmt.Errorf("secure: verifying layer %d: %w", i-1, err), i-1, resilience.ClassActivation)
			}
			return nil
		}
		if err := x.recoverLoop(ctx, attempt, &stats); err != nil {
			return Result{Hashing: sm.Hashing(), Recovery: stats}, fmt.Errorf("secure: layer %d (%s): %w", i, st.layer.Name, err)
		}
		producer = st.act
		producerData = st.out
		if x.OnLayerMACs != nil {
			x.OnLayerMACs(i, sm.RegisterSnapshot())
		}
		x.hook(i, dram)
	}

	// The final layer's W register is the output MAC the host verifies
	// against; capture it before the readout epoch swaps banks.
	outputMAC := sm.FinalOutputMAC()

	// Host readout epoch: consume the last layer's outputs through the
	// same first-read path and close its Equation 1 check.
	var out *nn.Tensor
	readAttempt := func(restart bool) error {
		var err error
		out, err = x.readout(rt, states, producer, restart)
		if err != nil {
			return classify(err, len(states)-1, resilience.ClassOutput)
		}
		return nil
	}
	if err := x.recoverLoop(ctx, readAttempt, &stats); err != nil {
		return Result{Hashing: sm.Hashing(), Recovery: stats}, err
	}
	if x.OnLayerMACs != nil {
		x.OnLayerMACs(len(states), sm.RegisterSnapshot())
	}
	rt.drain() // joins the loader, then merges its shard's block and pad tallies
	return Result{Output: out, OutputMAC: outputMAC, Layers: len(states), Blocks: int(total),
		Counts: sm.BlockCounts(), Hashing: sm.Hashing(), Keystream: sm.Keystreams(), Recovery: stats}, nil
}

// residentFor reports whether this run may attach to x.Residency: the
// pinned state must match the executor's config and the caller's weight
// tensors exactly, and no hook or injector may be installed — per-request
// weight verification is precisely the check those harnesses exercise.
func (x *Executor) residentFor(net workload.Network, weights []*nn.Weights) bool {
	return x.Residency != nil && x.AfterPhase == nil && x.Injector == nil &&
		x.Residency.matches(net, x.NPU, x.DRAM, x.Secret, x.Random, weights)
}

// classify wraps an integrity failure in the typed taxonomy; other errors
// (mapping, protocol, context) pass through untouched.
func classify(err error, layer int, class resilience.TensorClass) error {
	if !errors.Is(err, mac.ErrIntegrity) {
		return err
	}
	return &resilience.IntegrityError{Layer: layer, Tensor: class, Err: err}
}

// recoverLoop drives one layer (or the readout epoch) through the bounded
// detect-and-recover policy: retry transient integrity failures at once,
// unless ctx is done; classify survivors as persistent, latch the breach,
// and — on the versioned activation/output path — promote them to
// freshness violations, the signature of replay or splice tampering that
// re-fetching cannot fix.
func (x *Executor) recoverLoop(ctx context.Context, attempt func(restart bool) error, stats *resilience.Stats) error {
	for try := 0; ; try++ {
		err := attempt(try > 0)
		if err == nil {
			if try > 0 {
				stats.Recovered++
			}
			return nil
		}
		if !resilience.Retryable(err) {
			return err
		}
		if try >= x.Retry.MaxRetries {
			stats.Persistent++
			stats.Breached = true
			var ie *resilience.IntegrityError
			if errors.As(err, &ie) {
				ie.Persistent = true
				if ie.Tensor == resilience.ClassActivation || ie.Tensor == resilience.ClassOutput {
					return &resilience.FreshnessError{Layer: ie.Layer, Tensor: ie.Tensor, Retries: try, Err: ie}
				}
			}
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		stats.Retries++
	}
}

// hook runs the attacker hook, if any; the loop shard has recorded its
// block moves in the DRAM's traffic counters as it made them.
func (x *Executor) hook(phase int, d *mem.DRAM) {
	if x.AfterPhase != nil {
		x.AfterPhase(phase, d)
	}
}

// plan maps every layer and lays out the address space without writing
// anything: the input region, then per layer its activation and weight
// regions, all contiguous from line 0. It returns the total line count so
// the run can pre-reserve the DRAM store before anything is written. The
// mapping search is memoized (sched.MapCached) — the serving tier plans
// the same layers on every request — and a residency attach reuses its
// pinned choices outright.
func (x *Executor) plan(net workload.Network, weights []*nn.Weights) ([]layerState, actLayout, uint64, error) {
	var choices []sched.Choice
	if x.residentFor(net, weights) {
		choices = x.Residency.choices
	} else {
		var err error
		choices, err = sched.MapNetworkCached(net, x.NPU, x.DRAM)
		if err != nil {
			return nil, actLayout{}, 0, err
		}
	}
	states, inputLayout, next := planLayout(net, weights, choices)
	return states, inputLayout, next, nil
}

// planLayout lays out the address space for a fixed set of mapping
// choices: the deterministic half of plan, shared with the residency
// build so pinned weight regions land at exactly the addresses any
// attaching run will plan.
func planLayout(net workload.Network, weights []*nn.Weights, choices []sched.Choice) ([]layerState, actLayout, uint64) {
	var next uint64

	// Layer-0 input region, owned by host "layer" 0 at version 1.
	first := net.Layers[0]
	inputLayout := actLayout{
		base: next, chans: first.C, rows: first.H, cols: first.W,
		bpr: tensor.CeilDiv(first.W*4, tensor.BlockBytes), ownerID: 0, vn: 1,
	}
	next += uint64(inputLayout.blocks())

	states := make([]layerState, len(net.Layers))
	for i, choice := range choices {
		l := choice.Layer
		st := layerState{layer: l, choice: choice}

		// Output activation region.
		wp := dataflow.DeriveWrite(choice.Mapping)
		st.act = actLayout{
			base: 0, chans: l.K, rows: l.OutH(), cols: l.OutW(),
			bpr:     tensor.CeilDiv(l.OutW()*4, tensor.BlockBytes),
			ownerID: uint32(i + 1),
			vn:      vngen.FinalVN(wp),
		}
		st.act.base = next
		next += uint64(st.act.blocks())

		// Weight region (host-written, owner tag 0x8000+i, version 1).
		if weights[i] != nil {
			ct := choice.CT
			if l.Type == workload.Depthwise {
				ct = 1
			}
			st.wl = weightLayout{
				base:        next,
				k:           l.K,
				cGroups:     choice.Mapping.AlphaC,
				sliceInts:   ct * l.R * l.S,
				sliceBlocks: tensor.CeilDiv(ct*l.R*l.S*4, tensor.BlockBytes),
				ownerID:     uint32(0x8000 + i),
			}
			next += uint64(st.wl.blocks())
		}
		states[i] = st
	}
	return states, inputLayout, next
}

// planInfo flattens the planned layout into the public PlanInfo view.
func planInfo(states []layerState, input actLayout) PlanInfo {
	p := PlanInfo{Input: Region{Base: input.base, Blocks: input.blocks()}}
	for i := range states {
		st := &states[i]
		p.Acts = append(p.Acts, Region{Base: st.act.base, Blocks: st.act.blocks()})
		var w Region
		if st.wl.sliceBlocks > 0 {
			w = Region{Base: st.wl.base, Blocks: st.wl.blocks()}
		}
		p.Weights = append(p.Weights, w)
	}
	return p
}

// loadInput host-writes the encrypted layer-0 input through the loop shard,
// as one tile encoded straight from the input tensor's rows, and returns the
// host's golden XOR-MAC over all its blocks.
func (x *Executor) loadInput(rt *inferRuntime, input *nn.Tensor, il actLayout) mac.Digest {
	t := protect.Tile{Base: il.base, Rows: il.rows, BPR: il.bpr, K0: 0, K1: input.Chans, Y0: 0, Y1: input.H}
	return rt.sh.HostWriteTile(t, 0, 1, func(c, y int) []int32 { return rowOf(input, c, y) })
}

// loadLayerWeights host-stores one layer's weights through a shard, slice
// by slice, each encoded straight from its run of the weight tensor
// (HostStoreRow: no MAC is hashed; the layer's weight check compares its
// reads with what the memo says was stored).
func loadLayerWeights(sh *protect.SeculatorShard, st *layerState, w *nn.Weights) {
	wl := st.wl
	for k := 0; k < wl.k; k++ {
		for cg := 0; cg < wl.cGroups; cg++ {
			sh.HostStoreRow(wl.addr(k, cg, 0), wl.ownerID, uint32(k), 1, uint32(cg*wl.sliceBlocks),
				wl.sliceBlocks, weightRun(st.layer, w, k, cg, wl.sliceInts))
		}
	}
}

// provisionLayer readies one layer of a loader run through a shard, the
// loop's or the loader's: it stores the layer's weights and, when the
// layer's final VN is 1, computes its output lines' pads ahead.
func provisionLayer(sh *protect.SeculatorShard, st *layerState, w *nn.Weights) {
	if w != nil {
		loadLayerWeights(sh, st, w)
	}
	if st.act.vn == 1 {
		padOutputsAhead(sh, st.act)
	}
}

// loadAllWeights host-stores every layer's weights up front (hooked and
// injected runs) through the loop shard.
func (x *Executor) loadAllWeights(rt *inferRuntime, states []layerState, weights []*nn.Weights) {
	for i := range states {
		if weights[i] != nil {
			loadLayerWeights(rt.sh, &states[i], weights[i])
		}
	}
}

// padOutputsAhead computes the pad of every line of a layer's output
// region into its memo entry (protect.PadAhead), one channel — a run of
// consecutive lines and block indices — at a time. Only for a layer whose
// final VN is 1: each output line is then written once, under exactly the
// counter padded here.
func padOutputsAhead(sh *protect.SeculatorShard, a actLayout) {
	for ch := 0; ch < a.chans; ch++ {
		sh.PadAhead(a.addr(ch, 0, 0), a.ownerID, uint32(ch), a.vn, 0, a.rows*a.bpr)
	}
}

// weightRun returns the (k, c-group) weight slice where it lives: the
// (k, c, r, s) layout stores a group of sliceInts/(R·S) channels as one
// contiguous run of the tensor, clipped at the last real channel. The run
// needs no staging copy: a padded channel group is a run shorter than
// sliceInts (or empty), and protect's block codec zero-pads on encode and
// clips on decode. A depthwise filter has one channel, which every c-group
// sees.
func weightRun(l workload.Layer, w *nn.Weights, k, cg, sliceInts int) []int32 {
	filter := w.R * w.S
	ct := sliceInts / filter
	if l.Type == workload.Depthwise {
		cg = 0
	}
	lo, hi := min(cg*ct, w.C), min((cg+1)*ct, w.C)
	return w.Data[(k*w.C+lo)*filter : (k*w.C+hi)*filter]
}

func rowOf(t *nn.Tensor, c, y int) []int32 {
	return t.Data[(c*t.H+y)*t.W : (c*t.H+y)*t.W+t.W]
}
