package conformance

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"seculator/internal/attack"
	"seculator/internal/dataflow"
	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/pattern"
	"seculator/internal/protect"
	"seculator/internal/resilience"
	"seculator/internal/runner"
	"seculator/internal/sched"
	"seculator/internal/secure"
	"seculator/internal/sim"
	"seculator/internal/tensor"
	"seculator/internal/vngen"
)

// ---------------------------------------------------------------------------
// Oracle 3: the VN master equation.
// ---------------------------------------------------------------------------

// CheckVN verifies, for one raw mapping, every property the paper hangs on
// the master equation (1^η, 2^η, …, κ^η)^ρ:
//
//   - the ⟨η,κ,ρ⟩ FSM replays exactly the write and read VN sequences the
//     dataflow generator enumerates, tile by tile, and is exhausted at the
//     end (LayerUnit replay included);
//   - compressing the enumerated sequences recovers the derived triplets
//     (round trip through pattern.Compress);
//   - the streaming first-read predicates (K==0 for ifmaps, S==0 for
//     weights) agree with the generator's First flags on every event;
//   - final writes carry FinalVN, and the analytic traffic estimate matches
//     the sum of enumerated event blocks.
//
// Structurally invalid mappings (fuzzing can produce them) are skipped.
func CheckVN(ms MapSpec) error {
	m := ms.Mapping()
	if err := m.Validate(); err != nil {
		return nil // out of scope: the oracle is about valid mappings
	}
	events, err := dataflow.Collect(m)
	if err != nil {
		return fmt.Errorf("valid mapping failed to enumerate: %w", err)
	}
	writeT, readT := dataflow.DeriveWrite(m), dataflow.DeriveRead(m)
	if !writeT.Valid() || !readT.Valid() {
		return fmt.Errorf("derived invalid triplet: write=%+v read=%+v", writeT, readT)
	}

	// Whole-layer FSM replay: the VN generators are per-layer hardware —
	// the triplets describe the full write/read VN sequences in program
	// order, tiles interleaved exactly as the dataflow emits them.
	wGen, rGen := vngen.New(writeT), vngen.New(readT)
	unit := vngen.NewLayerUnit(1, m, pattern.Triplet{})

	// Per-tile VN ground truth, tracked independently of the FSMs: a tile's
	// write VNs must count 1,2,3,… and a read must return the tile's last
	// written VN (the generator's in-place partial-sum contract).
	lastWrite := map[tensor.TileID]int{}

	var writeSeq, readSeq []int
	var blockSum uint64
	finalVN := vngen.FinalVN(writeT)
	for i, e := range events {
		blockSum += uint64(e.Blocks)
		switch {
		case e.Tensor == tensor.Ofmap && e.Kind == sim.Write:
			writeSeq = append(writeSeq, e.VN)
			want, ok := wGen.Next()
			if !ok || want != e.VN {
				return fmt.Errorf("event %d: write VN %d, FSM replay gives (%d,%v)", i, e.VN, want, ok)
			}
			uw, uok := unit.WriteVN()
			if !uok || uw != e.VN {
				return fmt.Errorf("event %d: write VN %d, LayerUnit gives (%d,%v)", i, e.VN, uw, uok)
			}
			if e.VN != lastWrite[e.Tile]+1 {
				return fmt.Errorf("event %d: tile %+v write VN %d after %d", i, e.Tile, e.VN, lastWrite[e.Tile])
			}
			lastWrite[e.Tile] = e.VN
			if e.Final != (e.VN == finalVN) {
				return fmt.Errorf("event %d: Final=%v but VN %d vs FinalVN %d", i, e.Final, e.VN, finalVN)
			}
		case e.Tensor == tensor.Ofmap && e.Kind == sim.Read:
			readSeq = append(readSeq, e.VN)
			want, ok := rGen.Next()
			if !ok || want != e.VN {
				return fmt.Errorf("event %d: read VN %d, FSM replay gives (%d,%v)", i, e.VN, want, ok)
			}
			ur, uok := unit.ReadVN()
			if !uok || ur != e.VN {
				return fmt.Errorf("event %d: read VN %d, LayerUnit gives (%d,%v)", i, e.VN, ur, uok)
			}
			if e.VN != lastWrite[e.Tile] {
				return fmt.Errorf("event %d: tile %+v read VN %d, last write %d", i, e.Tile, e.VN, lastWrite[e.Tile])
			}
		case e.Tensor == tensor.Ifmap:
			var want bool
			if m.PerChannel {
				want = e.Idx.C == 0
			} else {
				want = vngen.FirstIfmapRead(e.Idx)
			}
			if e.First != want {
				return fmt.Errorf("event %d: ifmap First=%v, predicate says %v (idx %+v)", i, e.First, want, e.Idx)
			}
		case e.Tensor == tensor.Weight:
			if e.First != vngen.FirstWeightRead(e.Idx) {
				return fmt.Errorf("event %d: weight First=%v, predicate says %v (idx %+v)", i, e.First, vngen.FirstWeightRead(e.Idx), e.Idx)
			}
		}
	}
	if !wGen.Exhausted() || !rGen.Exhausted() {
		return fmt.Errorf("FSMs not exhausted (write rem %d, read rem %d)", wGen.Remaining(), rGen.Remaining())
	}
	if !unit.Done() {
		return fmt.Errorf("LayerUnit not done after replay")
	}

	// Round trip: the enumerated sequences must compress back to the
	// derived triplets.
	if err := checkRoundTrip("write", writeSeq, writeT); err != nil {
		return err
	}
	if err := checkRoundTrip("read", readSeq, readT); err != nil {
		return err
	}

	// Streaming-generator bookkeeping: Reset replays identically.
	if err := checkReset(writeT); err != nil {
		return err
	}

	// Analytic traffic estimate vs. enumerated blocks.
	if est := sched.EstimateDataBlocks(m); est != blockSum {
		return fmt.Errorf("EstimateDataBlocks=%d but events sum to %d", est, blockSum)
	}
	return nil
}

// checkRoundTrip verifies an enumerated VN sequence compresses back to the
// derived triplet.
func checkRoundTrip(name string, seq []int, want pattern.Triplet) error {
	got, ok := pattern.Compress(seq)
	if !ok {
		return fmt.Errorf("%s sequence is not a master-equation instance: %v", name, seq)
	}
	if len(seq) == 0 {
		if want.Len() != 0 {
			return fmt.Errorf("%s sequence empty but derived triplet %+v expands to %d", name, want, want.Len())
		}
		return nil
	}
	if !pattern.Equal(got, want) {
		return fmt.Errorf("%s sequence compresses to %+v, derived %+v", name, got, want)
	}
	return nil
}

// checkReset drains a generator twice around a Reset and compares.
func checkReset(t pattern.Triplet) error {
	g := vngen.New(t)
	var a []int
	for v, ok := g.Next(); ok; v, ok = g.Next() {
		a = append(a, v)
	}
	if g.Emitted() != t.Len() {
		return fmt.Errorf("generator emitted %d, triplet length %d", g.Emitted(), t.Len())
	}
	g.Reset()
	for i := range a {
		v, ok := g.Next()
		if !ok || v != a[i] {
			return fmt.Errorf("replay after Reset diverged at %d: (%d,%v) vs %d", i, v, ok, a[i])
		}
	}
	if !g.Exhausted() {
		return fmt.Errorf("generator not exhausted after Reset replay")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Oracle 1: cross-scheme equivalence.
// ---------------------------------------------------------------------------

// matrixDesigns are the schemes the functional detection matrix compares.
var matrixDesigns = []protect.Design{
	protect.Baseline, protect.Secure, protect.TNPU, protect.GuardNN, protect.Seculator,
}

// CheckMatrixRow runs one attack row of the detection matrix across every
// design and checks the Table 5 shape: honest runs are clean everywhere,
// the Baseline silently corrupts, every protected design detects.
func CheckMatrixRow(scn attack.Scenario, atk attack.MatrixAttack) error {
	for _, d := range matrixDesigns {
		m, macs, dram, err := attack.NewFunctionalMemory(d)
		if err != nil {
			return fmt.Errorf("%v: %w", d, err)
		}
		res, err := attack.RunMatrix(m, macs, dram, scn, atk)
		if err != nil {
			return fmt.Errorf("%v/%v: driver error: %w", d, atk, err)
		}
		switch {
		case atk == attack.AttackNone:
			if res.Detected || res.Corrupted {
				return fmt.Errorf("%v/none: honest run flagged: %+v", d, res)
			}
		case d == protect.Baseline:
			if res.Detected {
				return fmt.Errorf("Baseline/%v: baseline cannot detect", atk)
			}
			if !res.Corrupted {
				return fmt.Errorf("Baseline/%v: attack did not corrupt data", atk)
			}
		default:
			if !res.Detected {
				return fmt.Errorf("%v/%v: attack not detected (corrupted=%v)", d, atk, res.Corrupted)
			}
		}
	}
	return nil
}

// CheckCrossScheme verifies the protection schemes agree wherever the paper
// says they must:
//
//   - functionally: on the randomized two-layer scenario every design
//     computes the identical plaintexts on honest runs, the Baseline
//     silently corrupts under every attack, and every protected design
//     detects every attack (the Table 5 shape, at a random point);
//   - architecturally: on the randomized network all designs move the
//     identical data traffic (equal to the scheduler's analytic estimate
//     and to the dataflow enumeration), the Baseline and Seculator add zero
//     metadata blocks, the per-block schemes add a nonzero overhead, and no
//     protected design is faster than the Baseline.
func CheckCrossScheme(cfg Config) error {
	scn := attack.Scenario{
		Tiles:         cfg.Scenario.Tiles,
		Versions:      cfg.Scenario.Versions,
		BlocksPerTile: cfg.Scenario.BlocksPerTile,
		Secret:        0x5ec0_1a70,
		BootRandom:    uint64(cfg.Seed)*2 + 1,
	}
	for _, atk := range attack.MatrixAttacks() {
		if err := CheckMatrixRow(scn, atk); err != nil {
			return err
		}
	}

	// Architectural accounting on the generated network.
	net := cfg.Net.Network()
	if err := net.Validate(); err != nil {
		return nil // generator/fuzzer produced an invalid net: out of scope
	}
	rcfg := runner.DefaultConfig()
	choices, err := sched.MapNetwork(net, rcfg.NPU, rcfg.DRAM)
	if err != nil {
		return fmt.Errorf("schedule: %w", err)
	}
	var want uint64
	for _, c := range choices {
		est := sched.EstimateDataBlocks(c.Mapping)
		if est != c.DataBlocks {
			return fmt.Errorf("layer %s: choice.DataBlocks=%d, estimate=%d", c.Layer.Name, c.DataBlocks, est)
		}
		events, err := dataflow.Collect(c.Mapping)
		if err != nil {
			return fmt.Errorf("layer %s: %w", c.Layer.Name, err)
		}
		var sum uint64
		for _, e := range events {
			sum += uint64(e.Blocks)
		}
		if sum != est {
			return fmt.Errorf("layer %s: enumerated %d blocks, estimate %d", c.Layer.Name, sum, est)
		}
		want += est
	}

	var baseCycles sim.Cycles
	var baseData uint64
	for i, d := range matrixDesigns {
		res, err := runner.Run(context.Background(), net, d, rcfg)
		if err != nil {
			return fmt.Errorf("%v: %w", d, err)
		}
		data := res.Traffic.ByKind(sim.DataTraffic)
		if data != want {
			return fmt.Errorf("%v: data traffic %d, schedule says %d", d, data, want)
		}
		if i == 0 {
			baseCycles, baseData = res.Cycles, data
		}
		if data != baseData {
			return fmt.Errorf("%v: data traffic %d differs from baseline %d", d, data, baseData)
		}
		over := res.Traffic.Overhead()
		switch d {
		case protect.Baseline, protect.Seculator:
			if over != 0 {
				return fmt.Errorf("%v: metadata overhead %d blocks, want 0", d, over)
			}
		default:
			if over == 0 {
				return fmt.Errorf("%v: zero metadata overhead", d)
			}
		}
		if res.Cycles < baseCycles {
			return fmt.Errorf("%v: %d cycles, faster than baseline %d", d, res.Cycles, baseCycles)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Oracle 2: serial/parallel equivalence — one P or several, the model loaded
// up front or by the loader.
// ---------------------------------------------------------------------------

// runSnapshot is everything observable about one executor run that must be
// bit-identical however many Ps it runs on and whenever its weights load.
type runSnapshot struct {
	out       []int32
	outputMAC mac.Digest
	blocks    int
	counts    protect.BlockCounts
	regs      []protect.RegisterState
	phases    []uint64 // hooked runs: FNV-1a over the full DRAM ciphertext per phase
}

func dramDigest(d *mem.DRAM) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	d.ForEachLine(func(addr uint64, data []byte) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(addr >> (8 * i))
		}
		h.Write(buf[:])
		h.Write(data)
	})
	return h.Sum64()
}

// CheckSerialParallel runs the secure executor on the generated network four
// ways — {one P, several} × {hooked, loader} — and asserts identical
// decrypted outputs (also equal to the plaintext reference), OutputMAC,
// Blocks and Counts, identical per-layer snapshots of all four XOR-MAC
// registers (values and fold counts), and, between the two hooked runs,
// bit-identical DRAM ciphertext at every phase boundary. A hooked run (an
// AfterPhase hook) loads the whole model up front on fresh state; a loader
// run is the default, each layer provisioned by whichever of the loader and
// the layer loop claims it first — at one P (GOMAXPROCS=1) the loop, which
// never waits for a loader that has not claimed its layer, provisions them
// all itself. The layer loop hashes every block MAC itself: at every
// layer's register snapshot a run has started no goroutine but the loader
// (none when hooked), and after Run none is left. The oracle keeps its name
// for its repro corpora.
func CheckSerialParallel(cfg Config) error {
	net := cfg.Net.Network()
	if err := net.Validate(); err != nil {
		return nil
	}
	in, ws := nn.RandomModel(net, cfg.Seed)
	golden, err := nn.ForwardNetwork(net, in, ws)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}

	run := func(procs int, hooked bool) (runSnapshot, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		x := secure.NewExecutor()
		var snap runSnapshot
		before, loader := runtime.NumGoroutine(), 1
		if hooked {
			loader = 0
		}
		var extra error
		x.OnLayerMACs = func(phase int, regs protect.RegisterState) {
			snap.regs = append(snap.regs, regs)
			if n := runtime.NumGoroutine(); n > before+loader && extra == nil {
				extra = fmt.Errorf("%d goroutines at phase %d, %d before Run and %d for a loader: the run started another", n, phase, before, loader)
			}
		}
		if hooked {
			x.AfterPhase = func(phase int, d *mem.DRAM) {
				snap.phases = append(snap.phases, dramDigest(d))
			}
		}
		res, err := x.Run(context.Background(), net, in, ws)
		if err != nil {
			return snap, err
		}
		if extra != nil {
			return snap, extra
		}
		// The loader's close of its channel is its last act; the runtime may
		// take a moment longer to retire it.
		for wait := 0; runtime.NumGoroutine() > before; wait++ {
			if wait == 1000 {
				return snap, fmt.Errorf("%d goroutines after Run, %d before: the run left one behind", runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
		snap.out = res.Output.Data
		snap.outputMAC = res.OutputMAC
		snap.blocks = res.Blocks
		snap.counts = res.Counts
		return snap, nil
	}

	many := max(2, runtime.GOMAXPROCS(0))
	var base runSnapshot
	for i, arm := range []struct {
		name   string
		procs  int
		hooked bool
	}{
		{"one-P/hooked", 1, true},
		{"many-P/hooked", many, true},
		{"one-P/loader", 1, false},
		{"many-P/loader", many, false},
	} {
		snap, err := run(arm.procs, arm.hooked)
		if err != nil {
			return fmt.Errorf("%s: honest run failed: %w", arm.name, err)
		}
		if i > 0 {
			if err := snap.diff(base, arm.name+" vs one-P/hooked"); err != nil {
				return err
			}
			continue
		}
		base = snap
		if len(snap.out) != len(golden.Data) {
			return fmt.Errorf("output length %d, reference %d", len(snap.out), len(golden.Data))
		}
		for j := range snap.out {
			if snap.out[j] != golden.Data[j] {
				return fmt.Errorf("output[%d]=%d, reference %d", j, snap.out[j], golden.Data[j])
			}
		}
	}
	return nil
}

// diff compares s with base; phase digests only when s has them (a hooked run).
func (s runSnapshot) diff(base runSnapshot, tag string) error {
	for j := range s.out {
		if s.out[j] != base.out[j] {
			return fmt.Errorf("%s: output[%d] %d != %d", tag, j, s.out[j], base.out[j])
		}
	}
	if s.outputMAC != base.outputMAC {
		return fmt.Errorf("%s: OutputMAC differs", tag)
	}
	if s.blocks != base.blocks {
		return fmt.Errorf("%s: Blocks %d != %d", tag, s.blocks, base.blocks)
	}
	if s.counts != base.counts {
		return fmt.Errorf("%s: Counts %+v != %+v", tag, s.counts, base.counts)
	}
	if len(s.regs) != len(base.regs) {
		return fmt.Errorf("%s: %d register snapshots != %d", tag, len(s.regs), len(base.regs))
	}
	for j := range s.regs {
		if s.regs[j] != base.regs[j] {
			return fmt.Errorf("%s: MAC registers diverge at phase %d: %+v != %+v", tag, j, s.regs[j], base.regs[j])
		}
	}
	if s.phases == nil {
		return nil
	}
	if len(s.phases) != len(base.phases) {
		return fmt.Errorf("%s: %d phase digests != %d", tag, len(s.phases), len(base.phases))
	}
	for j := range s.phases {
		if s.phases[j] != base.phases[j] {
			return fmt.Errorf("%s: ciphertext diverges at phase %d", tag, j)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Oracle 4: attack detection — zero false negatives, zero false positives.
// ---------------------------------------------------------------------------

// CheckAttackDetection mounts the config's randomized attack on two
// surfaces and demands detection on both, after confirming the honest runs
// pass:
//
//   - temporal: the functional two-layer scenario (partial-sum versions in
//     place), attacked per the spec — byte tamper, block swap, or stale-
//     version replay through the DRAM mutation surface;
//   - spatial: the full secure executor on the generated network, attacked
//     through the AfterPhase hook at a guaranteed-consumed region — the
//     final output region after the last layer, or a weight region right
//     after the host load.
func CheckAttackDetection(cfg Config) error {
	if err := checkScenarioAttack(cfg); err != nil {
		return err
	}
	return checkExecutorAttack(cfg)
}

func checkScenarioAttack(cfg Config) error {
	scn := attack.Scenario{
		Tiles:         cfg.Scenario.Tiles,
		Versions:      cfg.Scenario.Versions,
		BlocksPerTile: cfg.Scenario.BlocksPerTile,
		Secret:        0x5ec0_1a70,
		BootRandom:    uint64(cfg.Seed)*2 + 1,
	}
	if err := attack.RunSeculator(scn, nil, nil); err != nil {
		return fmt.Errorf("scenario: honest run rejected (false positive): %w", err)
	}

	a := cfg.Attack
	total := scn.Tiles * scn.BlocksPerTile
	pick := func(sel int) (tile, blk int) {
		sel %= total
		return sel / scn.BlocksPerTile, sel % scn.BlocksPerTile
	}
	var midLayer, mutate attack.Mutator
	var stale []byte
	var staleAddr uint64
	name := ""
	switch a.Kind % 3 {
	case 0: // single-byte ciphertext tamper
		name = "tamper"
		mutate = func(d *mem.DRAM, l attack.Layout) {
			t, b := pick(a.Block)
			d.Tamper(l.Addr(t, b), a.Byte%64, 1<<(a.Bit%8))
		}
	case 1: // splice: swap two distinct blocks
		name = "splice"
		mutate = func(d *mem.DRAM, l attack.Layout) {
			t1, b1 := pick(a.Block)
			t2, b2 := pick(a.Block2)
			if t1 == t2 && b1 == b2 {
				t2, b2 = pick(a.Block2 + 1)
			}
			d.Swap(l.Addr(t1, b1), l.Addr(t2, b2))
		}
	default: // temporal replay of a stale partial-sum version
		name = "replay"
		midLayer = func(d *mem.DRAM, l attack.Layout) {
			t, b := pick(a.Block)
			staleAddr = l.Addr(t, b)
			stale, _ = d.Snapshot(staleAddr)
		}
		mutate = func(d *mem.DRAM, l attack.Layout) {
			d.Restore(staleAddr, stale)
		}
	}
	err := attack.RunSeculator(scn, midLayer, mutate)
	if err == nil {
		return fmt.Errorf("scenario: %s attack undetected (false negative)", name)
	}
	if !errorsIsIntegrity(err) {
		return fmt.Errorf("scenario: %s attack raised non-integrity error: %w", name, err)
	}
	return nil
}

func checkExecutorAttack(cfg Config) error {
	net := cfg.Net.Network()
	if err := net.Validate(); err != nil {
		return nil
	}
	in, ws := nn.RandomModel(net, cfg.Seed)

	var plan secure.PlanInfo
	x := secure.NewExecutor()
	x.Retry = resilience.Disabled()
	x.OnPlan = func(p secure.PlanInfo) { plan = p }

	a := cfg.Attack
	kind := a.Kind % atkKinds
	// Weight tampering needs a layer that has weights; temporal replay is
	// the scenario surface's job. Both fall back to the always-available
	// output tamper once the plan is known.
	weightTarget := -1
	mount := func(phase int, d *mem.DRAM) {
		final := plan.Final()
		switch kind {
		case AtkTamperWeights:
			if phase != -1 || weightTarget < 0 {
				return
			}
			w := plan.Weights[weightTarget]
			d.Tamper(w.Base+uint64(a.Block%w.Blocks), a.Byte%64, 1<<(a.Bit%8))
		case AtkSwapOutput, AtkSpliceOutput:
			if phase != len(plan.Acts)-1 || final.Blocks < 2 {
				return
			}
			b1 := uint64(a.Block % final.Blocks)
			b2 := uint64(a.Block2 % final.Blocks)
			if b1 == b2 {
				b2 = (b2 + 1) % uint64(final.Blocks)
			}
			if kind == AtkSwapOutput {
				d.Swap(final.Base+b1, final.Base+b2)
			} else {
				src, _ := d.Snapshot(final.Base + b1)
				d.Restore(final.Base+b2, src)
			}
		default: // AtkTamperOutput and fallbacks
			if phase != len(plan.Acts)-1 {
				return
			}
			d.Tamper(final.Base+uint64(a.Block%final.Blocks), a.Byte%64, 1<<(a.Bit%8))
		}
	}

	// First pass just captures the plan (honest; must succeed — that is the
	// executor-path false-positive check).
	if _, err := x.Run(context.Background(), net, in, ws); err != nil {
		return fmt.Errorf("executor: honest run rejected (false positive): %w", err)
	}
	// Resolve fallbacks now that the plan is known.
	if kind == AtkTamperWeights {
		for i, w := range plan.Weights {
			if w.Blocks > 0 {
				weightTarget = i
				break
			}
		}
		if weightTarget < 0 {
			kind = AtkTamperOutput
		}
	}
	if (kind == AtkSwapOutput || kind == AtkSpliceOutput) && plan.Final().Blocks < 2 {
		kind = AtkTamperOutput
	}
	if kind == AtkReplayStale {
		kind = AtkTamperOutput
	}

	x2 := secure.NewExecutor()
	x2.Retry = resilience.Disabled()
	x2.OnPlan = func(p secure.PlanInfo) { plan = p }
	x2.AfterPhase = mount
	res, err := x2.Run(context.Background(), net, in, ws)
	if err == nil {
		return fmt.Errorf("executor: attack kind %d undetected (false negative)", kind)
	}
	if !res.Recovery.Breached {
		return fmt.Errorf("executor: attack kind %d errored without latching the breach: %w", kind, err)
	}
	return nil
}

// errorsIsIntegrity reports whether err is an integrity-class detection.
func errorsIsIntegrity(err error) bool {
	return errors.Is(err, mac.ErrIntegrity)
}
