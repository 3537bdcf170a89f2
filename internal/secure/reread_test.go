package secure

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"seculator/internal/nn"
	"seculator/internal/protect"
	"seculator/internal/resilience"
	"seculator/internal/workload"
)

// Repeat reads: a mapping whose tiles do not fit the global buffer fetches
// the same DRAM line more than once within a layer, and the adversary owns
// the DRAM between the fetches (DESIGN.md §6, §10).

// rereadTap counts the reads of every line inside the regions it watches
// and, when flip is set, corrupts the first repeat read in flight — once, so
// a layer retry re-fetches clean data.
type rereadTap struct {
	regions []Region
	seen    map[uint64]int
	flip    bool
	repeats int
}

func (p *rereadTap) OnRead(addr uint64, data []byte) {
	for _, r := range p.regions {
		if !r.Contains(addr) {
			continue
		}
		if p.seen[addr]++; p.seen[addr] > 1 {
			if p.repeats == 0 && p.flip {
				data[3] ^= 0x40
			}
			p.repeats++
		}
		return
	}
}

func (p *rereadTap) OnWrite(uint64, []byte) {}

// rereadExecutor squeezes Mini through a 2 KiB global buffer (184 repeat
// weight reads; the default buffer makes none) or runs it at the default
// one (480 repeat ifmap reads), watching the regions pick selects.
func rereadExecutor(smallBuffer, flip bool, pick func(PlanInfo) []Region) (*Executor, *rereadTap) {
	tap := &rereadTap{seen: map[uint64]int{}, flip: flip}
	x := NewExecutor()
	if smallBuffer {
		x.NPU.GlobalBufferBytes = 2048
	}
	x.Injector = tap
	x.OnPlan = func(pi PlanInfo) { tap.regions = pick(pi) }
	return x, tap
}

func miniAndGolden(t *testing.T) (workload.Network, *nn.Tensor, []*nn.Weights, *nn.Tensor) {
	t.Helper()
	net := resolveShape(t, "Mini")
	in, ws := nn.RandomModel(net, 1)
	golden, err := nn.ForwardNetwork(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	return net, in, ws, golden
}

// TestRepeatWeightReadTamperDetected: only a weight block's first read folds
// into the golden comparison, so a repeat read must equal it to be consumed.
// Until PR 19 it was decoded over the verified weights unchecked: one bit
// flipped on a second read gave a wrong output and no error. Workers is
// GOMAXPROCS: the verdicts may not depend on how many Ps the run has.
func TestRepeatWeightReadTamperDetected(t *testing.T) {
	net, in, ws, golden := miniAndGolden(t)
	weights := func(pi PlanInfo) []Region { return pi.Weights }
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
			x, tap := rereadExecutor(true, false, weights)
			res, err := x.Run(context.Background(), net, in, ws)
			if err != nil || !res.Output.Equal(golden) {
				t.Fatalf("honest run: err = %v, output equal = %v", err, err == nil && res.Output.Equal(golden))
			}
			if tap.repeats == 0 {
				t.Fatal("the mapping never re-read a weight block; the test exercises nothing")
			}

			x, _ = rereadExecutor(true, true, weights)
			x.Retry = resilience.Policy{}
			_, err = x.Run(context.Background(), net, in, ws)
			var ie *resilience.IntegrityError
			if !errors.As(err, &ie) || ie.Tensor != resilience.ClassWeight {
				t.Fatalf("flipped repeat read, no retries: err = %v, want an IntegrityError of class weight", err)
			}

			x, _ = rereadExecutor(true, true, weights)
			res, err = x.Run(context.Background(), net, in, ws)
			if err != nil {
				t.Fatalf("one-shot flip under the default policy: %v", err)
			}
			if res.Recovery.Recovered != 1 || !res.Output.Equal(golden) {
				t.Fatalf("recovery %+v, output equal = %v; want one recovered layer and the reference output",
					res.Recovery, res.Output.Equal(golden))
			}
		})
	}
}

// TestRepeatIfmapReadTamperHarmless pins the asymmetry that is not a bug: a
// repeat activation read folds into MAC_IR (which nothing in this package
// checks) but is decoded on first touch only, so the same flip cannot reach
// the output — the run is clean and correct.
func TestRepeatIfmapReadTamperHarmless(t *testing.T) {
	net, in, ws, golden := miniAndGolden(t)
	x, tap := rereadExecutor(false, true, func(pi PlanInfo) []Region {
		return append([]Region{pi.Input}, pi.Acts...)
	})
	x.Retry = resilience.Policy{}
	res, err := x.Run(context.Background(), net, in, ws)
	if tap.repeats == 0 {
		t.Fatal("the mapping never re-read an activation block; the test exercises nothing")
	}
	if err != nil || !res.Output.Equal(golden) {
		t.Fatalf("flipped repeat ifmap read: err = %v, want a clean run equal to the reference", err)
	}
}

// phasePin is one phase's MAC bank as OnLayerMACs reports it: the fold
// counts of W, R, FR and IR, and SHA-256(W ‖ R ‖ FR ‖ IR) of the values.
type phasePin struct {
	folds [4]uint64
	regs  string
}

func pinOf(r protect.RegisterState) phasePin {
	h := sha256.New()
	for _, d := range [][]byte{r.W[:], r.R[:], r.FR[:], r.IR[:]} {
		h.Write(d)
	}
	return phasePin{[4]uint64{r.WFolds, r.RFolds, r.FRFolds, r.IRFolds}, fmt.Sprintf("%x", h.Sum(nil))}
}

// miniPhasePins are Mini's (model seed 1, default config) five layer banks
// and its readout bank, captured at commit 45b0f2c, where every repeat ifmap
// read was fetched, decrypted, MACed and folded on its own. Phase 4 is the FC
// layer: 96 producer blocks first-read once and re-read five times each.
var miniPhasePins = []phasePin{
	{[4]uint64{96, 0, 36, 36}, "d02a6eb6d4f0d57e14a19e1107e1700f1d5d9706396bf90632650773246808f0"},
	{[4]uint64{48, 0, 96, 96}, "7cf34482e4f54f69c0bf8a8da47b2e3892d33c374dc4f7500eb9b60bfa201798"},
	{[4]uint64{48, 0, 48, 48}, "9072ba002eef90313e3134552d7afe21eedbef9ed863f2a43ac08acfa6613407"},
	{[4]uint64{96, 0, 48, 48}, "ea612f3b4ae8c7109f43690977130d54e1f31e0c726e9d10010191a79189ab13"},
	{[4]uint64{10, 0, 96, 576}, "bcbb765fac449d37780a90207c919cac29ea62ec30ed8d2750aa822b73827301"},
	{[4]uint64{0, 0, 10, 10}, "9d18b761893564129ebf409cfa7012a8dbcfd304a3c482fd754fe71ffad6dabb"},
}

// miniFlippedFC is phase 4 of the same run when the first repeat activation
// read — the FC layer's second read of its first block — arrives with one bit
// flipped: the corrupt digest folds into MAC_IR and nowhere else.
var miniFlippedFC = phasePin{[4]uint64{10, 0, 96, 576}, "fc8319e25f3af0130f5aa36b0ea3b504650d6fc04fd9bd044c8731ec77dfe3f7"}

// TestMiniRegistersPinned holds every register value and fold count of Mini
// to what the per-read loop produced — a re-read may cost less than a first
// read, but it folds what that read would have folded, a tampered one
// included — on fresh and pooled state and under an injector.
func TestMiniRegistersPinned(t *testing.T) {
	net, in, ws, golden := miniAndGolden(t)
	run := func(x *Executor) []phasePin {
		t.Helper()
		var got []phasePin
		x.OnLayerMACs = func(_ int, r protect.RegisterState) { got = append(got, pinOf(r)) }
		res, err := x.Run(context.Background(), net, in, ws)
		if err != nil || !res.Output.Equal(golden) {
			t.Fatalf("err = %v, want a clean run equal to the reference", err)
		}
		return got
	}
	check := func(name string, got, want []phasePin) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d phases, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s, phase %d: %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}
	x := NewExecutor()
	for pass := 0; pass < 2; pass++ { // the second pass rides pooled state
		check(fmt.Sprintf("pass %d", pass), run(x), miniPhasePins)
	}
	acts := func(pi PlanInfo) []Region { return append([]Region{pi.Input}, pi.Acts...) }
	x, _ = rereadExecutor(false, false, acts)
	check("injector, no flip", run(x), miniPhasePins)

	x, tap := rereadExecutor(false, true, acts)
	x.Retry = resilience.Policy{}
	want := append([]phasePin(nil), miniPhasePins...)
	want[4] = miniFlippedFC
	check("first repeat read flipped", run(x), want)
	if tap.repeats != 480 {
		t.Fatalf("the tap saw %d repeat activation reads, want 480", tap.repeats)
	}
}
