package secure

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"seculator/internal/nn"
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
func rereadExecutor(workers int, smallBuffer, flip bool, pick func(PlanInfo) []Region) (*Executor, *rereadTap) {
	tap := &rereadTap{seen: map[uint64]int{}, flip: flip}
	x := NewExecutor()
	if smallBuffer {
		x.NPU.GlobalBufferBytes = 2048
	}
	x.Parallel = workers
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
// flipped on a second read gave a wrong output and no error.
func TestRepeatWeightReadTamperDetected(t *testing.T) {
	net, in, ws, golden := miniAndGolden(t)
	weights := func(pi PlanInfo) []Region { return pi.Weights }
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			x, tap := rereadExecutor(workers, true, false, weights)
			res, err := x.Run(context.Background(), net, in, ws)
			if err != nil || !res.Output.Equal(golden) {
				t.Fatalf("honest run: err = %v, output equal = %v", err, err == nil && res.Output.Equal(golden))
			}
			if tap.repeats == 0 {
				t.Fatal("the mapping never re-read a weight block; the test exercises nothing")
			}

			x, _ = rereadExecutor(workers, true, true, weights)
			x.Retry = resilience.Policy{}
			_, err = x.Run(context.Background(), net, in, ws)
			var ie *resilience.IntegrityError
			if !errors.As(err, &ie) || ie.Tensor != resilience.ClassWeight {
				t.Fatalf("flipped repeat read, no retries: err = %v, want an IntegrityError of class weight", err)
			}

			x, _ = rereadExecutor(workers, true, true, weights)
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
	x, tap := rereadExecutor(1, false, true, func(pi PlanInfo) []Region {
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
