package vngen

import (
	"testing"
	"testing/quick"

	"seculator/internal/dataflow"
	"seculator/internal/mem"
	"seculator/internal/npu"
	"seculator/internal/pattern"
	"seculator/internal/sched"
	"seculator/internal/sim"
	"seculator/internal/tensor"
	"seculator/internal/workload"
)

func TestGeneratorMatchesExpand(t *testing.T) {
	tr := pattern.Triplet{Eta: 3, Kappa: 4, Rho: 2}
	g := New(tr)
	for i, want := range tr.Expand() {
		if p, ok := g.Peek(); !ok || p != want {
			t.Fatalf("Peek at %d = %d,%v want %d", i, p, ok, want)
		}
		got, ok := g.Next()
		if !ok || got != want {
			t.Fatalf("Next at %d = %d,%v want %d", i, got, ok, want)
		}
	}
	if !g.Exhausted() {
		t.Fatal("generator should be exhausted")
	}
	if _, ok := g.Next(); ok {
		t.Fatal("Next after exhaustion should fail")
	}
	if _, ok := g.Peek(); ok {
		t.Fatal("Peek after exhaustion should fail")
	}
}

func TestGeneratorEmptyTriplet(t *testing.T) {
	g := New(pattern.Empty)
	if !g.Exhausted() {
		t.Fatal("empty triplet generator should start exhausted")
	}
	if g.Remaining() != 0 || g.Emitted() != 0 {
		t.Fatal("empty generator counts wrong")
	}
}

func TestGeneratorInvalidTripletPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid triplet should panic")
		}
	}()
	New(pattern.Triplet{Eta: 1, Kappa: 0, Rho: 2})
}

func TestGeneratorResetAndCounts(t *testing.T) {
	tr := pattern.Triplet{Eta: 2, Kappa: 2, Rho: 2}
	g := New(tr)
	for i := 0; i < 3; i++ {
		g.Next()
	}
	if g.Emitted() != 3 || g.Remaining() != 5 {
		t.Fatalf("counts: emitted=%d remaining=%d", g.Emitted(), g.Remaining())
	}
	g.Reset()
	if g.Emitted() != 0 || g.Remaining() != 8 {
		t.Fatal("Reset did not rewind counters")
	}
	got := []int{}
	for {
		v, ok := g.Next()
		if !ok {
			break
		}
		got = append(got, v)
	}
	want := tr.Expand()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after Reset sequence diverges at %d: %v vs %v", i, got, want)
		}
	}
}

func TestStateBits(t *testing.T) {
	if bits := New(pattern.Triplet{Eta: 1, Kappa: 1, Rho: 1}).StateBits(); bits != 192 {
		t.Fatalf("StateBits = %d, want 192", bits)
	}
}

// Property: the streaming FSM reproduces Triplet.Expand for all triplets.
func TestGeneratorEquivalenceProperty(t *testing.T) {
	f := func(e, k, r uint8) bool {
		tr := pattern.Triplet{Eta: int(e%6) + 1, Kappa: int(k%6) + 1, Rho: int(r%4) + 1}
		g := New(tr)
		for _, want := range tr.Expand() {
			got, ok := g.Next()
			if !ok || got != want {
				return false
			}
		}
		_, ok := g.Next()
		return !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFinalVN(t *testing.T) {
	if FinalVN(pattern.Empty) != 1 {
		t.Fatal("empty write pattern (host-written data) should map to VN 1")
	}
	if FinalVN(pattern.Triplet{Eta: 5, Kappa: 1, Rho: 1}) != 1 {
		t.Fatal("stationary layer final VN should be 1")
	}
	if FinalVN(pattern.Triplet{Eta: 2, Kappa: 7, Rho: 3}) != 7 {
		t.Fatal("ramp final VN should be kappa")
	}
}

// End-to-end: the LayerUnit's generated VNs must equal the ground-truth VNs
// of the simulated event stream — the paper's "rigorously experimentally
// validated" claim for the VN scheme.
func TestLayerUnitMatchesEventStream(t *testing.T) {
	for _, entry := range dataflow.AllTableEntries() {
		m := entry.Build(dataflow.GridSpec{
			AlphaHW: 3, AlphaC: 4, AlphaK: 2,
			IfmapTileBlocks: 2, OfmapTileBlocks: 2, WeightTileBlocks: 1,
		})
		unit := NewLayerUnit(1, m, pattern.Triplet{Eta: 1, Kappa: 3, Rho: 1})
		ok := true
		err := dataflow.Generate(m, func(e dataflow.Event) bool {
			if e.Tensor != tensor.Ofmap {
				return true
			}
			switch e.Kind {
			case sim.Write:
				vn, has := unit.WriteVN()
				if !has || vn != e.VN {
					ok = false
					return false
				}
			case sim.Read:
				vn, has := unit.ReadVN()
				if !has || vn != e.VN {
					ok = false
					return false
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("%s row %d: FSM VNs diverge from simulated VNs", entry.Table, entry.Row)
		}
		if !unit.Done() {
			t.Fatalf("%s row %d: generators not exhausted at layer end", entry.Table, entry.Row)
		}
		if unit.IfmapVN() != 3 {
			t.Fatalf("ifmap VN = %d, want previous layer's final VN 3", unit.IfmapVN())
		}
		if unit.WeightVN() != 1 {
			t.Fatal("weight VN must be 1")
		}
	}
}

// The first-read detectors must agree with the generator's ground truth on
// every table row — this is the combinational circuit of Section 6.4.
func TestFirstReadDetectors(t *testing.T) {
	for _, entry := range dataflow.AllTableEntries() {
		m := entry.Build(dataflow.GridSpec{
			AlphaHW: 2, AlphaC: 3, AlphaK: 4,
			IfmapTileBlocks: 1, OfmapTileBlocks: 1, WeightTileBlocks: 1,
		})
		err := dataflow.Generate(m, func(e dataflow.Event) bool {
			if e.Kind != sim.Read {
				return true
			}
			switch e.Tensor {
			case tensor.Ifmap:
				if got := FirstIfmapRead(e.Idx); got != e.First {
					t.Errorf("%s row %d: ifmap detector %v != truth %v at %+v",
						entry.Table, entry.Row, got, e.First, e.Idx)
				}
			case tensor.Weight:
				if m.WeightsResident {
					return true
				}
				if got := FirstWeightRead(e.Idx); got != e.First {
					t.Errorf("%s row %d: weight detector %v != truth %v at %+v",
						entry.Table, entry.Row, got, e.First, e.Idx)
				}
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Integration: for every layer mapping the scheduler actually picks across
// all seven workloads (five CNNs + transformer + GAN), the FSM must
// regenerate the simulated VN streams exactly — the deployment-shaped
// version of the table-row validation.
func TestLayerUnitOnScheduledMappings(t *testing.T) {
	if testing.Short() {
		t.Skip("full mapping sweep in -short mode")
	}
	nets := workload.All()
	if tr, err := workload.Transformer(workload.TinyTransformer()); err == nil {
		nets = append(nets, tr)
	}
	if g, err := workload.GANGenerator(workload.TinyGAN()); err == nil {
		nets = append(nets, g)
	}
	ncfg := npu.DefaultConfig()
	dcfg := mem.DefaultConfig()
	for _, n := range nets {
		choices, err := sched.MapNetwork(n, ncfg, dcfg)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		prev := pattern.Empty
		for li, c := range choices {
			unit := NewLayerUnit(uint32(li+1), c.Mapping, prev)
			ok := true
			err := dataflow.Generate(c.Mapping, func(e dataflow.Event) bool {
				if e.Tensor != tensor.Ofmap {
					return true
				}
				var vn int
				var has bool
				if e.Kind == sim.Write {
					vn, has = unit.WriteVN()
				} else {
					vn, has = unit.ReadVN()
				}
				if !has || vn != e.VN {
					ok = false
					return false
				}
				return true
			})
			if err != nil || !ok || !unit.Done() {
				t.Fatalf("%s layer %d (%s): FSM diverged (err=%v done=%v)",
					n.Name, li, c.Layer.Name, err, unit.Done())
			}
			prev = dataflow.DeriveWrite(c.Mapping)
		}
	}
}

// A unit kept by value and reconfigured in place must behave as a fresh
// one for every layer, and Reset must rewind it mid-layer to regenerate the
// same VNs — the re-execution of a layer under recovery.
func TestLayerUnitConfigureInPlaceAndReset(t *testing.T) {
	var unit LayerUnit
	prev := pattern.Empty
	for _, entry := range dataflow.AllTableEntries() {
		m := entry.Build(dataflow.GridSpec{
			AlphaHW: 2, AlphaC: 3, AlphaK: 2,
			IfmapTileBlocks: 1, OfmapTileBlocks: 1, WeightTileBlocks: 1,
		})
		write, read := dataflow.DeriveWrite(m), dataflow.DeriveRead(m)
		unit.Configure(7, write, read, prev)
		if unit.LayerID != 7 || unit.IfmapVN() != FinalVN(prev) || unit.WeightVN() != 1 {
			t.Fatalf("%s row %d: unit %+v after Configure", entry.Table, entry.Row, unit)
		}
		first, _ := unit.WriteVN()
		unit.ReadVN()
		unit.Reset()
		if again, _ := unit.WriteVN(); again != first {
			t.Fatalf("%s row %d: write VN %d after Reset, %d before", entry.Table, entry.Row, again, first)
		}
		unit.Reset()
		for i, want := range write.Expand() {
			if got, ok := unit.WriteVN(); !ok || got != want {
				t.Fatalf("%s row %d: write %d = %d,%v want %d", entry.Table, entry.Row, i, got, ok, want)
			}
		}
		for i, want := range read.Expand() {
			if got, ok := unit.ReadVN(); !ok || got != want {
				t.Fatalf("%s row %d: read %d = %d,%v want %d", entry.Table, entry.Row, i, got, ok, want)
			}
		}
		if !unit.Done() {
			t.Fatalf("%s row %d: unit not done after its sequences", entry.Table, entry.Row)
		}
		prev = write
	}
}
