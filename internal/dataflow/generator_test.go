package dataflow_test

import (
	"fmt"
	"reflect"
	"testing"

	"seculator/internal/conformance"
	"seculator/internal/dataflow"
	"seculator/internal/mem"
	"seculator/internal/npu"
	"seculator/internal/sched"
	"seculator/internal/workload"
)

// step is one callback of a walk: an event, or a body visit at idx.
type step struct {
	body bool
	ev   dataflow.Event
	idx  dataflow.LoopIdx
}

// walk runs g over m and returns the callbacks it made in order. A positive
// stopAt makes the stopAt-th callback return false — a visitor's when it is
// an event, the body's when it is a visit.
func walk(g *dataflow.Generator, m *dataflow.Mapping, stopAt int) ([]step, error) {
	var out []step
	more := func() bool { return stopAt <= 0 || len(out) < stopAt }
	err := g.Run(m,
		func(e dataflow.Event) bool { out = append(out, step{ev: e}); return more() },
		func(idx dataflow.LoopIdx) bool { out = append(out, step{body: true, idx: idx}); return more() })
	return out, err
}

// reuseMappings is every mapping the reuse test walks back to back: a small
// mapping, a larger one and the small one again, every Mini and MobileNet/8
// layer as the scheduler maps it, and the raw mappings and generated
// networks' mappings of conformance trials 1..200.
func reuseMappings(t *testing.T) []*dataflow.Mapping {
	t.Helper()
	small := &dataflow.Mapping{Name: "A", Order: dataflow.LoopOrder{dataflow.LoopS, dataflow.LoopC, dataflow.LoopK},
		AlphaHW: 2, AlphaC: 3, AlphaK: 2, IfmapTileBlocks: 2, OfmapTileBlocks: 2, WeightTileBlocks: 1}
	large := &dataflow.Mapping{Name: "B", Order: dataflow.LoopOrder{dataflow.LoopK, dataflow.LoopS, dataflow.LoopC},
		AlphaHW: 5, AlphaC: 4, AlphaK: 6, IfmapTileBlocks: 3, OfmapTileBlocks: 3, WeightTileBlocks: 2}
	ms := []*dataflow.Mapping{small, large, small}
	mapNet := func(net workload.Network) {
		choices, err := sched.MapNetworkCached(net, npu.DefaultConfig(), mem.DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", net.Name, err)
		}
		for _, c := range choices {
			ms = append(ms, c.Mapping)
		}
	}
	for _, name := range []string{"Mini", "MobileNet/8"} {
		net, err := workload.ResolveShape(name)
		if err != nil {
			t.Fatal(err)
		}
		mapNet(net)
	}
	for seed := int64(1); seed <= 200; seed++ {
		cfg := conformance.Generate(seed)
		ms = append(ms, cfg.Mapping.Mapping())
		mapNet(cfg.Net.Network())
	}
	return ms
}

// TestGeneratorReuseMatchesFresh: one generator walking many mappings back
// to back — each larger or smaller than the last, some stopped part way by
// the visitor or the body — emits on every walk exactly the event and body
// sequence a fresh generator emits for it.
func TestGeneratorReuseMatchesFresh(t *testing.T) {
	var reused dataflow.Generator
	check := func(m *dataflow.Mapping, stopAt int) {
		t.Helper()
		var fresh dataflow.Generator
		want, werr := walk(&fresh, m, stopAt)
		got, gerr := walk(&reused, m, stopAt)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s stop=%d: reused generator error %v, fresh %v", m.Name, stopAt, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s stop=%d: reused generator made %d callbacks, fresh %d, or they differ",
				m.Name, stopAt, len(got), len(want))
		}
	}
	stopped := 0
	for _, m := range reuseMappings(t) {
		check(m, 0)
		// A walk stopped half way (by the visitor or the body, whichever
		// made that callback), then a full walk of the same mapping.
		full, _ := walk(new(dataflow.Generator), m, 0)
		if len(full) >= 2 {
			check(m, len(full)/2)
			check(m, 0)
			stopped++
		}
	}
	if stopped == 0 {
		t.Fatal("no walk was stopped part way")
	}
}

// TestGeneratorClear: Clear zeroes every element the generator retains and
// drops the walk's callbacks, and a walk after it still matches a fresh one.
func TestGeneratorClear(t *testing.T) {
	m := &dataflow.Mapping{Name: "psum", Order: dataflow.LoopOrder{dataflow.LoopC, dataflow.LoopK, dataflow.LoopS},
		AlphaHW: 3, AlphaC: 3, AlphaK: 2, IfmapTileBlocks: 1, OfmapTileBlocks: 1, WeightTileBlocks: 1}
	var g dataflow.Generator
	want, _ := walk(&g, m, 0)
	g.Clear()
	if err := zeroed(reflect.ValueOf(&g).Elem()); err != nil {
		t.Fatal(err)
	}
	if got, _ := walk(&g, m, 0); !reflect.DeepEqual(got, want) {
		t.Fatal("a walk after Clear differs from the first")
	}
}

// zeroed reports the first field of the struct v that holds anything: a
// non-zero element anywhere in a slice's capacity, or a non-zero scalar or
// reference.
func zeroed(v reflect.Value) error {
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if f.Kind() != reflect.Slice {
			if !f.IsZero() {
				return fmt.Errorf("field %s is not zero", name)
			}
			continue
		}
		all := f.Slice(0, f.Cap())
		for j := 0; j < all.Len(); j++ {
			if !all.Index(j).IsZero() {
				return fmt.Errorf("field %s[%d] is not zero", name, j)
			}
		}
	}
	return nil
}
