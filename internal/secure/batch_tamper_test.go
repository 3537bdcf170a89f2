package secure

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/protect"
	"seculator/internal/resilience"
	"seculator/internal/workload"
)

// batchNet's first two layers each write their whole output as one tile
// whose blocks end in a part-full batch of lanes: 25 = 16 + 9 and 15
// blocks, both hashed by the 16-lane kernel where the CPU has it; its
// input is 10 blocks, one part-full batch.
func batchNet() workload.Network {
	return workload.Network{
		Name: "batch",
		Layers: []workload.Layer{
			{Name: "c1", Type: workload.Conv, C: 2, H: 5, W: 5, K: 5, R: 3, S: 3, Stride: 1},
			{Name: "c2", Type: workload.Conv, C: 5, H: 5, W: 5, K: 3, R: 3, S: 3, Stride: 1},
			{Name: "c3", Type: workload.Conv, C: 3, H: 5, W: 5, K: 4, R: 3, S: 3, Stride: 1},
		},
	}
}

// TestTamperInPartialBatchDetected flips one seeded bit of a line whose MAC
// was hashed in the last, part-full batch of its tile — the layer-0 input
// (after the load) or a layer's output (after that layer) — and expects the
// typed error the unbatched path gave: an integrity error at the layer
// whose check covers the line.
func TestTamperInPartialBatchDetected(t *testing.T) {
	net := batchNet()
	in, ws := nn.RandomModel(net, 3)
	states, input, _, err := NewExecutor().plan(net, ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states[:2] {
		if st.choice.KT < st.layer.K || st.choice.OHT < st.layer.OutH() {
			t.Fatalf("layer %s writes its output in several tiles: the batches below are not the ones named", st.layer.Name)
		}
	}
	rng := rand.New(rand.NewSource(45))
	for _, c := range []struct {
		name   string
		phase  int // the hook phase after which the region is written
		region actLayout
		layer  int // the layer whose check must fail
		class  resilience.TensorClass
	}{
		{"input", -1, input, 0, resilience.ClassInput},
		{"c1 output", 0, states[0].act, 0, resilience.ClassActivation},
		{"c2 output", 1, states[1].act, 1, resilience.ClassActivation},
	} {
		blocks := c.region.blocks()
		tail := blocks % mac.LaneCount
		if tail == 0 {
			t.Fatalf("%s: %d blocks fill their batches: no part-full batch to tamper", c.name, blocks)
		}
		line := c.region.base + uint64(blocks-tail+rng.Intn(tail))
		bit := byte(1) << rng.Intn(8)
		x := NewExecutor()
		x.AfterPhase = func(phase int, d *mem.DRAM) {
			if phase == c.phase {
				d.Tamper(line, rng.Intn(64), bit)
			}
		}
		_, err := x.Run(context.Background(), net, in, ws)
		var ie *resilience.IntegrityError
		if !errors.As(err, &ie) || !errors.Is(err, mac.ErrIntegrity) {
			t.Fatalf("%s: line %d flipped, err = %v; want an IntegrityError", c.name, line, err)
		}
		if ie.Layer != c.layer || ie.Tensor != c.class {
			t.Fatalf("%s: line %d flipped: error at layer %d on %s data, want layer %d on %s data",
				c.name, line, ie.Layer, ie.Tensor, c.layer, c.class)
		}
	}
}

// TestResidencyTamperInPartialBatchDetected flips one seeded bit of a
// weight value that lies in the last, part-full batch of a resident layer's
// weight blocks, for every layer that has one: Verify must name that layer,
// and pass again once the bit is flipped back.
func TestResidencyTamperInPartialBatchDetected(t *testing.T) {
	for _, shape := range []string{"Mini", "MobileNet/8"} {
		net := resolveShape(t, shape)
		_, ws := nn.RandomModel(net, 1)
		res := buildDefaultResidency(t, net, ws)
		rng := rand.New(rand.NewSource(45))
		tampered := 0
		for i, rl := range res.layers {
			wl := rl.wl
			tail := wl.blocks() % mac.LaneCount
			if ws[i] == nil || tail == 0 {
				continue
			}
			// The tail's blocks that hold values (a padded channel group's
			// hold none); block b is block b mod perFmap of filter b / perFmap.
			perFmap := wl.cGroups * wl.sliceBlocks
			var vals [][]int32
			for b := wl.blocks() - tail; b < wl.blocks(); b++ {
				k, cg, j := b/perFmap, b%perFmap/wl.sliceBlocks, b%wl.sliceBlocks
				if v := protect.BlockOf(weightRun(net.Layers[i], ws[i], k, cg, wl.sliceInts), j); len(v) > 0 {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				continue
			}
			v := vals[rng.Intn(len(vals))]
			at, bit := rng.Intn(len(v)), int32(1)<<rng.Intn(32)
			v[at] ^= bit
			err := res.Verify()
			if !errors.Is(err, mac.ErrIntegrity) || !strings.Contains(err.Error(), "\""+net.Layers[i].Name+"\"") {
				t.Fatalf("%s layer %s: a flipped weight bit in its last batch of %d gave %v", shape, net.Layers[i].Name, tail, err)
			}
			v[at] ^= bit
			if err := res.Verify(); err != nil {
				t.Fatalf("%s layer %s: restored residency failed its check: %v", shape, net.Layers[i].Name, err)
			}
			tampered++
		}
		if tampered == 0 {
			t.Fatalf("%s: no resident layer ends in a part-full batch: the test checks nothing", shape)
		}
		t.Logf("%s: %d layers tampered in a part-full batch", shape, tampered)
	}
}
