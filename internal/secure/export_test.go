package secure

import (
	"fmt"

	"seculator/internal/crypto"
	"seculator/internal/dataflow"
	"seculator/internal/mac"
	"seculator/internal/nn"
	"seculator/internal/pattern"
	"seculator/internal/protect"
	"seculator/internal/sched"
	"seculator/internal/sim"
	"seculator/internal/tensor"
	"seculator/internal/workload"
)

// walkLayers plans net as x maps and lays it out, and walks each layer's
// tile-event stream with the runtime's VN unit configured as Run configures
// it on a run without a command channel. visit sees every event with the
// layer's context and, for an ofmap event, the VN the executor draws for it
// — the next of the unit's write or partial-sum read sequence; the unit
// must have emitted its whole sequences at the layer's end.
func walkLayers(x *Executor, net workload.Network, visit func(i int, r *layerRun, e dataflow.Event, vn int)) error {
	choices, err := sched.MapNetworkCached(net, x.NPU, x.DRAM)
	if err != nil {
		return err
	}
	states, producer, _ := planLayout(net, make([]*nn.Weights, len(net.Layers)), choices)
	rt := &inferRuntime{}
	prevWrite := pattern.Empty
	for i := range states {
		st := &states[i]
		st.write = dataflow.DeriveWrite(st.choice.Mapping)
		rt.unit.Configure(st.act.ownerID, st.write, dataflow.DeriveRead(st.choice.Mapping), prevWrite)
		prevWrite = st.write
		r := &layerRun{rt: rt, st: st, producer: producer}
		err := dataflow.Generate(st.choice.Mapping, func(e dataflow.Event) bool {
			vn := 0
			switch {
			case e.Tensor == tensor.Ofmap && e.Kind == sim.Write:
				vn, _ = rt.unit.WriteVN()
			case e.Tensor == tensor.Ofmap:
				vn, _ = rt.unit.ReadVN()
			}
			visit(i, r, e, vn)
			return true
		})
		if err != nil {
			return err
		}
		if !rt.unit.Done() {
			return fmt.Errorf("layer %d (%s): the VN unit outlived the event stream", i, st.layer.Name)
		}
		producer = st.act
	}
	return nil
}

// UnitVNs holds the executor's VN source to the tile-event trace: per layer
// of net as x maps it, every ofmap event's VN from the layer's VN unit must
// equal the trace's Event.VN, and the unit's ifmap VN the producer's final
// version (the trace reports read-only tiles at VN 0). It returns how many
// ofmap writes and partial-sum reads it compared.
func UnitVNs(x *Executor, net workload.Network) (writes, partials int, err error) {
	err = walkLayers(x, net, func(i int, r *layerRun, e dataflow.Event, vn int) {
		if err != nil {
			return
		}
		switch {
		case e.Tensor == tensor.Ifmap && r.rt.unit.IfmapVN() != r.producer.vn:
			err = fmt.Errorf("layer %d: ifmap VN %d, producer's final version %d", i, r.rt.unit.IfmapVN(), r.producer.vn)
		case e.Tensor == tensor.Ofmap && vn != e.VN:
			err = fmt.Errorf("layer %d: %v ofmap event %+v: unit VN %d, trace VN %d", i, e.Kind, e.Tile, vn, e.VN)
		case e.Tensor == tensor.Ofmap && e.Kind == sim.Write:
			writes++
		case e.Tensor == tensor.Ofmap:
			partials++
		}
	})
	return writes, partials, err
}

// FinalWrites returns, per layer of net as x maps and lays it out, how many
// writes each line of the layer's output activation region gets from one
// pass of the layer's tile-event stream — all, and the final-version ones
// writeOfmapTile makes as WriteTile's final rows, by the same VN draw,
// finalWrite and ofmapRows. A layer attempt is one such pass.
func FinalWrites(x *Executor, net workload.Network) (final, all [][]int, err error) {
	err = walkLayers(x, net, func(i int, r *layerRun, e dataflow.Event, vn int) {
		st := r.st
		if len(final) == i { // the layer's first event
			final, all = append(final, make([]int, st.act.blocks())), append(all, make([]int, st.act.blocks()))
		}
		if e.Tensor != tensor.Ofmap || e.Kind != sim.Write {
			return
		}
		fin := r.finalWrite(vn)
		k0, k1, y0, y1 := r.ofmapRows(e)
		for k := k0; k < k1; k++ {
			for y := y0; y < y1; y++ {
				for j := 0; j < st.act.bpr; j++ {
					line := st.act.addr(k, y, j) - st.act.base
					all[i][line]++
					if fin {
						final[i][line]++
					}
				}
			}
		}
	})
	return final, all, err
}

// SetWeightFoldTap installs f as x's observer of each weighted layer
// attempt's weight fold, taken just before the check that passes on zero.
func SetWeightFoldTap(x *Executor, f func(layer int, fold mac.Digest)) { x.weightFoldTap = f }

// WeightLine is one line of a layer's weight region as the host load lays
// it out: its address, the counter it is encrypted under, the MAC position
// it is bound to, and the plaintext the host stores there.
type WeightLine struct {
	Addr  uint64
	Ctr   crypto.Counter
	Ref   mac.BlockRef
	Plain [tensor.BlockBytes]byte
}

// Fetch is a line address and the 64 bytes a read of it returned.
type Fetch struct {
	Addr  uint64
	Bytes [tensor.BlockBytes]byte
}

// WeightLines returns, per layer of net as x maps and lays it out, the
// lines of its weight region in address order (none for a layer without
// weights), and a function that returns what the weight check's unread
// pass stands in for each line of layer i (by address) when the layer's
// first reads returned the plaintexts firsts, in read order: the layer's
// weights decoded from them as readWeightTile decodes, re-encoded as the
// unread pass encodes.
func WeightLines(x *Executor, net workload.Network, weights []*nn.Weights) ([][]WeightLine, func(i int, firsts []Fetch) map[uint64][tensor.BlockBytes]byte, error) {
	states, _, _, err := x.plan(net, weights)
	if err != nil {
		return nil, nil, err
	}
	type pos struct{ k, cg, j int }
	lines := make([][]WeightLine, len(states))
	at := make([]map[uint64]pos, len(states))
	for i := range states {
		st := &states[i]
		wl := st.wl
		if weights[i] == nil {
			continue
		}
		at[i] = map[uint64]pos{}
		for k := 0; k < wl.k; k++ {
			for cg := 0; cg < wl.cGroups; cg++ {
				run := weightRun(st.layer, weights[i], k, cg, wl.sliceInts)
				for j := 0; j < wl.sliceBlocks; j++ {
					idx := uint32(cg*wl.sliceBlocks + j)
					ln := WeightLine{Addr: wl.addr(k, cg, j),
						Ctr: crypto.Counter{Fmap: uint32(k), Layer: wl.ownerID, VN: 1, Block: idx},
						Ref: mac.BlockRef{Secret: x.Secret, Layer: wl.ownerID, Fmap: uint32(k), VN: 1, Index: idx}}
					protect.EncodeBlock(&ln.Plain, protect.BlockOf(run, j))
					lines[i] = append(lines[i], ln)
					at[i][ln.Addr] = pos{k, cg, j}
				}
			}
		}
	}
	standIns := func(i int, firsts []Fetch) map[uint64][tensor.BlockBytes]byte {
		st := &states[i]
		l, wl := st.layer, st.wl
		c := l.C
		if l.Type == workload.Depthwise {
			c = 1
		}
		w := &nn.Weights{K: l.K, C: c, R: l.R, S: l.S, Data: make([]int32, l.K*c*l.R*l.S)}
		for _, f := range firsts {
			p := at[i][f.Addr]
			protect.DecodeBlock(protect.BlockOf(weightRun(l, w, p.k, p.cg, wl.sliceInts), p.j), &f.Bytes)
		}
		out := map[uint64][tensor.BlockBytes]byte{}
		var blk [tensor.BlockBytes]byte
		for addr, p := range at[i] {
			protect.EncodeBlock(&blk, protect.BlockOf(weightRun(l, w, p.k, p.cg, wl.sliceInts), p.j))
			out[addr] = blk
		}
		return out
	}
	return lines, standIns, nil
}
