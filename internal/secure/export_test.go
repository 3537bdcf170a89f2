package secure

import (
	"seculator/internal/crypto"
	"seculator/internal/dataflow"
	"seculator/internal/mac"
	"seculator/internal/nn"
	"seculator/internal/sched"
	"seculator/internal/sim"
	"seculator/internal/tensor"
	"seculator/internal/workload"
)

// FinalWrites returns, per layer of net as x maps and lays it out, how many
// writes each line of the layer's output activation region gets from one
// pass of the layer's tile-event stream — all, and the final-version ones
// writeOfmapTile makes through WriteFinalRow, by the same finalWrite and
// ofmapRows. A layer attempt is one such pass.
func FinalWrites(x *Executor, net workload.Network) (final, all [][]int, err error) {
	choices, err := sched.MapNetworkCached(net, x.NPU, x.DRAM)
	if err != nil {
		return nil, nil, err
	}
	states, _, _ := planLayout(net, make([]*nn.Weights, len(net.Layers)), choices)
	final, all = make([][]int, len(states)), make([][]int, len(states))
	for i := range states {
		st := &states[i]
		r := &layerRun{st: st}
		final[i], all[i] = make([]int, st.act.blocks()), make([]int, st.act.blocks())
		err := dataflow.Generate(st.choice.Mapping, func(e dataflow.Event) bool {
			if e.Tensor != tensor.Ofmap || e.Kind != sim.Write {
				return true
			}
			fin := r.finalWrite(e)
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
			return true
		})
		if err != nil {
			return nil, nil, err
		}
	}
	return final, all, nil
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
					encodeBlockInto(ln.Plain[:], run, j)
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
			decodeBlock(weightRun(l, w, p.k, p.cg, wl.sliceInts), p.j*intsPerBlock, f.Bytes[:])
		}
		out := map[uint64][tensor.BlockBytes]byte{}
		var blk [tensor.BlockBytes]byte
		for addr, p := range at[i] {
			encodeBlockInto(blk[:], weightRun(l, w, p.k, p.cg, wl.sliceInts), p.j)
			out[addr] = blk
		}
		return out
	}
	return lines, standIns, nil
}
