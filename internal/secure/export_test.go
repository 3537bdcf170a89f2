package secure

import (
	"seculator/internal/dataflow"
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
