package secure

import (
	"fmt"

	"seculator/internal/dataflow"
	"seculator/internal/mac"
	"seculator/internal/nn"
	"seculator/internal/protect"
	"seculator/internal/sim"
	"seculator/internal/tensor"
	"seculator/internal/vngen"
	"seculator/internal/workload"
)

// layerRun is the per-layer execution context: the decrypted working set
// being assembled from DRAM reads and the first-touch bitmaps. Every block
// moves through the runtime's loop shard on the orchestrator, which folds
// the block MACs those moves owe into the layer's registers as it goes.
type layerRun struct {
	rt *inferRuntime
	sm *protect.SeculatorMemory
	st *layerState

	producer     actLayout
	producerData *nn.Tensor // plaintext the host/producer knows (for external folds)

	in  *nn.Tensor // input assembled from decrypted first reads
	w   *nn.Weights
	out *nn.Tensor

	inTouched []bool // per producer block: first-read seen
	wTouched  []bool // per weight block: first-read seen

	// flatIn is the reusable flattened-input header FC compute visits view
	// the producer volume through (same backing data, collapsed shape).
	flatIn nn.Tensor

	err error
}

// runLayer executes one layer's tile-event stream and returns the external
// digest covering producer blocks this layer never read (folded host-side
// into the producer's verification). restart re-runs the layer after a
// failed verification: the layer's own MAC folds are discarded while the
// producer's pending bank is kept for re-verification.
func (x *Executor) runLayer(rt *inferRuntime, st *layerState,
	producer actLayout, producerData *nn.Tensor, weights *nn.Weights, restart bool) (mac.Digest, error) {

	sm := rt.sm
	if restart {
		sm.RestartLayer()
		rt.unit.Reset()
	} else {
		sm.BeginLayer(st.act.ownerID)
	}
	// The layer context and its working set live in the runtime's reusable
	// slabs: the input/output tensors, first-touch bitmaps and decoded
	// weights are zeroed views over run-pooled backing arrays, so the layer
	// loop allocates nothing in steady state. Outputs double-buffer by layer
	// parity — layer i assembles into buffer i&1 while layer i-1's output
	// (this layer's producerData, consumed by unreadExternal) stays intact
	// in the other buffer.
	run := &rt.lr
	*run = layerRun{
		rt: rt, sm: sm, st: st,
		producer: producer, producerData: producerData,
		in:  rt.inputTensor(producer.chans, producer.rows, producer.cols),
		out: rt.outputTensor(int(st.act.ownerID-1)&1, st.layer.K, st.layer.OutH(), st.layer.OutW()),
	}
	run.inTouched = rt.touchedInput(producer.blocks())
	if weights != nil {
		if st.resident {
			// Residency attach: compute straight from the pinned, verified
			// tensor; the weight region's tile events are skipped (see
			// onEvent) and so is the golden comparison, which the
			// residency's epoch check (Verify) makes over this very tensor.
			run.w = weights
		} else {
			if st.layer.Type == workload.Depthwise {
				run.w = rt.weightsTensor(st.layer.K, 1, st.layer.R, st.layer.S)
			} else {
				run.w = rt.weightsTensor(st.layer.K, st.layer.C, st.layer.R, st.layer.S)
			}
			run.wTouched = rt.touchedWeights(st.wl.blocks())
		}
	}

	err := rt.gen.Run(st.choice.Mapping, rt.onEvent, rt.onCompute)
	if err == nil {
		err = run.err
	}
	if err != nil {
		return mac.Digest{}, err
	}

	if weights != nil && !st.resident {
		fold := run.weightFold()
		if x.weightFoldTap != nil {
			x.weightFoldTap(int(st.act.ownerID)-1, fold)
		}
		if fold != (mac.Digest{}) {
			return mac.Digest{}, fmt.Errorf("%w: layer %q weights: digest mismatch", mac.ErrIntegrity, st.layer.Name)
		}
	}
	st.out = run.out
	return run.unreadExternal(), nil
}

// onEvent translates one tile event into the corresponding DRAM block
// operations through the secure memory.
func (r *layerRun) onEvent(e dataflow.Event) bool {
	if r.err != nil {
		return false
	}
	switch {
	case e.Tensor == tensor.Ifmap && e.Kind == sim.Read:
		r.readIfmapTile(e)
	case e.Tensor == tensor.Weight && e.Kind == sim.Read:
		if r.st.resident {
			// A resident run stored no weight: r.w is the residency's
			// verified tensor, which its epoch check covers.
			return true
		}
		r.readWeightTile(e)
	case e.Tensor == tensor.Ofmap && e.Kind == sim.Read:
		r.readPartialTile(e)
	case e.Tensor == tensor.Ofmap && e.Kind == sim.Write:
		r.writeOfmapTile(e)
	}
	return r.err == nil
}

// onCompute runs the arithmetic of one loop-nest body visit: all tiles the
// visit needs have been fetched and decrypted by onEvent.
func (r *layerRun) onCompute(idx dataflow.LoopIdx) bool {
	if r.err != nil {
		return false
	}
	l := r.st.layer
	c := r.st.choice
	k0 := idx.K * c.KT
	k1 := min(l.K, k0+c.KT)
	y0 := idx.S * c.OHT
	y1 := min(l.OutH(), y0+c.OHT)
	in := r.in
	if l.Type == workload.FC && l.H == 1 && l.W == 1 {
		// FC consumes the flattened producer volume (a reusable header over
		// the same backing data).
		r.flatIn = nn.Tensor{Chans: l.C, H: 1, W: 1, Data: r.in.Data}
		in = &r.flatIn
	}
	switch l.Type {
	case workload.Pool:
		nn.AccumulatePool(r.out, in, l, k0, k1, y0, y1)
	case workload.Upsample:
		nn.AccumulateUpsample(r.out, in, l, k0, k1, y0, y1)
	default:
		c0 := idx.C * c.CT
		c1 := min(l.ReductionChannels(), c0+c.CT)
		nn.AccumulateConv(r.out, in, r.w, l, k0, k1, c0, c1, y0, y1)
	}
	return true
}

// readIfmapTile fetches the producer blocks one ifmap tile covers. The
// producer's layout is fmap-relative, so the consumer's (possibly
// different) tiling just resolves to a set of (channel, row) block ranges;
// FC layers resolve their flattened channel range element-wise.
func (r *layerRun) readIfmapTile(e dataflow.Event) {
	l := r.st.layer
	c := r.st.choice

	if l.Type == workload.FC && l.H == 1 && l.W == 1 {
		f0 := e.Idx.C * c.CT
		f1 := min(l.C, f0+c.CT)
		r.readFlatRange(f0, f1)
		return
	}

	// Channel range: the reduction group, or the output-channel group for
	// per-channel layers (depthwise, pool, upsample).
	var c0, c1 int
	if l.PerChannel() {
		c0 = e.Idx.K * c.KT
		c1 = min(l.C, c0+c.KT)
	} else {
		c0 = e.Idx.C * c.CT
		c1 = min(l.C, c0+c.CT)
	}
	// Input row range for the output band: the convolution halo, or the
	// source rows an upsampled band expands from.
	y0 := e.Idx.S * c.OHT
	y1 := min(l.OutH(), y0+c.OHT)
	var iy0, iy1 int
	if l.Type == workload.Upsample {
		iy0 = y0 / l.Stride
		iy1 = min(l.H, (y1+l.Stride-1)/l.Stride)
	} else {
		padY, _ := nn.PadOrigin(l)
		iy0 = max(0, y0*l.Stride-padY)
		iy1 = min(l.H, (y1-1)*l.Stride+l.R-padY)
	}
	for ch := c0; ch < c1; ch++ {
		for iy := iy0; iy < iy1; iy++ {
			for j := 0; j < r.producer.bpr; j++ {
				r.readProducerBlock(ch, iy, j, 1)
			}
		}
	}
}

// readFlatRange reads the producer blocks containing flattened elements
// [f0, f1) of an FC input. Consecutive elements hit the same 16-element
// block, and the repeat-read MAC folds of those hits are part of the
// protocol — so each run of identical blocks is one ReadInputRun: every
// read fetched, counted and folded, AES and SHA paid once while the line
// does not change.
func (r *layerRun) readFlatRange(f0, f1 int) {
	p := r.producer
	perChan := p.rows * p.cols
	for f := f0; f < f1; {
		ch := f / perChan
		rem := f % perChan
		row := rem / p.cols
		j := (rem % p.cols) * 4 / tensor.BlockBytes
		n := 1
		for f+n < f1 {
			fn := f + n
			remn := fn % perChan
			if fn/perChan != ch || remn/p.cols != row || (remn%p.cols)*4/tensor.BlockBytes != j {
				break
			}
			n++
		}
		r.readProducerBlock(ch, row, j, n)
		f += n
	}
}

// readProducerBlock performs n back-to-back decrypted reads of one block of
// the producer region, owing the first read's MAC to MAC_FR on first touch
// and everything else to MAC_IR, and decoding the first-touch values
// straight into the layer's input tensor.
func (r *layerRun) readProducerBlock(ch, row, j, n int) {
	p := r.producer
	flat := (ch*p.rows+row)*p.bpr + j
	first := !r.inTouched[flat]
	r.inTouched[flat] = true
	var dst []int32
	if first {
		dst = protect.BlockOf(rowOf(r.in, ch, row), j)
	}
	r.rt.sh.ReadInputRun(p.addr(ch, row, j), p.ownerID, uint32(ch), r.rt.unit.IfmapVN(), uint32(row*p.bpr+j), first, n, dst)
}

// readWeightTile fetches the (k-group x c-group) weight slices of a tile
// through the static-read path. A block's first read owes the layer's weight
// fold its difference from the host's store and decodes the weights; a
// repeat read (a mapping that cannot hold the tile re-fetches it) is consumed
// only if it decodes to what the first read did — the adversary owns the DRAM
// between the two, and only the first is bound to the golden digest.
func (r *layerRun) readWeightTile(e dataflow.Event) {
	l := r.st.layer
	c := r.st.choice
	wl := r.st.wl
	k0 := e.Idx.K * c.KT
	k1 := min(l.K, k0+c.KT)
	cg := e.Idx.C
	stale := false
	for k := k0; k < k1; k++ {
		run := weightRun(l, r.w, k, cg, wl.sliceInts)
		for j := 0; j < wl.sliceBlocks; j++ {
			flat := (k*wl.cGroups+cg)*wl.sliceBlocks + j
			first := !r.wTouched[flat]
			r.wTouched[flat] = true
			if !r.rt.sh.ReadStatic(wl.addr(k, cg, j), wl.ownerID, uint32(k), 1,
				uint32(cg*wl.sliceBlocks+j), first, protect.BlockOf(run, j)) {
				stale = true
			}
		}
	}
	if stale {
		r.err = fmt.Errorf("%w: layer %q weights: a repeat read differs from the verified first read", mac.ErrIntegrity, l.Name)
	}
}

// ofmapRows returns the (k-range, row-range) of an ofmap tile event.
func (r *layerRun) ofmapRows(e dataflow.Event) (k0, k1, y0, y1 int) {
	l := r.st.layer
	c := r.st.choice
	k0 = e.Tile.Fmap * c.KT
	k1 = min(l.K, k0+c.KT)
	y0 = e.Tile.Spatial * c.OHT
	y1 = min(l.OutH(), y0+c.OHT)
	return
}

// readPartialTile decrypts a partial-sum tile back into the output tensor
// under the next VN of the layer's read sequence (VN 0 once it is outrun),
// owing its MACs to MAC_R; each block decodes straight into its row.
func (r *layerRun) readPartialTile(e dataflow.Event) {
	vn, _ := r.rt.unit.ReadVN()
	a := r.st.act
	k0, k1, y0, y1 := r.ofmapRows(e)
	for k := k0; k < k1; k++ {
		for y := y0; y < y1; y++ {
			dst := rowOf(r.out, k, y)
			for j := 0; j < a.bpr; j++ {
				r.rt.sh.ReadPartial(a.addr(k, y, j), uint32(k), vn, uint32(y*a.bpr+j), protect.BlockOf(dst, j))
			}
		}
	}
}

// writeOfmapTile encrypts the tile's current accumulation under the next VN
// of the layer's write sequence (VN 0, which no read asks for, once it is
// outrun) and hands the whole tile to the shard in one call, which encodes
// each row of the output tensor straight into its blocks' MAC lanes and owes
// their MACs to MAC_W, hashed in batches across the tile's rows. The write
// of the final version — on an honest run each line's only one per layer
// attempt and its last, and the one the next layer reads — records its MACs
// in the keystream memo.
func (r *layerRun) writeOfmapTile(e dataflow.Event) {
	vn, _ := r.rt.unit.WriteVN()
	a := r.st.act
	k0, k1, y0, y1 := r.ofmapRows(e)
	t := protect.Tile{Base: a.base, Rows: a.rows, BPR: a.bpr, K0: k0, K1: k1, Y0: y0, Y1: y1}
	r.rt.sh.WriteTile(t, vn, r.finalWrite(vn), func(k, y int) []int32 { return rowOf(r.out, k, y) })
}

// finalWrite reports whether an ofmap write under version vn stores its
// lines' final version under the layer's write triplet: the one consumers read.
func (r *layerRun) finalWrite(vn int) bool { return vn == vngen.FinalVN(r.st.write) }

// weightFold is the layer's weight check, which passes on zero: the fold of
// the first reads' terms (WeightDigest) with the terms of the
// blocks no read fetched. Either term is the difference between a block's
// MAC and the MAC of what the host stored there, so the fold is the host's
// golden XOR-MAC XOR the MACs of what the layer consumed.
func (r *layerRun) weightFold() mac.Digest {
	got := r.sm.WeightDigest()
	// Unread weight blocks (slices of fully padded channel groups, or
	// resident groups skipped by the mapping's reuse) fold host-side. Every
	// slice the mapping touches is decoded by now, so r.w stands in for
	// them.
	wl := r.st.wl
	l := r.st.layer
	for k := 0; k < wl.k; k++ {
		for cg := 0; cg < wl.cGroups; cg++ {
			run := weightRun(l, r.w, k, cg, wl.sliceInts)
			for j := 0; j < wl.sliceBlocks; j++ {
				flat := (k*wl.cGroups+cg)*wl.sliceBlocks + j
				if r.wTouched[flat] {
					continue
				}
				got = got.Xor(r.sm.UnreadWeight(wl.addr(k, cg, j), wl.ownerID, uint32(k), 1, uint32(cg*wl.sliceBlocks+j), protect.BlockOf(run, j)))
			}
		}
	}
	return got
}

// unreadExternal folds the MACs of producer blocks this layer never read —
// the host-assisted external term of the producer's Equation 1 check.
func (r *layerRun) unreadExternal() mac.Digest {
	var d mac.Digest
	var blk [tensor.BlockBytes]byte
	p := r.producer
	for ch := 0; ch < p.chans; ch++ {
		for row := 0; row < p.rows; row++ {
			vals := rowOf(r.producerData, ch, row)
			for j := 0; j < p.bpr; j++ {
				flat := (ch*p.rows+row)*p.bpr + j
				if r.inTouched[flat] {
					continue
				}
				protect.EncodeBlock(&blk, protect.BlockOf(vals, j))
				d = d.Xor(r.sm.BlockDigest(p.ownerID, uint32(ch), p.vn, uint32(row*p.bpr+j), blk[:]))
			}
		}
	}
	return d
}

// readout is the host consuming the final outputs: a fresh layer epoch that
// first-reads every output block, under the final VN of the last layer's
// write triplet, and closes the last layer's verification. restart re-runs
// the epoch after a failed verification, keeping the last layer's pending
// bank.
func (x *Executor) readout(rt *inferRuntime, states []layerState,
	final actLayout, restart bool) (*nn.Tensor, error) {

	sm := rt.sm
	last := states[len(states)-1]
	if restart {
		sm.RestartLayer()
	} else {
		sm.BeginLayer(uint32(len(states) + 1))
	}
	out := nn.NewTensor(final.chans, final.rows, final.cols)
	vn := vngen.FinalVN(last.write)
	for ch := 0; ch < final.chans; ch++ {
		for row := 0; row < final.rows; row++ {
			dst := rowOf(out, ch, row)
			for j := 0; j < final.bpr; j++ {
				rt.sh.ReadInputRun(final.addr(ch, row, j), final.ownerID, uint32(ch),
					vn, uint32(row*final.bpr+j), true, 1, protect.BlockOf(dst, j))
			}
		}
	}
	if err := sm.VerifyPreviousLayer(mac.Digest{}); err != nil {
		return nil, fmt.Errorf("secure: verifying final layer %q: %w", last.layer.Name, err)
	}
	return out, nil
}
