// Package dataflow generates the memory-access event streams that tiled DNN
// dataflows present to the NPU's memory interface, and derives the VN
// pattern triplets of the paper's Section 5 analytically from the mapping.
//
// A Mapping is a loop nest over up to three tile iterators — S (spatial
// tiles, h_T/w_T fused), C (input-channel groups, c_T) and K (output-channel
// groups, k_T) — plus a reuse style. Generate walks the nest exactly as the
// accelerator would and emits one Event per tile transfer: ifmap/weight tile
// reads, partial ofmap read-modify-write round trips, and final ofmap
// writes. Ground-truth version numbers are tracked per ofmap tile (VN
// increments on every write-back), which is what the paper's read/write
// observers record.
//
// The same engine covers convolution input/output/weight reuse (Tables 2
// and 3), tiled matrix multiplication (Table 4), and the image
// pre-processing / pooling styles (Tables 8-10), because all of them are
// loop nests over (S, C, K) with one semantic switch: whether the C
// (reduction) loop is innermost. When it is — or when there is only one
// C step — every ofmap tile is fully accumulated in the global buffer and
// written exactly once (output-stationary); otherwise each C step forces a
// partial-sum eviction and later read-back.
package dataflow

import (
	"fmt"

	"seculator/internal/pattern"
	"seculator/internal/sim"
	"seculator/internal/tensor"
)

// ReuseStyle is the data-reuse goal of a mapping (Section 5.1).
type ReuseStyle uint8

const (
	// InputReuse keeps ifmap tiles stationary in the global buffer.
	InputReuse ReuseStyle = iota
	// OutputReuse fully accumulates each ofmap tile before eviction.
	OutputReuse
	// WeightReuse keeps a weight-tile group stationary.
	WeightReuse
)

// String implements fmt.Stringer.
func (r ReuseStyle) String() string {
	switch r {
	case InputReuse:
		return "input-reuse"
	case OutputReuse:
		return "output-reuse"
	case WeightReuse:
		return "weight-reuse"
	default:
		return fmt.Sprintf("ReuseStyle(%d)", uint8(r))
	}
}

// LoopVar names one tile iterator of the nest.
type LoopVar uint8

const (
	// LoopS iterates spatial tiles (h_T, w_T fused, row-major).
	LoopS LoopVar = iota
	// LoopC iterates input-channel groups (c_T) — the reduction loop.
	LoopC
	// LoopK iterates output-channel groups (k_T).
	LoopK
)

// String implements fmt.Stringer.
func (v LoopVar) String() string {
	switch v {
	case LoopS:
		return "hT>wT"
	case LoopC:
		return "cT"
	case LoopK:
		return "kT"
	default:
		return fmt.Sprintf("LoopVar(%d)", uint8(v))
	}
}

// LoopOrder is the nest order, outermost first. Iterators absent from the
// order have a single iteration (their dimension is untiled or fully
// resident); they are treated as innermost with bound 1.
type LoopOrder []LoopVar

// String renders the order in the paper's notation, e.g. "hT>wT>cT>kT".
func (o LoopOrder) String() string {
	if len(o) == 0 {
		return "(none)"
	}
	s := ""
	for i, v := range o {
		if i > 0 {
			s += ">"
		}
		s += v.String()
	}
	return s
}

// Contains reports whether v appears in the order.
func (o LoopOrder) Contains(v LoopVar) bool {
	for _, w := range o {
		if w == v {
			return true
		}
	}
	return false
}

// Valid reports whether the order mentions each variable at most once.
func (o LoopOrder) Valid() bool {
	var seen [3]bool
	for _, v := range o {
		if v > LoopK || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Mapping fully describes how one layer executes: the loop nest, the tile
// grid bounds, the reuse style, and the tile transfer sizes in 64-byte
// blocks. It is the unit the protection engines and the VN generator are
// configured with.
type Mapping struct {
	Name  string     // table row / style label, for reporting
	Reuse ReuseStyle // reuse goal (informational; semantics come from Order)
	Order LoopOrder  // nest order, outermost first

	// Grid bounds. Any bound < 1 is treated as 1.
	AlphaHW int // spatial tiles per fmap
	AlphaC  int // input channel groups
	AlphaK  int // output channel groups

	// Tile transfer sizes (blocks per tile).
	IfmapTileBlocks  int // one ifmap tile (incl. halo)
	OfmapTileBlocks  int // one ofmap tile
	WeightTileBlocks int // one weight-tile group (KT x CT x R x S)

	// WeightsResident marks mappings whose weights fit in the global
	// buffer for the whole layer (loaded once, not per visit).
	WeightsResident bool

	// PerChannel marks mappings of depthwise/pooling layers, where each
	// output channel reduces only its own input channel: the ifmap tile
	// identity follows the output-channel group (k, s) instead of the
	// reduction group (c, s).
	PerChannel bool
}

// Bound returns the iteration count of v under m (>=1).
func (m *Mapping) Bound(v LoopVar) int {
	var b int
	switch v {
	case LoopS:
		b = m.AlphaHW
	case LoopC:
		b = m.AlphaC
	case LoopK:
		b = m.AlphaK
	default:
		panic(fmt.Sprintf("dataflow: unknown loop var %d", v))
	}
	if b < 1 {
		return 1
	}
	return b
}

// Validate checks structural sanity of the mapping.
func (m *Mapping) Validate() error {
	if !m.Order.Valid() {
		return fmt.Errorf("dataflow: invalid loop order %v", m.Order)
	}
	if m.OfmapTileBlocks <= 0 {
		return fmt.Errorf("dataflow: mapping %q has no ofmap tile size", m.Name)
	}
	if m.IfmapTileBlocks < 0 || m.WeightTileBlocks < 0 {
		return fmt.Errorf("dataflow: mapping %q has negative tile size", m.Name)
	}
	// Every multi-iteration loop must appear in the order; absent loops are
	// appended innermost by the generator, which would silently change the
	// nest the mapping claims to describe.
	for _, v := range []LoopVar{LoopS, LoopC, LoopK} {
		if m.Bound(v) > 1 && !m.Order.Contains(v) {
			return fmt.Errorf("dataflow: mapping %q: loop %v has bound %d but is absent from order %v",
				m.Name, v, m.Bound(v), m.Order)
		}
	}
	return nil
}

// outputStationary reports whether ofmap tiles are fully accumulated in the
// GB before their single write-back. This holds when (a) the mapping's goal
// is output reuse — by definition partial sums never leave the GB, whatever
// the traversal order (Section 5.1.2) — or (b) the reduction loop C is
// innermost among the present loops, or (c) there is a single reduction
// step. Otherwise every C step forces a partial-sum eviction.
func (m *Mapping) outputStationary() bool {
	if m.Reuse == OutputReuse {
		return true
	}
	if m.Bound(LoopC) == 1 {
		return true
	}
	if !m.Order.Contains(LoopC) {
		return true
	}
	last := m.Order[len(m.Order)-1]
	return last == LoopC
}

// LoopIdx is the current index of each loop variable during generation;
// indices of absent loops are 0. It is carried on every Event so that the
// hardware first-read predicate (all non-binding indices zero) can be
// evaluated without per-tile state.
type LoopIdx struct {
	S, C, K int
}

// Event is one tile transfer at the DRAM interface.
type Event struct {
	Kind   sim.AccessKind
	Tensor tensor.Kind
	Tile   tensor.TileID
	VN     int     // version: writes carry the new VN, reads the stored VN
	First  bool    // first access to this tile in this layer
	Final  bool    // for ofmap writes: last write (consumed by next layer)
	Blocks int     // transfer size in 64-byte blocks
	Idx    LoopIdx // loop indices at emission
}

// Visitor receives the event stream. Returning false stops generation.
type Visitor func(Event) bool

// Generate walks the mapping's loop nest and emits the full event stream to
// v in program order. VN ground truth: every ofmap tile's VN starts at 0 and
// increments on each write-back; reads observe the stored VN. Ifmap and
// weight tiles are read-only (their VN is owned by the previous layer /
// initial load and reported as 0 here; the protection engines substitute
// the cross-layer VN). It runs a fresh Generator, so its bookkeeping is
// allocated per call; a caller walking many mappings keeps a Generator.
func Generate(m *Mapping, v Visitor) error {
	var g Generator
	return g.Run(m, v, nil)
}

// Generator walks mappings' loop nests like Generate, reusing its tile
// bookkeeping from one call to the next: the per-tile slices grow to the
// largest mapping seen and are cleared at the start of every call, so a
// steady-state caller allocates nothing per walk. The zero value is ready
// to use; a Generator is not safe for concurrent use.
type Generator struct {
	m       *Mapping
	visit   Visitor
	body    func(LoopIdx) bool
	stopped bool
	order   [3]LoopVar // the mapping's order, absent loops appended innermost

	// Per-tile bookkeeping, kept at full length (len == cap) so Clear
	// reaches every element a walk ever wrote.
	ofmapVN     []int // per ofmap tile: current VN (writes so far)
	ofmapWrites []int // per ofmap tile: writes emitted (for Final detection)
	ifmapSeen   []bool
	weightSeen  []bool
}

// Run walks m's loop nest, emitting its event stream to v, and — when body
// is non-nil — invokes body once per loop-nest body visit, after the
// visit's input fetch events (ifmap, weight, partial-ofmap read) and before
// its ofmap write-back: the point where the PE array consumes the staged
// tiles. The functional executor uses it to run the actual arithmetic of
// the visit. A false return from either stops the walk. Run retains
// neither m, v nor body once it returns.
func (g *Generator) Run(m *Mapping, v Visitor, body func(LoopIdx) bool) error {
	if err := m.Validate(); err != nil {
		return err
	}
	g.m, g.visit, g.body, g.stopped = m, v, body, false
	nOf := m.Bound(LoopK) * m.Bound(LoopS)
	nIf := m.Bound(LoopC) * m.Bound(LoopS)
	if m.PerChannel {
		nIf = m.Bound(LoopK) * m.Bound(LoopS)
	}
	nW := m.Bound(LoopK) * m.Bound(LoopC)
	g.ofmapVN = growClear(g.ofmapVN, nOf)
	g.ofmapWrites = growClear(g.ofmapWrites, nOf)
	g.ifmapSeen = growClear(g.ifmapSeen, nIf)
	g.weightSeen = growClear(g.weightSeen, nW)

	// Validate guarantees each variable appears at most once, so the full
	// order is always exactly the three variables.
	n := copy(g.order[:], m.Order)
	for _, lv := range [...]LoopVar{LoopS, LoopC, LoopK} {
		if !m.Order.Contains(lv) {
			g.order[n] = lv
			n++
		}
	}
	var idx LoopIdx
	g.nest(0, &idx)
	g.m, g.visit, g.body = nil, nil, nil
	return nil
}

// Clear zeroes every element of the bookkeeping the generator retains and
// drops its references: what a pooled owner calls before parking it.
func (g *Generator) Clear() {
	clear(g.ofmapVN)
	clear(g.ofmapWrites)
	clear(g.ifmapSeen)
	clear(g.weightSeen)
	g.m, g.visit, g.body, g.stopped, g.order = nil, nil, nil, false, [3]LoopVar{}
}

// growClear returns s at full length, at least n long, with its first n
// elements zeroed (a grown slice is fresh, so already zero).
func growClear[T int | bool](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:cap(s)]
	clear(s[:n])
	return s
}

func (g *Generator) nest(depth int, idx *LoopIdx) {
	if g.stopped {
		return
	}
	if depth == len(g.order) {
		g.visitBody(*idx)
		return
	}
	v := g.order[depth]
	for i := 0; i < g.m.Bound(v); i++ {
		switch v {
		case LoopS:
			idx.S = i
		case LoopC:
			idx.C = i
		case LoopK:
			idx.K = i
		}
		g.nest(depth+1, idx)
		if g.stopped {
			return
		}
	}
}

// visitBody is one (s, c, k) visit: the NPU processes ifmap tile (c, s)
// against weight group (k, c), updating ofmap tile (k, s).
func (g *Generator) visitBody(idx LoopIdx) {
	m := g.m
	stationary := m.outputStationary()
	lastC := idx.C == m.Bound(LoopC)-1

	// Ifmap tile read. Stationarity in the GB: the tile stays resident
	// while only loops inside its binding loops vary; we model re-fetch
	// whenever any binding index changed since last visit, which for a
	// canonical nest equals "fetch on every visit where the innermost
	// varying non-binding loop wrapped". A simpler faithful rule used by
	// the paper's traffic accounting: ifmap tile (c,s) is fetched once per
	// distinct visit combination of the loops that enclose its reuse, i.e.
	// once per (s, c, kGroupSweep). With K innermost the tile is fetched
	// once and reused across k; with K outside C or S the tile is
	// re-fetched for each k.
	if m.IfmapTileBlocks > 0 && g.ifmapFetchNeeded(idx) {
		fmapIdx := idx.C
		if m.PerChannel {
			fmapIdx = idx.K
		}
		first := !g.ifmapSeen[g.ifIndex(idx)]
		g.ifmapSeen[g.ifIndex(idx)] = true
		g.emit(Event{
			Kind: sim.Read, Tensor: tensor.Ifmap,
			Tile:   tensor.TileID{Kind: tensor.Ifmap, Fmap: fmapIdx, Spatial: idx.S},
			First:  first,
			Blocks: m.IfmapTileBlocks,
			Idx:    idx,
		})
	}

	// Weight tile read.
	if m.WeightTileBlocks > 0 && g.weightFetchNeeded(idx) {
		first := !g.weightSeen[g.wIndex(idx)]
		g.weightSeen[g.wIndex(idx)] = true
		g.emit(Event{
			Kind: sim.Read, Tensor: tensor.Weight,
			Tile:   tensor.TileID{Kind: tensor.Weight, Fmap: idx.K, Spatial: idx.C},
			First:  first,
			Blocks: m.WeightTileBlocks,
			Idx:    idx,
		})
	}

	of := g.ofIndex(idx)
	tile := tensor.TileID{Kind: tensor.Ofmap, Fmap: idx.K, Spatial: idx.S}

	if stationary {
		// All inputs staged: the PE array consumes them now.
		if g.body != nil && !g.stopped && !g.body(idx) {
			g.stopped = true
			return
		}
		// Fully accumulated in GB; single write at the last reduction step.
		if lastC {
			g.ofmapVN[of]++
			g.ofmapWrites[of]++
			g.emit(Event{
				Kind: sim.Write, Tensor: tensor.Ofmap,
				Tile: tile, VN: g.ofmapVN[of],
				First: g.ofmapWrites[of] == 1, Final: true,
				Blocks: m.OfmapTileBlocks, Idx: idx,
			})
		}
		return
	}

	// Partial-sum round trip: read back the previous partial (if any),
	// update, and evict with an incremented VN.
	if g.ofmapVN[of] > 0 {
		g.emit(Event{
			Kind: sim.Read, Tensor: tensor.Ofmap,
			Tile: tile, VN: g.ofmapVN[of],
			Blocks: m.OfmapTileBlocks, Idx: idx,
		})
	}
	// All inputs staged (including the partial): compute the update.
	if g.body != nil && !g.stopped && !g.body(idx) {
		g.stopped = true
		return
	}
	g.ofmapVN[of]++
	g.ofmapWrites[of]++
	g.emit(Event{
		Kind: sim.Write, Tensor: tensor.Ofmap,
		Tile: tile, VN: g.ofmapVN[of],
		First: g.ofmapWrites[of] == 1, Final: lastC,
		Blocks: m.OfmapTileBlocks, Idx: idx,
	})
}

// ifmapFetchNeeded: the ifmap tile (c, s) must be (re)loaded unless it is
// still resident from the immediately preceding visit — i.e. unless the only
// loops that advanced since the last body call are nested inside both its
// binding loops. For the canonical nests we model, this reduces to: fetch
// when the non-binding loop (K) is at its first iteration OR K is not the
// innermost present loop (in which case (c,s) changes every K step anyway).
func (g *Generator) ifmapFetchNeeded(idx LoopIdx) bool {
	m := g.m
	if m.PerChannel {
		// The tile binds (k, s); only the (degenerate) C loop can repeat
		// a visit with the same identity.
		return idx.C == 0
	}
	if m.Bound(LoopK) == 1 {
		return true // every visit has a fresh (c,s)
	}
	if g.innermost() == LoopK {
		return idx.K == 0 // resident across the K sweep
	}
	return true
}

// weightFetchNeeded mirrors ifmapFetchNeeded for weight group (k, c), whose
// non-binding loop is S. WeightsResident mappings load each group once.
func (g *Generator) weightFetchNeeded(idx LoopIdx) bool {
	m := g.m
	if m.WeightsResident {
		return !g.weightSeen[g.wIndex(idx)]
	}
	if m.Bound(LoopS) == 1 {
		return true
	}
	if g.innermost() == LoopS {
		return idx.S == 0
	}
	return true
}

// innermost returns the innermost *present* loop variable.
func (g *Generator) innermost() LoopVar {
	if n := len(g.m.Order); n > 0 {
		return g.m.Order[n-1]
	}
	return LoopK
}

func (g *Generator) ofIndex(idx LoopIdx) int { return idx.K*g.m.Bound(LoopS) + idx.S }

func (g *Generator) ifIndex(idx LoopIdx) int {
	if g.m.PerChannel {
		return idx.K*g.m.Bound(LoopS) + idx.S
	}
	return idx.C*g.m.Bound(LoopS) + idx.S
}
func (g *Generator) wIndex(idx LoopIdx) int { return idx.K*g.m.Bound(LoopC) + idx.C }

func (g *Generator) emit(e Event) {
	if g.stopped {
		return
	}
	if !g.visit(e) {
		g.stopped = true
	}
}

// Collect runs Generate and returns the full event slice.
func Collect(m *Mapping) ([]Event, error) {
	var out []Event
	err := Generate(m, func(e Event) bool {
		out = append(out, e)
		return true
	})
	return out, err
}

// DeriveWrite returns the master-equation triplet of the ofmap VN sequence
// seen by the write-observer, computed analytically from the mapping
// (Section 5 / Table 2). The expansion of the returned triplet equals the
// VN sequence of the ofmap write events emitted by Generate.
func DeriveWrite(m *Mapping) pattern.Triplet {
	if m.outputStationary() {
		n := m.Bound(LoopK) * m.Bound(LoopS)
		return pattern.Triplet{Eta: n, Kappa: 1, Rho: 1}
	}
	inside, outside := m.splitAroundC()
	return pattern.Triplet{Eta: inside, Kappa: m.Bound(LoopC), Rho: outside}
}

// DeriveRead returns the triplet of the ofmap VN sequence seen by the
// read-observer (partial-sum read-backs). Output-stationary mappings never
// read partials, so the result is Empty; otherwise the ramp tops out one
// below the write ramp (the final version is read by the next layer).
func DeriveRead(m *Mapping) pattern.Triplet {
	if m.outputStationary() {
		return pattern.Empty
	}
	if m.Bound(LoopC) == 2 {
		// Ramp of height 1: a line of ones, canonical Line form.
		inside, outside := m.splitAroundC()
		return pattern.Triplet{Eta: inside * outside, Kappa: 1, Rho: 1}
	}
	inside, outside := m.splitAroundC()
	return pattern.Triplet{Eta: inside, Kappa: m.Bound(LoopC) - 1, Rho: outside}
}

// splitAroundC returns the product of loop bounds strictly inside the C
// loop (η) and strictly outside it (ρ). Absent loops count as inside with
// bound 1.
func (m *Mapping) splitAroundC() (inside, outside int) {
	inside, outside = 1, 1
	pos := -1
	for i, v := range m.Order {
		if v == LoopC {
			pos = i
			break
		}
	}
	if pos < 0 {
		return inside, outside
	}
	for i, v := range m.Order {
		switch {
		case i < pos:
			outside *= m.Bound(v)
		case i > pos:
			inside *= m.Bound(v)
		}
	}
	return inside, outside
}

// WriteVNs extracts the ofmap VN sequence observed by the write-observer
// from an event stream; ReadVNs likewise for the read-observer.
func WriteVNs(events []Event) []int {
	var out []int
	for _, e := range events {
		if e.Tensor == tensor.Ofmap && e.Kind == sim.Write {
			out = append(out, e.VN)
		}
	}
	return out
}

// ReadVNs extracts the ofmap partial-sum VN sequence (read-observer).
func ReadVNs(events []Event) []int {
	var out []int
	for _, e := range events {
		if e.Tensor == tensor.Ofmap && e.Kind == sim.Read {
			out = append(out, e.VN)
		}
	}
	return out
}

// FirstReadBlocks sums the blocks of first-touch ifmap reads (the data the
// MAC_FR register must cover in the next layer's verification).
func FirstReadBlocks(events []Event) int {
	n := 0
	for _, e := range events {
		if e.Tensor == tensor.Ifmap && e.Kind == sim.Read && e.First {
			n += e.Blocks
		}
	}
	return n
}
