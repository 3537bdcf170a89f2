// Package runner executes a network on a simulated design: it maps each
// layer (sched), derives its tile-event stream (dataflow), charges compute
// time on the systolic array (npu), charges data and metadata traffic to
// the DRAM model (mem, protect), and combines them under double-buffered
// compute/memory overlap. Its outputs — cycles and per-class traffic — are
// the quantities behind Figures 4, 7, 8 and 9.
package runner

import (
	"context"
	"fmt"

	"seculator/internal/cache"
	"seculator/internal/dataflow"
	"seculator/internal/mem"
	"seculator/internal/npu"
	"seculator/internal/parallel"
	"seculator/internal/protect"
	"seculator/internal/resilience"
	"seculator/internal/sched"
	"seculator/internal/sim"
	"seculator/internal/tensor"
	"seculator/internal/workload"
)

// Config collects all model parameters.
type Config struct {
	NPU     npu.Config
	DRAM    mem.Config
	Protect protect.Params

	// NoOverlap disables double-buffered compute/memory overlap: layer
	// time becomes compute + memory instead of max(compute, memory).
	// Used by the overlap ablation study; off in the paper's system.
	NoOverlap bool

	// TraceFn, when non-nil, receives every data-tile transfer with its
	// resolved block address range — the bus-snooper's view, consumed by
	// the trace package. Metadata traffic is not traced (its addresses are
	// engine-internal).
	TraceFn func(layer int, kind sim.AccessKind, tns tensor.Kind, addr uint64, blocks int)
}

// DefaultConfig returns the Table 1 system.
func DefaultConfig() Config {
	return Config{
		NPU:     npu.DefaultConfig(),
		DRAM:    mem.DefaultConfig(),
		Protect: protect.DefaultParams(),
	}
}

// Validate checks every sub-config.
func (c Config) Validate() error {
	if err := c.NPU.Validate(); err != nil {
		return err
	}
	return c.DRAM.Validate()
}

// LayerResult is the per-layer outcome.
type LayerResult struct {
	Name          string
	Mapping       string
	ComputeCycles sim.Cycles
	MemCycles     sim.Cycles
	Cycles        sim.Cycles // max(compute, mem) + pipeline start
	DataBlocks    uint64
	ExtraBlocks   uint64 // metadata blocks added by the protection engine
	ExtraLatency  sim.Cycles
	Utilization   float64 // achieved fraction of peak MAC throughput
	MemoryBound   bool    // memory time dominated this layer
}

// Result is the outcome of one (network, design) simulation.
type Result struct {
	Network string
	Design  protect.Design

	Cycles  sim.Cycles
	Traffic mem.TrafficStats
	Layers  []LayerResult

	MACCache        cache.Stats
	HasMACCache     bool
	CounterCache    cache.Stats
	HasCounterCache bool
}

// Seconds returns the simulated wall time.
func (r Result) Seconds(freqHz float64) float64 { return r.Cycles.Seconds(freqHz) }

// Performance returns the paper's metric: the reciprocal of execution time,
// normalized so that `base` (typically the Baseline result for the same
// network) is 1.0.
func (r Result) Performance(base Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// NormalizedTraffic returns the design's total DRAM blocks relative to base.
func (r Result) NormalizedTraffic(base Result) float64 {
	return sim.Ratio(r.Traffic.Total(), base.Traffic.Total())
}

// Run simulates one network on one design: RunLayers over its validated,
// chained layers. ctx cancels the simulation between layers; a nil ctx
// means context.Background(). No panic escapes.
func Run(ctx context.Context, n workload.Network, d protect.Design, cfg Config) (Result, error) {
	if err := n.Validate(); err != nil {
		return Result{}, &resilience.ConfigError{Err: err}
	}
	return RunLayers(ctx, n.Name, n.Layers, d, cfg)
}

// addressAllocator hands out non-overlapping block regions.
type addressAllocator struct{ next uint64 }

func (a *addressAllocator) reserve(blocks uint64) uint64 {
	base := a.next
	a.next += blocks
	return base
}

// layerInfo lays the layer's tensors out in the block address space. The
// ifmap region is the previous layer's ofmap region, so metadata cache
// lines persist across the producer/consumer boundary exactly as they
// would in hardware.
func layerInfo(idx int, c sched.Choice, alloc *addressAllocator, prevOfmapBase uint64) protect.LayerInfo {
	m := c.Mapping
	spatial := m.Bound(dataflow.LoopS)
	ofBlocks := uint64(m.Bound(dataflow.LoopK)*spatial) * uint64(m.OfmapTileBlocks)
	wBlocks := uint64(m.Bound(dataflow.LoopK)*m.Bound(dataflow.LoopC)) * uint64(m.WeightTileBlocks)
	return protect.LayerInfo{
		Index:        idx,
		Mapping:      m,
		IfmapBase:    prevOfmapBase,
		OfmapBase:    alloc.reserve(ofBlocks),
		WeightBase:   alloc.reserve(wBlocks),
		SpatialTiles: spatial,
	}
}

func runLayer(c sched.Choice, li protect.LayerInfo, engine protect.Engine,
	dram *mem.DRAM, cfg Config) (LayerResult, error) {

	compute := cfg.NPU.LayerComputeCycles(c.ComputePasses, c.PassPixels, c.KT, c.PassDepth)

	engine.BeginLayer(li)
	var dataBlocks, extraBlocks uint64
	var extraLatency sim.Cycles
	err := dataflow.Generate(c.Mapping, func(e dataflow.Event) bool {
		dram.Record(e.Kind, sim.DataTraffic, e.Blocks)
		dataBlocks += uint64(e.Blocks)
		if cfg.TraceFn != nil {
			addr, n := li.BlockRange(e)
			cfg.TraceFn(li.Index, e.Kind, e.Tensor, addr, n)
		}
		cost := engine.OnEvent(e)
		chargeCost(dram, cost)
		extraBlocks += cost.ExtraBlocks()
		extraLatency = extraLatency.Add(cost.Latency)
		return true
	})
	if err != nil {
		return LayerResult{}, err
	}
	end := engine.EndLayer()
	chargeCost(dram, end)
	extraBlocks += end.ExtraBlocks()
	extraLatency = extraLatency.Add(end.Latency)

	// Memory time: one pipeline-start latency, then bandwidth-limited
	// streaming of every block, plus the serialized protection latencies.
	totalBlocks := dataBlocks + extraBlocks
	memCycles := dram.ServiceTime(int(totalBlocks)).Add(extraLatency)

	cycles := compute.Max(memCycles)
	if cfg.NoOverlap {
		cycles = compute.Add(memCycles)
	}
	util := 0.0
	if cycles > 0 {
		ideal := float64(c.Layer.MACs()) / float64(cfg.NPU.PEs())
		util = ideal / float64(cycles)
	}
	return LayerResult{
		Name:          c.Layer.Name,
		Mapping:       c.Mapping.Name,
		ComputeCycles: compute,
		MemCycles:     memCycles,
		Cycles:        cycles,
		DataBlocks:    dataBlocks,
		ExtraBlocks:   extraBlocks,
		ExtraLatency:  extraLatency,
		Utilization:   util,
		MemoryBound:   memCycles >= compute,
	}, nil
}

func chargeCost(dram *mem.DRAM, c protect.Cost) {
	for t := range c.ReadBlocks {
		dram.Record(sim.Read, sim.Traffic(t), int(c.ReadBlocks[t]))
		dram.Record(sim.Write, sim.Traffic(t), int(c.WriteBlocks[t]))
	}
}

// RunAll simulates a network across a set of designs concurrently (one
// worker-pool task per design), returning results in designs order. Each
// simulation owns its engine and DRAM, so the tasks share nothing; results
// come from the memoizing simulation cache when the point was already run.
// With a TraceFn configured, designs run sequentially instead — the trace
// callback sees one interleaving-free address stream per design.
func RunAll(ctx context.Context, n workload.Network, designs []protect.Design, cfg Config) ([]Result, error) {
	workers := 0
	if cfg.TraceFn != nil {
		workers = 1
	}
	return parallel.Map(ctx, workers, designs, func(ctx context.Context, d protect.Design) (Result, error) {
		return RunCached(ctx, n, d, cfg)
	})
}

// RunLayers simulates an arbitrary layer sequence that need not chain as a
// network — the execution mode of Seculator+'s dummy-network interspersing,
// where decoy layers with unrelated shapes run between the real ones. Each
// layer is validated individually; activation regions are still allocated
// producer/consumer style so the address trace looks like one execution.
// ctx cancels between layers; no panic escapes.
func RunLayers(ctx context.Context, name string, layers []workload.Layer, d protect.Design, cfg Config) (res Result, err error) {
	defer resilience.Recover(&err)
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, &resilience.ConfigError{Err: err}
	}
	if len(layers) == 0 {
		return Result{}, &resilience.ConfigError{Err: fmt.Errorf("runner: no layers to run")}
	}
	engine, err := protect.New(d, cfg.Protect)
	if err != nil {
		return Result{}, &resilience.ConfigError{Err: err}
	}
	dram, err := mem.New(cfg.DRAM)
	if err != nil {
		return Result{}, &resilience.ConfigError{Err: err}
	}

	res = Result{Network: name, Design: d, Layers: make([]LayerResult, 0, len(layers))}
	var alloc addressAllocator
	prevOfmapBase := alloc.reserve(4096)

	for i, l := range layers {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		choice, err := sched.Map(l, cfg.NPU, cfg.DRAM)
		if err != nil {
			return Result{}, fmt.Errorf("runner: %s layer %d (%s): %w", name, i, l.Name, err)
		}
		li := layerInfo(i, choice, &alloc, prevOfmapBase)
		prevOfmapBase = li.OfmapBase

		lr, err := runLayer(choice, li, engine, dram, cfg)
		if err != nil {
			return Result{}, fmt.Errorf("runner: %s layer %d (%s): %w", name, i, l.Name, err)
		}
		res.Cycles = res.Cycles.Add(lr.Cycles)
		res.Layers = append(res.Layers, lr)
	}

	res.Traffic = dram.Traffic()
	res.MACCache, res.HasMACCache = engine.MACCacheStats()
	res.CounterCache, res.HasCounterCache = engine.CounterCacheStats()
	return res, nil
}
