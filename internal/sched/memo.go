package sched

import (
	"seculator/internal/mem"
	"seculator/internal/npu"
	"seculator/internal/parallel"
	"seculator/internal/workload"
)

// memo.go — memoized mapping search. Map is a pure function of
// (layer, NPU config, DRAM config): enumerate generates the same candidate
// set in the same order and less() imposes a total order with a
// deterministic tie-break, so the winning Choice is identical on every
// call. The serving tier calls Map for the same handful of layers on every
// request (the executor's plan, plus the host endpoint's per-command
// cross-check), which made the mapping search the single largest line item
// in the serve profile. Caching the result is therefore transparent:
// callers observe the same Choice they would have computed, minus the
// enumeration cost.
//
// The returned Choice shares its *dataflow.Mapping with every other caller.
// That is safe because mappings are immutable after enumerate builds them —
// the executor and endpoint only read them (Generate, DeriveWrite).

// mapKey identifies one memoizable search. All three structs are plain
// value types with no pointers, so the key is comparable and hashes by
// content.
type mapKey struct {
	layer workload.Layer
	npu   npu.Config
	dram  mem.Config
}

// mapMemo holds every search's result. It clears itself at parallel.Memo's
// bound: the working set is tiny (layers of the registered networks × one
// or two configs), and the bound only guards against unbounded growth
// under adversarial layer diversity.
var mapMemo = parallel.NewMemo[mapKey, Choice]()

// MapCached is Map with memoization; concurrent misses on one key search
// once. Errors are not cached: a failing search (no feasible mapping) is
// forgotten, so every call re-runs it and sees the live error, but failures
// are rare and never on the serving hot path.
func MapCached(l workload.Layer, cfg npu.Config, dram mem.Config) (Choice, error) {
	key := mapKey{layer: l, npu: cfg, dram: dram}
	c, err := mapMemo.Do(key, func() (Choice, error) { return Map(l, cfg, dram) })
	if err != nil {
		mapMemo.Forget(key)
	}
	return c, err
}

// MapNetworkCached is MapNetwork built on MapCached: one memo lookup per
// layer instead of one enumeration per layer.
func MapNetworkCached(net workload.Network, cfg npu.Config, dram mem.Config) ([]Choice, error) {
	choices := make([]Choice, len(net.Layers))
	for i, l := range net.Layers {
		c, err := MapCached(l, cfg, dram)
		if err != nil {
			return nil, err
		}
		choices[i] = c
	}
	return choices, nil
}
