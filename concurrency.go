package seculator

import (
	"seculator/internal/parallel"
	"seculator/internal/runner"
)

// SetParallelism sets the worker count every fan-out in the experiment
// engine uses — runner.RunAll's design fan-out, the sweeps, the figure
// experiments, the attack matrix and the fault campaign. n <= 0 restores
// the default (GOMAXPROCS). All experiment outputs are deterministic in
// the worker count: results land by index, never by completion order.
func SetParallelism(n int) { parallel.SetWorkers(n) }

// Parallelism returns the current worker count.
func Parallelism() int { return parallel.Workers() }

// CacheStats is a snapshot of the memoizing simulation cache's counters.
type CacheStats = parallel.MemoStats

// SimCacheStats reports the simulation cache's hits, misses and resident
// entries. Experiments share (network, design, config) points — Fig4 and
// Fig5 reuse every point, the sweeps re-run the base configuration per
// knob — so a full regeneration shows a substantial hit count.
func SimCacheStats() CacheStats { return runner.CacheStats() }

// ResetSimCache discards every memoized simulation result. Long-lived
// hosts call it to bound memory; tests call it to force cold runs.
func ResetSimCache() { runner.ResetCache() }

// ResetSimCacheStats zeroes the cache's hit/miss counters without evicting
// any entry, so a long-running process (the serving daemon's /metrics
// scraper, a soak test) can window the counters — hit rate since the last
// reset — instead of only accumulating since process start.
func ResetSimCacheStats() { runner.ResetCacheStats() }
