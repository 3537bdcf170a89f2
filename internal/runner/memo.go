package runner

import (
	"context"
	"encoding/binary"
	"errors"
	"strings"

	"seculator/internal/mem"
	"seculator/internal/npu"
	"seculator/internal/parallel"
	"seculator/internal/protect"
	"seculator/internal/workload"
)

// simCache memoizes whole-simulation results across experiments: Fig4 and
// Fig5 share every point, Fig7/Fig8 re-run four of Fig4's designs, and the
// sweeps re-run the base configuration once per knob. The cache is keyed
// by the full (network, design, config) input, so any experiment that asks
// for an already-simulated point gets the stored Result instead of a
// re-simulation.
var simCache = parallel.NewMemo[simKey, Result]()

// simKey is the full simulation input as a comparable value: every config
// by value, and the network's layers — the one part of the input that is
// not comparable — spelled out field by field (layersKey), so two networks
// that merely share a name can never share an entry. TraceFn is never part
// of the key: traced runs bypass the cache.
type simKey struct {
	name, note string
	layers     string
	design     protect.Design
	npu        npu.Config
	dram       mem.Config
	protect    protect.Params
	noOverlap  bool
}

func newSimKey(n workload.Network, d protect.Design, cfg Config) simKey {
	return simKey{
		name: n.Name, note: n.Note, layers: layersKey(n.Layers), design: d,
		npu: cfg.NPU, dram: cfg.DRAM, protect: cfg.Protect, noOverlap: cfg.NoOverlap,
	}
}

// layerKeyBytes is the fixed part of one layer's encoding in layersKey: the
// name's length, the type, the seven shape ints and Valid.
const layerKeyBytes = 8 + 1 + 7*8 + 1

// layersKey encodes every field of every layer into one string — names
// length-prefixed, ints at fixed width — so distinct layer lists never
// encode alike. It is sized up front: one allocation, the string itself.
func layersKey(layers []workload.Layer) string {
	n := 0
	for i := range layers {
		n += layerKeyBytes + len(layers[i].Name)
	}
	var b strings.Builder
	b.Grow(n)
	var w [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		b.Write(w[:])
	}
	for i := range layers {
		l := &layers[i]
		put(len(l.Name))
		b.WriteString(l.Name)
		b.WriteByte(byte(l.Type))
		put(l.C)
		put(l.H)
		put(l.W)
		put(l.K)
		put(l.R)
		put(l.S)
		put(l.Stride)
		if l.Valid {
			b.WriteByte(1)
		} else {
			b.WriteByte(0)
		}
	}
	return b.String()
}

// RunCached is Run behind the memoizing simulation cache. The returned
// Result is shared with every other caller of the same point: treat it as
// immutable. Runs with a TraceFn bypass the cache — their value is the
// trace side channel, which a cache hit would silence.
func RunCached(ctx context.Context, n workload.Network, d protect.Design, cfg Config) (Result, error) {
	if cfg.TraceFn != nil {
		return Run(ctx, n, d, cfg)
	}
	key := newSimKey(n, d, cfg)
	res, err := simCache.Do(key, func() (Result, error) {
		return Run(ctx, n, d, cfg)
	})
	// A cancellation is a property of this call's context, not of the
	// simulation point: evict it so a later caller re-simulates.
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		simCache.Forget(key)
	}
	return res, err
}

// CacheStats returns the simulation cache's hit/miss counters.
func CacheStats() parallel.MemoStats { return simCache.Stats() }

// ResetCache discards every memoized simulation (tests, long-lived hosts).
func ResetCache() { simCache.Reset() }

// ResetCacheStats zeroes the hit/miss counters without evicting any cached
// simulation — the windowing hook for long-running servers that report
// cache effectiveness per scrape interval.
func ResetCacheStats() { simCache.ResetStats() }
