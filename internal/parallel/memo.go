package parallel

import (
	"sync"
	"sync/atomic"
)

// MemoStats is a snapshot of a Memo's hit/miss counters.
type MemoStats struct {
	Hits    uint64 // Do calls served from the cache (including waits on an in-flight compute)
	Misses  uint64 // Do calls that triggered a compute
	Entries int    // distinct keys cached
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s MemoStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// memoEntry is one cached computation. The sync.Once gives singleflight
// semantics: concurrent misses on the same key compute exactly once, the
// losers block on the Once and read the stored result.
type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// Memo is a concurrency-safe memoization cache for deterministic
// computations, keyed by a comparable fingerprint. A sync.RWMutex guards
// the key map — a hit takes one read lock and bumps an atomic counter —
// and per-key sync.Once serializes the compute so a point is never
// computed twice. Both values and errors are cached; a caller whose
// errors must not persist drops them with Forget.
//
// Cached values are shared across callers: treat anything returned
// through a Memo as immutable.
//
// The table holds at most memoCap entries. The working set of every
// caller is far smaller; the bound only guards against unbounded growth
// when keys derive from caller-chosen input (the serving tier's
// "Name/div" network names). On overflow the table is cleared rather than
// LRU-evicted — rebuilding a few hundred entries is cheaper than per-hit
// bookkeeping; a compute in flight at that moment still completes through
// its entry's sync.Once and is returned to everyone already waiting on it.
type Memo[K comparable, V any] struct {
	mu           sync.RWMutex
	entries      map[K]*memoEntry[V]
	hits, misses atomic.Uint64
}

// memoCap is the most entries a Memo holds before it clears itself.
const memoCap = 4096

// NewMemo returns an empty cache.
func NewMemo[K comparable, V any]() *Memo[K, V] {
	return &Memo[K, V]{entries: make(map[K]*memoEntry[V])}
}

// Do returns the cached result for key, computing it with fn on first
// use. Concurrent calls with the same key run fn once; the rest wait and
// share the result.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	m.mu.RLock()
	e, ok := m.entries[key]
	m.mu.RUnlock()
	if !ok {
		m.mu.Lock()
		if e, ok = m.entries[key]; !ok {
			if len(m.entries) >= memoCap {
				m.entries = make(map[K]*memoEntry[V])
			}
			e = &memoEntry[V]{}
			m.entries[key] = e
		}
		m.mu.Unlock()
	}
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	e.once.Do(func() { e.val, e.err = fn() })
	return e.val, e.err
}

// Forget drops the entry for key, if any. Callers use it to evict a
// result that should not persist — e.g. a compute that failed with a
// context cancellation rather than a deterministic error.
func (m *Memo[K, V]) Forget(key K) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.entries, key)
}

// Stats returns a snapshot of the counters.
func (m *Memo[K, V]) Stats() MemoStats {
	m.mu.RLock()
	entries := len(m.entries)
	m.mu.RUnlock()
	return MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Entries: entries}
}

// Reset discards every entry and zeroes the counters.
func (m *Memo[K, V]) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries = make(map[K]*memoEntry[V])
	m.ResetStats()
}

// ResetStats zeroes the hit/miss counters while keeping every cached entry.
// Long-running processes use it to window the counters (hit rate since the
// last scrape) without throwing away warm state.
func (m *Memo[K, V]) ResetStats() {
	m.hits.Store(0)
	m.misses.Store(0)
}
