// Package mem models the off-chip DRAM of the simulated system: a
// dual-channel DDR4 memory with a fixed access latency (Table 1: 100 NPU
// cycles) and a finite per-channel block bandwidth. It also owns the
// byte-addressable backing store that the functional security layer
// encrypts into, so attack tests can mutate "DRAM" contents directly.
//
// Timing model: a burst of n blocks issued together overlaps its requests
// across channels and banks, so it completes in
//
//	latency + ceil(n / blocksPerCycle)
//
// cycles, where blocksPerCycle is the aggregate channel bandwidth expressed
// in 64-byte blocks per NPU cycle. Traffic is accounted per purpose
// (sim.Traffic) so experiments can attribute overhead to MACs, counters,
// Merkle nodes, or metadata tables.
//
// Error discipline: constructors return errors for bad configuration; the
// package never panics on a reachable data path. Panics are reserved for
// unreachable programmer-error invariants.
package mem

import (
	"fmt"
	"slices"

	"seculator/internal/sim"
	"seculator/internal/tensor"
)

// Config parameterizes the DRAM model.
type Config struct {
	Channels       int        // independent channels (Table 1: 2)
	LatencyCycles  sim.Cycles // closed-row access latency in NPU cycles (Table 1: 100)
	BlocksPerCycle float64    // aggregate 64-byte blocks transferable per NPU cycle
}

// DefaultConfig matches Table 1: dual-channel DDR4 under a 2.75 GHz NPU.
// One DDR4-2400 channel moves 19.2 GB/s; two channels at 2.75 GHz give
// 38.4e9 / 64 / 2.75e9 ≈ 0.22 blocks per NPU cycle.
func DefaultConfig() Config {
	return Config{Channels: 2, LatencyCycles: 100, BlocksPerCycle: 0.22}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Channels <= 0 {
		return fmt.Errorf("mem: channels must be positive, got %d", c.Channels)
	}
	if c.BlocksPerCycle <= 0 {
		return fmt.Errorf("mem: bandwidth must be positive, got %g", c.BlocksPerCycle)
	}
	return nil
}

// TrafficStats counts blocks moved per purpose and direction.
type TrafficStats struct {
	ReadBlocks  [6]uint64 // indexed by sim.Traffic
	WriteBlocks [6]uint64
}

// Total returns all blocks moved.
func (t TrafficStats) Total() uint64 {
	var n uint64
	for i := range t.ReadBlocks {
		n += t.ReadBlocks[i] + t.WriteBlocks[i]
	}
	return n
}

// ByKind returns read+write blocks of one traffic class.
func (t TrafficStats) ByKind(k sim.Traffic) uint64 {
	return t.ReadBlocks[k] + t.WriteBlocks[k]
}

// Overhead returns all non-data blocks.
func (t TrafficStats) Overhead() uint64 { return t.Total() - t.ByKind(sim.DataTraffic) }

const blockBytes = uint64(tensor.BlockBytes)

// Injector intercepts block transfers on the DRAM pins — the attachment
// point for fault-injection campaigns (package fault). OnRead runs after the
// stored payload is copied into the destination buffer and may mutate it in
// place: a read-path fault, transient unless the injector repeats it.
// OnWrite runs on the payload about to be stored and may mutate it: a
// write-path fault, persistent until the line is rewritten. Both observe
// every functional transfer, including host loads.
type Injector interface {
	OnRead(lineAddr uint64, data []byte)
	OnWrite(lineAddr uint64, data []byte)
}

// DRAM is the memory model plus functional backing store. Lines [0,
// len(written)) — the reservation — lie back to back in slab; a line outside
// it is an entry of sparse, which the secure executor never creates (it
// reserves its whole address space) but the attack harnesses and the
// comparison memories of package protect do.
type DRAM struct {
	cfg      Config
	traffic  TrafficStats
	injector Injector
	slab     []byte            // len(written) lines; unwritten ones hold zeros
	sparse   map[uint64][]byte // nil until a line outside the reservation is written

	// written marks which reserved lines have been stored to. Reservation
	// must stay invisible to the attacker/test surface (Peek, Snapshot,
	// Tamper, Swap, Restore, ForEachLine, Lines): a reserved line "exists"
	// only once written. Concurrent writers set distinct elements (shards
	// own distinct addresses by contract), hence one bool per line and
	// neither a packed bitmap nor a shared count.
	written []bool
}

// New builds a DRAM with the given config.
func New(cfg Config) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DRAM{cfg: cfg}, nil
}

// Config returns the model parameters.
func (d *DRAM) Config() Config { return d.cfg }

// SetInjector installs (or, with nil, removes) a fault injector on the
// functional read/write paths.
func (d *DRAM) SetInjector(i Injector) { d.injector = i }

// ServiceTime returns the cycles to serve a burst of n blocks.
func (d *DRAM) ServiceTime(n int) sim.Cycles {
	if n <= 0 {
		return 0
	}
	transfer := sim.Cycles(float64(n)/d.cfg.BlocksPerCycle + 0.999999)
	return d.cfg.LatencyCycles.Add(transfer)
}

// Record accounts a transfer of n blocks of the given purpose and
// direction, without touching the backing store (timing-only path).
func (d *DRAM) Record(kind sim.AccessKind, purpose sim.Traffic, n int) {
	if n <= 0 {
		return
	}
	if kind == sim.Read {
		d.traffic.ReadBlocks[purpose] += uint64(n)
	} else {
		d.traffic.WriteBlocks[purpose] += uint64(n)
	}
}

// Traffic returns a snapshot of the traffic counters.
func (d *DRAM) Traffic() TrafficStats { return d.traffic }

// ResetTraffic zeroes the counters.
func (d *DRAM) ResetTraffic() { d.traffic = TrafficStats{} }

// WriteBlock stores a 64-byte payload at the line address and accounts the
// traffic. The payload is copied.
func (d *DRAM) WriteBlock(lineAddr uint64, payload []byte, purpose sim.Traffic) {
	d.WriteBlockQuiet(lineAddr, payload)
	d.Record(sim.Write, purpose, 1)
}

// ReadBlock fetches the 64-byte payload at the line address into dst and
// accounts the traffic. Reading a never-written line yields zeros.
func (d *DRAM) ReadBlock(lineAddr uint64, dst []byte, purpose sim.Traffic) {
	d.ReadBlockQuiet(lineAddr, dst)
	d.Record(sim.Read, purpose, 1)
}

// Reserve extends the reservation to lines [0, n): a no-op when it already
// reaches n, otherwise one new slab that takes over the old one's contents
// and every sparse line below n, written status included. The secure
// executor calls it before sharding work across goroutines: inside the
// reservation a read or write is a copy at a fixed offset that mutates no
// shared structure, so concurrent WriteBlockQuiet / ReadBlockQuiet calls at
// distinct addresses are safe. The attacker/test view is unaffected: a
// reserved line stays "nonexistent" until written, Reset lines included.
func (d *DRAM) Reserve(n uint64) {
	if n <= uint64(len(d.written)) {
		return
	}
	slab, written := make([]byte, n*blockBytes), make([]bool, n)
	copy(slab, d.slab)
	copy(written, d.written)
	for a, buf := range d.sparse {
		if a < n {
			copy(slab[a*blockBytes:], buf)
			written[a] = true
			delete(d.sparse, a)
		}
	}
	d.slab, d.written = slab, written
}

// Reset returns the DRAM to its post-New state while keeping the slab and
// the written bitmap allocated — the reuse primitive behind the secure
// executor's pooled run state. The whole slab is zeroed (a pooled DRAM must
// not leak one run's ciphertext into the next run's address space), every
// line reverts to "nonexistent" for the attacker/test surface, lines outside
// the reservation are dropped, and traffic counters and injector clear.
func (d *DRAM) Reset() {
	d.traffic = TrafficStats{}
	d.injector = nil
	clear(d.slab)
	clear(d.written)
	d.sparse = nil
}

// backing returns the bytes behind a line, written or not: its slab range
// inside the reservation, its sparse entry (nil if there is none) outside.
func (d *DRAM) backing(lineAddr uint64) []byte {
	if lineAddr < uint64(len(d.written)) {
		return d.slab[lineAddr*blockBytes : (lineAddr+1)*blockBytes : (lineAddr+1)*blockBytes]
	}
	return d.sparse[lineAddr]
}

// line returns the stored bytes of a written line, or nil when the line
// does not exist (never written, or reserved only).
func (d *DRAM) line(lineAddr uint64) []byte {
	if lineAddr < uint64(len(d.written)) && !d.written[lineAddr] {
		return nil
	}
	return d.backing(lineAddr)
}

// WriteBlockQuiet is WriteBlock without traffic accounting: shard workers
// use it and count transfers locally, merging them into the shared counters
// via Record on the main goroutine (neither the counters nor a write outside
// the reservation is goroutine-safe). The injector still observes the
// transfer; serializing injector access across shards is the caller's job.
func (d *DRAM) WriteBlockQuiet(lineAddr uint64, payload []byte) {
	if len(payload) != tensor.BlockBytes {
		panic(fmt.Sprintf("mem: payload must be %d bytes, got %d", tensor.BlockBytes, len(payload)))
	}
	buf := d.backing(lineAddr)
	if lineAddr < uint64(len(d.written)) {
		d.written[lineAddr] = true
	} else if buf == nil {
		if d.sparse == nil {
			d.sparse = make(map[uint64][]byte)
		}
		buf = make([]byte, tensor.BlockBytes)
		d.sparse[lineAddr] = buf
	}
	copy(buf, payload)
	if d.injector != nil {
		d.injector.OnWrite(lineAddr, buf)
	}
}

// ReadBlockQuiet is ReadBlock without traffic accounting (see
// WriteBlockQuiet for the sharding contract).
func (d *DRAM) ReadBlockQuiet(lineAddr uint64, dst []byte) {
	if len(dst) != tensor.BlockBytes {
		panic(fmt.Sprintf("mem: dst must be %d bytes, got %d", tensor.BlockBytes, len(dst)))
	}
	if buf := d.backing(lineAddr); buf != nil {
		copy(dst, buf)
	} else {
		clear(dst)
	}
	if d.injector != nil {
		d.injector.OnRead(lineAddr, dst)
	}
}

// Peek returns the stored payload without traffic accounting (attacker /
// test access). The returned slice aliases the store; mutating it mutates
// DRAM, which is exactly what a physical attacker does. The alias does not
// survive a Reserve that grows the reservation: the line moves.
func (d *DRAM) Peek(lineAddr uint64) []byte { return d.line(lineAddr) }

// Tamper XORs mask into the byte at off within the stored line (attacker
// primitive). It reports whether the line existed.
func (d *DRAM) Tamper(lineAddr uint64, off int, mask byte) bool {
	buf := d.line(lineAddr)
	if off < 0 || off >= len(buf) {
		return false
	}
	buf[off] ^= mask
	return true
}

// Swap exchanges the payloads of two lines (splicing attack primitive).
func (d *DRAM) Swap(a, b uint64) bool {
	pa, pb := d.line(a), d.line(b)
	if pa == nil || pb == nil {
		return false
	}
	for i := range pa {
		pa[i], pb[i] = pb[i], pa[i]
	}
	return true
}

// Snapshot copies the current payload of a line (replay attack primitive:
// capture now, restore later with Restore).
func (d *DRAM) Snapshot(lineAddr uint64) ([]byte, bool) {
	buf := d.line(lineAddr)
	if buf == nil {
		return nil, false
	}
	return slices.Clone(buf), true
}

// Restore overwrites a line with a previously captured payload.
func (d *DRAM) Restore(lineAddr uint64, payload []byte) bool {
	buf := d.line(lineAddr)
	if buf == nil || len(payload) != len(buf) {
		return false
	}
	copy(buf, payload)
	return true
}

// ForEachLine visits every written line in ascending address order with its
// stored payload (reserved-but-never-written lines are skipped, matching
// Peek's attacker view). The payload slice aliases the store, like Peek's;
// callers that only hash or compare must not retain it. The deterministic
// order makes whole-memory digests comparable across runs — the conformance
// harness uses it to assert ciphertext bit-identity across worker counts.
func (d *DRAM) ForEachLine(fn func(lineAddr uint64, data []byte)) {
	for a, w := range d.written {
		if w {
			fn(uint64(a), d.backing(uint64(a)))
		}
	}
	addrs := make([]uint64, 0, len(d.sparse)) // all above the reservation
	for a := range d.sparse {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		fn(a, d.sparse[a])
	}
}

// Lines returns the number of distinct lines ever written (reserved but
// never-written lines do not count). It counts the bitmap when asked, so
// shards that have joined need no shared counter for it to be right.
func (d *DRAM) Lines() int {
	n := len(d.sparse)
	for _, w := range d.written {
		if w {
			n++
		}
	}
	return n
}
