package mem

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"seculator/internal/tensor"
)

// TestAttackerSurfaceByLineState pins what the attacker/test surface reports
// for a line in each state the store can put it in. The expectations are
// the ones the per-line map store gave: where a line's bytes live must not
// show through any of these calls.
func TestAttackerSurfaceByLineState(t *testing.T) {
	const probe, helper = 5, 1000 // helper: an existing line for Swap, far from every case
	zeros := make([]byte, tensor.BlockBytes)
	cases := []struct {
		name  string
		setup func(d *DRAM)
		addr  uint64
		want  []byte   // stored payload; nil = the line does not exist and reads as zeros
		order []uint64 // every existing line, as ForEachLine must visit them
	}{
		{"never reserved", func(d *DRAM) {}, probe, nil, nil},
		{"reserved, unwritten", func(d *DRAM) { d.Reserve(8) }, probe, nil, nil},
		{"written in slab", func(d *DRAM) {
			d.Reserve(8)
			d.WriteBlockQuiet(probe, payload(probe))
			d.WriteBlockQuiet(1, payload(1))
		}, probe, payload(probe), []uint64{1, probe}},
		{"written sparse", func(d *DRAM) {
			d.Reserve(8)
			d.WriteBlockQuiet(40, payload(40))
			d.WriteBlockQuiet(9, payload(9))
			d.WriteBlockQuiet(3, payload(3))
		}, 40, payload(40), []uint64{3, 9, 40}},
		{"written sparse, nothing reserved", func(d *DRAM) {
			d.WriteBlockQuiet(40, payload(40))
			d.WriteBlockQuiet(0, payload(7))
		}, 40, payload(40), []uint64{0, 40}},
		{"written in slab, then Reset", func(d *DRAM) {
			d.Reserve(8)
			d.WriteBlockQuiet(probe, payload(probe))
			d.Reset()
		}, probe, nil, nil},
		{"written sparse, then Reset", func(d *DRAM) {
			d.Reserve(8)
			d.WriteBlockQuiet(40, payload(40))
			d.Reset()
		}, 40, nil, nil},
		{"written, Reset, reserved again and grown", func(d *DRAM) {
			d.Reserve(8)
			d.WriteBlockQuiet(probe, payload(probe))
			d.Reset()
			d.Reserve(8)
			d.Reserve(64)
		}, probe, nil, nil},
		{"written in slab, then slab grown", func(d *DRAM) {
			d.Reserve(8)
			d.WriteBlockQuiet(probe, payload(probe))
			d.Reserve(64)
		}, probe, payload(probe), []uint64{probe}},
		{"written sparse, then reserved over", func(d *DRAM) {
			d.Reserve(8)
			d.WriteBlockQuiet(20, payload(20))
			d.WriteBlockQuiet(3, payload(3))
			d.WriteBlockQuiet(70, payload(70))
			d.Reserve(32)
		}, 20, payload(20), []uint64{3, 20, 70}},
	}
	read := func(d *DRAM, a uint64) []byte {
		dst := make([]byte, tensor.BlockBytes)
		d.ReadBlockQuiet(a, dst)
		return dst
	}
	for _, tc := range cases {
		exists := tc.want != nil
		stored := tc.want
		if !exists {
			stored = zeros
		}
		ops := map[string]func(t *testing.T, d *DRAM){
			"ReadBlockQuiet": func(t *testing.T, d *DRAM) {
				if got := read(d, tc.addr); !bytes.Equal(got, stored) {
					t.Fatalf("read %x, want %x", got[:4], stored[:4])
				}
			},
			"Peek": func(t *testing.T, d *DRAM) {
				p := d.Peek(tc.addr)
				if !exists {
					if p != nil {
						t.Fatal("Peek sees a line that does not exist")
					}
					return
				}
				if !bytes.Equal(p, stored) {
					t.Fatalf("Peek = %x, want %x", p[:4], stored[:4])
				}
				p[0] ^= 0x80
				if read(d, tc.addr)[0] != stored[0]^0x80 {
					t.Fatal("Peek does not alias the store")
				}
			},
			"Tamper": func(t *testing.T, d *DRAM) {
				if got := d.Tamper(tc.addr, 9, 0x20); got != exists {
					t.Fatalf("Tamper = %v, want %v", got, exists)
				}
				want := slices.Clone(stored)
				if exists {
					want[9] ^= 0x20
				}
				if got := read(d, tc.addr); !bytes.Equal(got, want) {
					t.Fatalf("after Tamper read %x, want %x", got[8:12], want[8:12])
				}
				if d.Tamper(tc.addr, -1, 1) || d.Tamper(tc.addr, tensor.BlockBytes, 1) {
					t.Fatal("Tamper accepted an offset outside the line")
				}
			},
			"Swap": func(t *testing.T, d *DRAM) {
				d.WriteBlockQuiet(helper, payload(99))
				if got := d.Swap(tc.addr, helper); got != exists {
					t.Fatalf("Swap = %v, want %v", got, exists)
				}
				if d.Swap(helper, tc.addr) != exists {
					t.Fatal("Swap is not symmetric in existence")
				}
				// Two swaps (or none) leave both lines as they were.
				if !bytes.Equal(read(d, tc.addr), stored) || !bytes.Equal(read(d, helper), payload(99)) {
					t.Fatal("Swap changed a payload it should not have")
				}
				if exists {
					d.Swap(tc.addr, helper)
					if !bytes.Equal(read(d, tc.addr), payload(99)) || !bytes.Equal(read(d, helper), stored) {
						t.Fatal("Swap did not exchange the payloads")
					}
				}
			},
			"Snapshot": func(t *testing.T, d *DRAM) {
				snap, ok := d.Snapshot(tc.addr)
				if ok != exists || (!exists && snap != nil) {
					t.Fatalf("Snapshot ok = %v (len %d), want %v", ok, len(snap), exists)
				}
				if exists {
					if !bytes.Equal(snap, stored) {
						t.Fatal("Snapshot payload differs")
					}
					snap[0] ^= 0xFF
					if read(d, tc.addr)[0] != stored[0] {
						t.Fatal("Snapshot aliases the store")
					}
				}
			},
			"Restore": func(t *testing.T, d *DRAM) {
				if got := d.Restore(tc.addr, payload(77)); got != exists {
					t.Fatalf("Restore = %v, want %v", got, exists)
				}
				want := stored
				if exists {
					want = payload(77)
				}
				if !bytes.Equal(read(d, tc.addr), want) {
					t.Fatal("Restore left the wrong payload")
				}
				if d.Restore(tc.addr, make([]byte, 8)) {
					t.Fatal("Restore accepted a short payload")
				}
			},
			"ForEachLine": func(t *testing.T, d *DRAM) {
				var got []uint64
				d.ForEachLine(func(a uint64, data []byte) {
					got = append(got, a)
					if !bytes.Equal(data, read(d, a)) || len(data) != tensor.BlockBytes {
						t.Errorf("line %d: ForEachLine payload differs from a read", a)
					}
				})
				if !slices.Equal(got, tc.order) {
					t.Fatalf("visited %v, want %v", got, tc.order)
				}
			},
			"Lines": func(t *testing.T, d *DRAM) {
				if got := d.Lines(); got != len(tc.order) {
					t.Fatalf("Lines = %d, want %d", got, len(tc.order))
				}
			},
		}
		for name, op := range ops {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				d := mustNew(t, DefaultConfig())
				tc.setup(d)
				op(t, d)
			})
		}
	}
}

// TestReserveMovesLines covers the two things a growing Reserve does that
// the surface test cannot see: a sparse line below the new extent moves
// into the slab (so Reset scrubs it in place and shards may write beside
// it), and a Peek alias taken before the growth is left behind.
func TestReserveMovesLines(t *testing.T) {
	d := mustNew(t, DefaultConfig())
	d.WriteBlockQuiet(20, payload(20))
	d.WriteBlockQuiet(70, payload(70))
	d.Reserve(8)
	d.WriteBlockQuiet(5, payload(5))
	stale := d.Peek(5)
	d.Reserve(32)
	if len(d.sparse) != 1 || d.sparse[70] == nil {
		t.Fatalf("sparse lines after Reserve(32): %d, want only line 70", len(d.sparse))
	}
	stale[0] ^= 0xFF
	if got := d.Peek(5); got[0] != payload(5)[0] {
		t.Fatal("a Peek alias survived the growing Reserve")
	}
	d.Reset()
	d.Reserve(128)
	if d.Lines() != 0 || d.Peek(20) != nil || d.Peek(70) != nil {
		t.Fatal("Reset + Reserve resurrected a migrated or sparse line")
	}
	if !bytes.Equal(d.slab, make([]byte, len(d.slab))) {
		t.Fatal("slab holds non-zero bytes after Reset and growth")
	}
}

// TestReserveIdempotentAllocFree is the pool contract: a DRAM that already
// reserves [0, n) — freshly, or after the Reset that parks it in the pool —
// answers Reserve(n) without allocating or touching a line.
func TestReserveIdempotentAllocFree(t *testing.T) {
	const n = 1024
	d := mustNew(t, DefaultConfig())
	d.Reserve(n)
	for a := uint64(0); a < n; a += 3 {
		d.WriteBlockQuiet(a, payload(byte(a)))
	}
	check := func(when string) {
		t.Helper()
		lines := d.Lines()
		for _, m := range []uint64{n, n / 2, 0} {
			if allocs := testing.AllocsPerRun(100, func() { d.Reserve(m) }); allocs != 0 {
				t.Errorf("%s: Reserve(%d) on a DRAM reserving %d lines: %.0f allocs, want 0", when, m, n, allocs)
			}
		}
		if d.Lines() != lines {
			t.Errorf("%s: Reserve changed Lines %d -> %d", when, lines, d.Lines())
		}
	}
	check("after writes")
	d.Reset()
	check("after Reset")
}

// TestConcurrentDisjointLines is the sharding contract under -race: workers
// that own disjoint line ranges of one reservation write and read them with
// no synchronisation, and what the joining goroutine then sees — Lines, and
// every line ForEachLine visits — equals a serial run of the same writes.
// (A written-lines counter shared by the writers fails this test.)
func TestConcurrentDisjointLines(t *testing.T) {
	const workers, per = 8, 160
	written := func(a uint64) bool { return a%7 != 0 }
	work := func(d *DRAM, w uint64) {
		lo := w * per
		got := make([]byte, tensor.BlockBytes)
		for a := lo; a < lo+per; a++ {
			if written(a) {
				d.WriteBlockQuiet(a, payload(byte(a)))
			}
		}
		// Rewrite the range's second half, every line of it.
		for a := lo + per/2; a < lo+per; a++ {
			d.WriteBlockQuiet(a, payload(byte(a)+1))
		}
		for a := lo; a < lo+per/2; a++ {
			d.ReadBlockQuiet(a, got)
			if written(a) != bytes.Equal(got, payload(byte(a))) {
				t.Errorf("worker %d: line %d read back wrong", w, a)
			}
		}
	}
	serial := mustNew(t, DefaultConfig())
	serial.Reserve(workers * per)
	for w := uint64(0); w < workers; w++ {
		work(serial, w)
	}

	d := mustNew(t, DefaultConfig())
	d.Reserve(workers * per)
	var wg sync.WaitGroup
	for w := uint64(0); w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(d, w)
		}()
	}
	wg.Wait()

	if d.Lines() != serial.Lines() {
		t.Fatalf("Lines = %d after the join, serial run has %d", d.Lines(), serial.Lines())
	}
	type line struct {
		addr uint64
		data string
	}
	collect := func(d *DRAM) (ls []line) {
		d.ForEachLine(func(a uint64, data []byte) { ls = append(ls, line{a, string(data)}) })
		return ls
	}
	if got, want := collect(d), collect(serial); !slices.Equal(got, want) {
		t.Fatalf("ForEachLine after the join visits %d lines, serial run %d, or their bytes differ", len(got), len(want))
	}
}
