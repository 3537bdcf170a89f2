package protect

import (
	"bytes"
	"testing"

	"seculator/internal/mac"
)

func TestMACStorePrimitives(t *testing.T) {
	s := NewMACStore()
	var d mac.Digest
	d[0] = 0x42
	s.Put(1, d)
	got, ok := s.Get(1)
	if !ok || got != d {
		t.Fatal("Put/Get broken")
	}
	if _, ok := s.Get(99); ok {
		t.Fatal("missing entry reported present")
	}
	snap, ok := s.Snapshot(1)
	if !ok || snap != d {
		t.Fatal("Snapshot broken")
	}
	if !s.TamperMAC(1, 0xFF) {
		t.Fatal("TamperMAC failed")
	}
	if got, _ := s.Get(1); got == d {
		t.Fatal("TamperMAC did not change the digest")
	}
	if s.TamperMAC(99, 1) {
		t.Fatal("tampering a missing MAC should fail")
	}
	s.Restore(1, snap)
	if got, _ := s.Get(1); got != d {
		t.Fatal("Restore broken")
	}
	var d2 mac.Digest
	d2[0] = 0x24
	s.Put(2, d2)
	if !s.Swap(1, 2) {
		t.Fatal("Swap failed")
	}
	if got, _ := s.Get(1); got != d2 {
		t.Fatal("Swap did not exchange")
	}
	if s.Swap(1, 99) {
		t.Fatal("Swap with missing entry should fail")
	}
}

func TestBaselineMemory(t *testing.T) {
	d := mustDRAM(t)
	m := NewBaselineMemory(d)
	if m.DesignName() != Baseline {
		t.Fatal("wrong design")
	}
	m.BeginLayer(1)
	pt := plainBlock(5)
	m.WriteBlock(0, 0, 1, 0, pt)
	got, err := m.Read(0, 1, 0, 1, 0, true)
	if err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("baseline round trip: %v", err)
	}
	// Baseline stores plaintext: the DRAM holds it verbatim (no
	// confidentiality at all).
	if !bytes.Equal(d.Peek(0), pt) {
		t.Fatal("baseline should store plaintext")
	}
	if err := m.EndLayer(); err != nil {
		t.Fatal("baseline EndLayer must be a no-op")
	}
}

func TestSGXMemoryConfidentialityAndVersioning(t *testing.T) {
	d := mustDRAM(t)
	m, err := NewSGXMemory(d, 1, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if m.DesignName() != Secure {
		t.Fatal("wrong design")
	}
	m.BeginLayer(1)
	pt := plainBlock(6)
	m.WriteBlock(0, 0, 1, 0, pt)
	if bytes.Equal(d.Peek(0), pt) {
		t.Fatal("SGX memory leaked plaintext to DRAM")
	}
	first, _ := d.Snapshot(0)
	m.WriteBlock(0, 0, 2, 0, pt)
	second, _ := d.Snapshot(0)
	if bytes.Equal(first, second) {
		t.Fatal("counter bump must refresh the ciphertext")
	}
	got, err := m.Read(0, 1, 0, 2, 0, true)
	if err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("SGX round trip: %v", err)
	}
	if err := m.EndLayer(); err != nil {
		t.Fatal("per-block design EndLayer must be a no-op")
	}
}

func TestSGXMemoryBadPageCount(t *testing.T) {
	d := mustDRAM(t)
	if _, err := NewSGXMemory(d, 1, 2, 0); err == nil {
		t.Fatal("zero pages accepted")
	}
}

func TestTNPUMemoryMissingTableEntry(t *testing.T) {
	d := mustDRAM(t)
	m := NewTNPUMemory(d, 1, 2)
	if m.DesignName() != TNPU {
		t.Fatal("wrong design")
	}
	m.BeginLayer(1)
	if _, err := m.Read(0, 1, 42, 1, 0, true); err == nil {
		t.Fatal("read of an untracked tile should fail")
	}
	if err := m.EndLayer(); err != nil {
		t.Fatal("EndLayer must be a no-op")
	}
}

func TestGuardNNMemoryMissingSchedulerEntry(t *testing.T) {
	d := mustDRAM(t)
	m := NewGuardNNMemory(d, 1, 2)
	if m.DesignName() != GuardNN {
		t.Fatal("wrong design")
	}
	m.BeginLayer(1)
	if _, err := m.Read(0, 1, 42, 1, 0, true); err == nil {
		t.Fatal("read without a scheduler VN should fail")
	}
	pt := plainBlock(8)
	m.WriteBlock(5, 3, 1, 0, pt)
	if bytes.Equal(d.Peek(5), pt) {
		t.Fatal("GuardNN leaked plaintext")
	}
	got, err := m.Read(5, 1, 3, 1, 0, true)
	if err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("GuardNN round trip: %v", err)
	}
	if err := m.EndLayer(); err != nil {
		t.Fatal("EndLayer must be a no-op")
	}
}
