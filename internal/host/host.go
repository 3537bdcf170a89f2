// Package host models the CPU side of the system (Section 6.1): the host
// delivers per-layer execution commands to the NPU over a PCIe link
// protected by a shared session key. A command carries everything the
// paper says the accelerator needs to run a layer without further host
// involvement — the layer geometry, the data-region base addresses, the
// master-equation triplet ⟨η, κ, ρ⟩ for the VN generator, and the golden
// digests for host-written data — authenticated with an HMAC-style tag and
// a strictly increasing sequence number, so command tampering and command
// replay are both rejected (a rejected command is the "security breach →
// reboot" path of Figure 6).
package host

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"

	"seculator/internal/mac"
	"seculator/internal/pattern"
	"seculator/internal/workload"
)

// ErrChannel is returned for any authentication failure on the command
// channel: tampered payloads, replayed or reordered sequence numbers, or
// tags under the wrong session key.
var ErrChannel = errors.New("host: command channel authentication failed")

// Command is one "run layer" order. All fields are what Section 6 says the
// host communicates: the layer to execute, where its tensors live, the VN
// triplet, and golden digests for data the host wrote itself.
type Command struct {
	Seq         uint64 // strictly increasing per session
	LayerIndex  uint32
	Layer       workload.Layer
	Triplet     pattern.Triplet
	IfmapBase   uint64
	OfmapBase   uint64
	WeightBase  uint64
	GoldenInput mac.Digest // zero unless the host wrote this layer's inputs
	GoldenWts   mac.Digest
}

// Packet is the wire form of a command: an encoded payload plus its tag.
type Packet struct {
	Payload []byte
	Tag     [32]byte
}

// encode serializes the command deterministically.
func (c *Command) encode() []byte {
	buf := make([]byte, 0, 160)
	u64 := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		buf = append(buf, b[:]...)
	}
	i64 := func(v int) { u64(uint64(int64(v))) }
	u64(c.Seq)
	u64(uint64(c.LayerIndex))
	buf = append(buf, byte(c.Layer.Type))
	i64(c.Layer.C)
	i64(c.Layer.H)
	i64(c.Layer.W)
	i64(c.Layer.K)
	i64(c.Layer.R)
	i64(c.Layer.S)
	i64(c.Layer.Stride)
	if c.Layer.Valid {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	i64(c.Triplet.Eta)
	i64(c.Triplet.Kappa)
	i64(c.Triplet.Rho)
	u64(c.IfmapBase)
	u64(c.OfmapBase)
	u64(c.WeightBase)
	buf = append(buf, c.GoldenInput[:]...)
	buf = append(buf, c.GoldenWts[:]...)
	return buf
}

// decode is the inverse of encode.
func decode(payload []byte) (Command, error) {
	const fixed = 8 + 8 + 1 + 7*8 + 1 + 3*8 + 3*8 + 32 + 32
	if len(payload) != fixed {
		return Command{}, fmt.Errorf("host: malformed command payload (%d bytes)", len(payload))
	}
	var c Command
	off := 0
	u64 := func() uint64 {
		v := binary.BigEndian.Uint64(payload[off:])
		off += 8
		return v
	}
	i := func() int { return int(int64(u64())) }
	c.Seq = u64()
	c.LayerIndex = uint32(u64())
	c.Layer.Type = workload.LayerType(payload[off])
	off++
	c.Layer.C = i()
	c.Layer.H = i()
	c.Layer.W = i()
	c.Layer.K = i()
	c.Layer.R = i()
	c.Layer.S = i()
	c.Layer.Stride = i()
	c.Layer.Valid = payload[off] == 1
	off++
	c.Triplet.Eta = i()
	c.Triplet.Kappa = i()
	c.Triplet.Rho = i()
	c.IfmapBase = u64()
	c.OfmapBase = u64()
	c.WeightBase = u64()
	copy(c.GoldenInput[:], payload[off:off+32])
	off += 32
	copy(c.GoldenWts[:], payload[off:off+32])
	return c, nil
}

// Controller is the host endpoint: it signs commands under the session key
// with increasing sequence numbers.
type Controller struct {
	mac sessionMAC
	seq uint64
}

// NewController creates a host controller for a session key.
func NewController(sessionKey []byte) *Controller {
	return NewControllerAt(sessionKey, 0)
}

// NewControllerAt creates a host controller whose next issued command gets
// sequence number lastSeq+1 — the restore path for a session whose channel
// state survived a snapshot: sequence numbers keep rising monotonically
// across the restart, so replay protection spans the session's whole life,
// not one process incarnation.
func NewControllerAt(sessionKey []byte, lastSeq uint64) *Controller {
	return &Controller{mac: newSessionMAC(sessionKey), seq: lastSeq}
}

// LastSeq returns the sequence number of the most recently issued command
// (the snapshot point for session export).
func (h *Controller) LastSeq() uint64 { return h.seq }

// Issue builds the authenticated packet for the next command. The sequence
// number is assigned here; the caller's Seq field is overwritten.
func (h *Controller) Issue(c Command) Packet {
	h.seq++
	c.Seq = h.seq
	payload := c.encode()
	return Packet{Payload: payload, Tag: h.mac.tag(payload)}
}

// Endpoint is the NPU side: it verifies tags and enforces strictly
// increasing sequence numbers.
type Endpoint struct {
	mac     sessionMAC
	lastSeq uint64
	breach  bool
}

// NewEndpoint creates the NPU receiver for a session key.
func NewEndpoint(sessionKey []byte) *Endpoint {
	return NewEndpointAt(sessionKey, 0)
}

// NewEndpointAt creates the NPU receiver with its replay window already
// advanced past lastSeq — the counterpart of NewControllerAt on restore: a
// replayed pre-snapshot command is rejected by the restored endpoint exactly
// as the original would have rejected it.
func NewEndpointAt(sessionKey []byte, lastSeq uint64) *Endpoint {
	return &Endpoint{mac: newSessionMAC(sessionKey), lastSeq: lastSeq}
}

// Receive authenticates and decodes a packet. Any failure latches the
// breach flag: per Figure 6, the NPU refuses all further work until reboot.
func (e *Endpoint) Receive(p Packet) (Command, error) {
	if e.breach {
		return Command{}, fmt.Errorf("%w: breached, reboot required", ErrChannel)
	}
	if want := e.mac.tag(p.Payload); !hmac.Equal(p.Tag[:], want[:]) {
		e.breach = true
		return Command{}, fmt.Errorf("%w: bad tag", ErrChannel)
	}
	c, err := decode(p.Payload)
	if err != nil {
		e.breach = true
		return Command{}, fmt.Errorf("%w: %v", ErrChannel, err)
	}
	if c.Seq <= e.lastSeq {
		e.breach = true
		return Command{}, fmt.Errorf("%w: sequence %d replayed (last %d)", ErrChannel, c.Seq, e.lastSeq)
	}
	e.lastSeq = c.Seq
	return c, nil
}

// Breached reports whether the endpoint has latched a security breach.
func (e *Endpoint) Breached() bool { return e.breach }

// Reboot clears the breach latch and the sequence window — the system
// reset of Figure 6. The session key would be renegotiated in a real
// system; here the caller supplies the new one.
func (e *Endpoint) Reboot(newSessionKey []byte) {
	e.mac = newSessionMAC(newSessionKey)
	e.lastSeq = 0
	e.breach = false
}

// sessionMAC is one endpoint's HMAC-SHA256 under the session key, keyed
// once — when the endpoint is built or rebooted — and Reset per packet.
// Controllers and endpoints live for one session run, so no keyed state
// outlives it.
type sessionMAC struct {
	h   hash.Hash
	sum [sha256.Size]byte // Sum's destination: a local would escape through h
}

func newSessionMAC(key []byte) sessionMAC {
	return sessionMAC{h: hmac.New(sha256.New, key)} // hmac.New copies the key
}

// tag returns the payload's HMAC under the session key.
func (m *sessionMAC) tag(payload []byte) [sha256.Size]byte {
	m.h.Reset()
	m.h.Write(payload)
	m.h.Sum(m.sum[:0])
	return m.sum
}
