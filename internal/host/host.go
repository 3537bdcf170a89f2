// Package host models the CPU side of the system (Section 6.1): just before
// each layer runs, the host sends the NPU a "run layer" command over a PCIe
// link protected by a shared session key (Figure 6). A command carries the
// layer's index and geometry and the write triplet ⟨η, κ, ρ⟩ from which the
// NPU's VN generator (package vngen) rebuilds every version number the layer
// uses. An HMAC tag and a strictly increasing sequence number reject
// tampering and replay; the NPU also refuses an authentic command for
// another layer or triplet than its own plan's. A refused command is Figure
// 6's "security breach → reboot" path: the run stops at that layer.
package host

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"

	"seculator/internal/pattern"
	"seculator/internal/workload"
)

// ErrChannel is returned for any authentication failure on the command
// channel: tampered payloads, replayed or reordered sequence numbers, or
// tags under the wrong session key.
var ErrChannel = errors.New("host: command channel authentication failed")

// Command is one "run layer" order: the layer to execute and the VN triplet
// of its writes, under the session's sequence number.
type Command struct {
	Seq        uint64 // strictly increasing per session
	LayerIndex uint32
	Layer      workload.Layer // Name is not on the wire
	Triplet    pattern.Triplet
}

// Packet is the wire form of a command: an encoded payload plus its tag.
type Packet struct {
	Payload []byte
	Tag     [32]byte
}

// payloadLen is a command's wire length: Seq and LayerIndex, the layer's
// type byte, seven dimensions and Valid byte, and the triplet's three
// fields. Integers are big-endian 64-bit.
const payloadLen = 8 + 8 + 1 + 7*8 + 1 + 3*8

// encode serializes the command deterministically.
func (c *Command) encode() []byte {
	buf := make([]byte, 0, payloadLen)
	i64 := func(v int) { buf = binary.BigEndian.AppendUint64(buf, uint64(int64(v))) }
	buf = binary.BigEndian.AppendUint64(buf, c.Seq)
	buf = binary.BigEndian.AppendUint64(buf, uint64(c.LayerIndex))
	buf = append(buf, byte(c.Layer.Type))
	for _, v := range [...]int{c.Layer.C, c.Layer.H, c.Layer.W, c.Layer.K, c.Layer.R, c.Layer.S, c.Layer.Stride} {
		i64(v)
	}
	valid := byte(0)
	if c.Layer.Valid {
		valid = 1
	}
	buf = append(buf, valid)
	i64(c.Triplet.Eta)
	i64(c.Triplet.Kappa)
	i64(c.Triplet.Rho)
	return buf
}

// decode is the inverse of encode. It accepts only payloads encode can
// produce, so every accepted payload re-encodes to itself byte for byte.
func decode(payload []byte) (Command, error) {
	if len(payload) != payloadLen {
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
	li := u64()
	c.LayerIndex = uint32(li)
	c.Layer.Type = workload.LayerType(payload[off])
	off++
	c.Layer.C, c.Layer.H, c.Layer.W, c.Layer.K = i(), i(), i(), i()
	c.Layer.R, c.Layer.S, c.Layer.Stride = i(), i(), i()
	valid := payload[off]
	off++
	c.Layer.Valid = valid == 1
	c.Triplet.Eta, c.Triplet.Kappa, c.Triplet.Rho = i(), i(), i()
	switch {
	case li > math.MaxUint32:
		return Command{}, fmt.Errorf("host: command layer index %d out of range", li)
	case c.Layer.Type > workload.Upsample:
		return Command{}, fmt.Errorf("host: unknown command layer type %d", c.Layer.Type)
	case valid > 1:
		return Command{}, fmt.Errorf("host: command padding flag %d is neither 0 nor 1", valid)
	}
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
	return &Controller{mac: newSessionMAC(sessionKey)}
}

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
	return &Endpoint{mac: newSessionMAC(sessionKey)}
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
