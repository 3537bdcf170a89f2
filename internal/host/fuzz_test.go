package host

import (
	"bytes"
	"errors"
	"testing"

	"seculator/internal/workload"
)

// FuzzCommandPacket feeds arbitrary payloads, tagged under the session key,
// to a fresh NPU endpoint. Nothing may panic; every accepted payload must
// be one encode produces, so it re-encodes byte for byte and names a known
// layer type; and every refusal must be ErrChannel with the breach latched.
func FuzzCommandPacket(f *testing.F) {
	c := sampleCommand()
	c.Seq = 1
	f.Add(c.encode())
	f.Fuzz(func(t *testing.T, payload []byte) {
		e := NewEndpoint(key)
		m := newSessionMAC(key)
		got, err := e.Receive(Packet{Payload: payload, Tag: m.tag(payload)})
		if err != nil {
			if !errors.Is(err, ErrChannel) || !e.Breached() {
				t.Fatalf("refusal %v: ErrChannel %v, breach latched %v", err, errors.Is(err, ErrChannel), e.Breached())
			}
			return
		}
		if re := got.encode(); !bytes.Equal(re, payload) {
			t.Fatalf("accepted payload %x re-encodes as %x", payload, re)
		}
		if got.Layer.Type > workload.Upsample {
			t.Fatalf("accepted payload %x names layer type %d", payload, got.Layer.Type)
		}
	})
}
