package serve

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"seculator/internal/resilience"
)

// FuzzOpenSnapshot mutates a sealed envelope's version, payload bytes and
// MAC string. openSnapshot must accept exactly the sealed envelope, and
// return its payload, and refuse everything else with a
// *resilience.SnapshotIntegrityError; nothing may panic.
func FuzzOpenSnapshot(f *testing.F) {
	key := []byte("snapshot-sealing-key-for-fuzzing")
	want := snapshotPayload{
		ID: "s-fuzz", Tenant: "t1", Key: "00112233445566778899aabbccddeeff",
		IdleMs: 60000, LastSeq: 7, Infers: 3, LastSum: 42,
		Regs: &snapshotRegs{W: strings.Repeat("ab", 32), WFolds: 5},
	}
	sealed, err := sealSnapshot(key, want)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed.Version, sealed.Payload, sealed.MAC)
	f.Add(sealed.Version+1, sealed.Payload, sealed.MAC)
	f.Add(sealed.Version, sealed.Payload[:len(sealed.Payload)-1], sealed.MAC)
	f.Add(sealed.Version, sealed.Payload, sealed.MAC[:len(sealed.MAC)-2])
	f.Add(sealed.Version, sealed.Payload, strings.ToUpper(sealed.MAC))
	f.Fuzz(func(t *testing.T, version int, payload []byte, macText string) {
		env := SnapshotEnvelope{Version: version, Payload: payload, MAC: macText}
		got, err := openSnapshot(key, env)
		isSealed := version == sealed.Version && bytes.Equal(payload, sealed.Payload) && macText == sealed.MAC
		if err != nil {
			var sie *resilience.SnapshotIntegrityError
			if !errors.As(err, &sie) {
				t.Fatalf("refusal %v (%T) is not a *resilience.SnapshotIntegrityError", err, err)
			}
			if isSealed {
				t.Fatalf("the sealed envelope was refused: %v", err)
			}
			return
		}
		if !isSealed {
			t.Fatalf("accepted an envelope that is not the sealed one: version %d, payload %q, mac %q", version, payload, macText)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("opened payload %+v, want %+v", got, want)
		}
	})
}
