package host

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"testing/quick"

	"seculator/internal/nn"
	"seculator/internal/pattern"
	"seculator/internal/resilience"
	"seculator/internal/runner"
	"seculator/internal/secure"
	"seculator/internal/workload"
)

var key = []byte("session-key-0123")

func sampleCommand() Command {
	return Command{
		LayerIndex: 3,
		Layer: workload.Layer{
			Name: "conv", Type: workload.Conv,
			C: 64, H: 56, W: 56, K: 128, R: 3, S: 3, Stride: 2, Valid: true,
		},
		Triplet: pattern.Triplet{Eta: 4, Kappa: 8, Rho: 16},
	}
}

func TestIssueReceiveRoundTrip(t *testing.T) {
	h := NewController(key)
	e := NewEndpoint(key)
	want := sampleCommand()
	got, err := e.Receive(h.Issue(want))
	if err != nil {
		t.Fatal(err)
	}
	want.Seq = 1
	// Name is not on the wire; everything else must survive.
	want.Layer.Name = ""
	got.Layer.Name = ""
	if got != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// Subsequent commands carry increasing sequence numbers.
	c2, err := e.Receive(h.Issue(sampleCommand()))
	if err != nil || c2.Seq != 2 {
		t.Fatalf("second command: seq=%d err=%v", c2.Seq, err)
	}
}

func TestTamperedPayloadRejected(t *testing.T) {
	h := NewController(key)
	e := NewEndpoint(key)
	p := h.Issue(sampleCommand())
	p.Payload[20] ^= 0x01 // change the layer geometry in flight
	if _, err := e.Receive(p); !errors.Is(err, ErrChannel) {
		t.Fatalf("tampered command accepted: %v", err)
	}
	if !e.Breached() {
		t.Fatal("breach not latched")
	}
	// After a breach, even valid commands are refused until reboot.
	h2 := NewController(key)
	if _, err := e.Receive(h2.Issue(sampleCommand())); !errors.Is(err, ErrChannel) {
		t.Fatal("breached endpoint accepted a command")
	}
	e.Reboot(key)
	if e.Breached() {
		t.Fatal("reboot did not clear the breach")
	}
	if _, err := e.Receive(h2.Issue(sampleCommand())); err != nil {
		t.Fatalf("post-reboot command refused: %v", err)
	}
}

// TestIssueTagsAreIndependentHMACs: the controller keys its HMAC once and
// resets it per packet; over a long run of commands every tag must still be
// exactly a freshly keyed HMAC-SHA256 of the payload — no state carried
// from one packet into the next — and the packets, payloads and tags, are
// pinned byte for byte.
func TestIssueTagsAreIndependentHMACs(t *testing.T) {
	h := NewController(key)
	wire := sha256.New()
	for i := 0; i < 100; i++ {
		c := sampleCommand()
		c.LayerIndex = uint32(i)
		p := h.Issue(c)
		ref := hmac.New(sha256.New, key)
		ref.Write(p.Payload)
		if !bytes.Equal(p.Tag[:], ref.Sum(nil)) {
			t.Fatalf("command %d: tag differs from an independent HMAC of its payload", i+1)
		}
		wire.Write(p.Payload)
		wire.Write(p.Tag[:])
	}
	const want = "003eb1db13f09ae32bb4f381434ab0caf941438cb143fc4d491d44af9c6baba9"
	if got := hex.EncodeToString(wire.Sum(nil)); got != want {
		t.Fatalf("the 100 packets hash to %s, want %s", got, want)
	}
}

// TestRebootRekeys: a reboot renegotiates the session key, so the endpoint's
// HMAC must follow it — a packet under the old key is refused and one under
// the new key accepted.
func TestRebootRekeys(t *testing.T) {
	newKey := []byte("session-key-4567")
	e := NewEndpoint(key)
	if _, err := e.Receive(NewController(key).Issue(sampleCommand())); err != nil {
		t.Fatal(err)
	}
	e.Reboot(newKey)
	if _, err := e.Receive(NewController(key).Issue(sampleCommand())); !errors.Is(err, ErrChannel) {
		t.Fatalf("old-key packet accepted after reboot: %v", err)
	}
	e.Reboot(newKey)
	if _, err := e.Receive(NewController(newKey).Issue(sampleCommand())); err != nil {
		t.Fatalf("new-key packet refused after reboot: %v", err)
	}
}

func TestTamperedTagRejected(t *testing.T) {
	h := NewController(key)
	e := NewEndpoint(key)
	p := h.Issue(sampleCommand())
	p.Tag[0] ^= 0x80
	if _, err := e.Receive(p); !errors.Is(err, ErrChannel) {
		t.Fatal("bad tag accepted")
	}
}

func TestCommandReplayRejected(t *testing.T) {
	h := NewController(key)
	e := NewEndpoint(key)
	p := h.Issue(sampleCommand())
	if _, err := e.Receive(p); err != nil {
		t.Fatal(err)
	}
	// Replay the same authenticated packet: valid tag, stale sequence.
	if _, err := e.Receive(p); !errors.Is(err, ErrChannel) {
		t.Fatal("replayed command accepted")
	}
}

func TestWrongSessionKeyRejected(t *testing.T) {
	h := NewController([]byte("other-key"))
	e := NewEndpoint(key)
	if _, err := e.Receive(h.Issue(sampleCommand())); !errors.Is(err, ErrChannel) {
		t.Fatal("foreign-key command accepted")
	}
}

func TestMalformedPayloadRejected(t *testing.T) {
	e := NewEndpoint(key)
	short := []byte{1, 2, 3}
	m := newSessionMAC(key)
	p := Packet{Payload: short, Tag: m.tag(short)}
	if _, err := e.Receive(p); !errors.Is(err, ErrChannel) {
		t.Fatal("malformed payload accepted")
	}
}

// Property: encode/decode round-trips arbitrary commands.
func TestEncodeDecodeProperty(t *testing.T) {
	f := func(seq uint64, li uint32, c, h, w, k, r, s, stride uint8,
		valid bool, eta, kappa, rho uint8) bool {
		cmd := Command{
			Seq:        seq,
			LayerIndex: li,
			Layer: workload.Layer{
				Type: workload.Conv,
				C:    int(c) + 1, H: int(h) + 1, W: int(w) + 1, K: int(k) + 1,
				R: int(r) + 1, S: int(s) + 1, Stride: int(stride) + 1, Valid: valid,
			},
			Triplet: pattern.Triplet{Eta: int(eta) + 1, Kappa: int(kappa) + 1, Rho: int(rho) + 1},
		}
		got, err := decode(cmd.encode())
		return err == nil && got == cmd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-byte payload mutation is rejected.
func TestAnyTamperRejectedProperty(t *testing.T) {
	h := NewController(key)
	base := h.Issue(sampleCommand())
	f := func(pos uint16, bit uint8) bool {
		e := NewEndpoint(key)
		p := Packet{Payload: append([]byte(nil), base.Payload...), Tag: base.Tag}
		p.Payload[int(pos)%len(p.Payload)] ^= 1 << (bit % 8)
		_, err := e.Receive(p)
		return errors.Is(err, ErrChannel)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sessionNet() workload.Network {
	return workload.Network{
		Name: "sess",
		Layers: []workload.Layer{
			{Name: "c1", Type: workload.Conv, C: 3, H: 16, W: 16, K: 8, R: 3, S: 3, Stride: 1},
			{Name: "c2", Type: workload.Conv, C: 8, H: 16, W: 16, K: 8, R: 3, S: 3, Stride: 1},
		},
	}
}

func TestRunSessionHonest(t *testing.T) {
	res, err := RunSession(context.Background(), sessionNet(), runner.DefaultConfig(), key, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commands != 2 || res.Cycles == 0 {
		t.Fatalf("session result: %d commands, %d cycles", res.Commands, res.Cycles)
	}
}

func TestRunSessionMITMDetected(t *testing.T) {
	mitm := func(layer int, p *Packet) {
		if layer == 1 {
			p.Payload[30] ^= 0x40 // rewrite the commanded geometry in flight
		}
	}
	if _, err := RunSession(context.Background(), sessionNet(), runner.DefaultConfig(), key, SessionOptions{Intercept: mitm}); !errors.Is(err, ErrChannel) {
		t.Fatalf("MITM not detected: %v", err)
	}
}

// ReplayIntercept lets layer replay's packet through until it has captured
// layer capture's, then substitutes a copy that a later change to the
// captured packet's payload does not reach; other layers pass untouched.
// Through a session the replayed command is refused at layer replay.
func TestReplayIntercept(t *testing.T) {
	h := NewController(key)
	replay := ReplayIntercept(0, 1)
	early := h.Issue(sampleCommand())
	want := early
	want.Payload = append([]byte(nil), early.Payload...)
	replay(1, &early)
	if !bytes.Equal(early.Payload, want.Payload) || early.Tag != want.Tag {
		t.Fatal("replay slot rewritten before any capture")
	}
	first := h.Issue(sampleCommand())
	captured := first
	captured.Payload = append([]byte(nil), first.Payload...)
	replay(0, &first)
	first.Payload[0] ^= 0xff // the copy must not alias the wire packet
	other := h.Issue(sampleCommand())
	otherPayload := append([]byte(nil), other.Payload...)
	replay(2, &other)
	if !bytes.Equal(other.Payload, otherPayload) {
		t.Fatal("a layer outside the attack was rewritten")
	}
	late := h.Issue(sampleCommand())
	replay(1, &late)
	if !bytes.Equal(late.Payload, captured.Payload) || late.Tag != captured.Tag {
		t.Fatal("replay slot does not carry the captured packet")
	}

	_, err := RunSession(context.Background(), sessionNet(), runner.DefaultConfig(), key,
		SessionOptions{Intercept: ReplayIntercept(0, 1)})
	var ce *resilience.ChannelError
	if !errors.As(err, &ce) || ce.Layer != 1 {
		t.Fatalf("replayed command: %v, want a ChannelError at layer 1", err)
	}
}

func TestRunSessionRejectsBadNetwork(t *testing.T) {
	if _, err := RunSession(context.Background(), workload.Network{Name: "empty"}, runner.DefaultConfig(), key, SessionOptions{}); err == nil {
		t.Fatal("invalid network accepted")
	}
}

// TestRunSessionAllocations pins what a warm timing-only session costs on
// the deep benchmark model: the channel's two keyed HMACs, each command's
// payload (allocated once, at its exact length) and the simulation cache's
// key, not a freshly keyed HMAC per tag nor a formatted key.
func TestRunSessionAllocations(t *testing.T) {
	net, err := workload.ResolveShape("MobileNet/8")
	if err != nil {
		t.Fatal(err)
	}
	cfg := runner.DefaultConfig()
	run := func() {
		if _, err := RunSession(context.Background(), net, cfg, key, SessionOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // maps the layers and simulates the point
	if allocs := testing.AllocsPerRun(20, run); allocs > 80 {
		t.Errorf("a MobileNet/8 session makes %.0f allocations, want at most 80", allocs)
	} else {
		t.Logf("a MobileNet/8 session makes %.0f allocations", allocs)
	}
}

// TestResidentSessionAllocations pins what a warm functional MobileNet/8
// session on the resident weight path costs — the path a session-bound
// inference on the server takes: the pooled resident run, the channel and
// one payload per layer command.
func TestResidentSessionAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled run states at random under the race detector")
	}
	net, err := workload.ResolveShape("MobileNet/8")
	if err != nil {
		t.Fatal(err)
	}
	cfg := runner.DefaultConfig()
	in, ws := nn.RandomModel(net, 1)
	res, err := secure.BuildWeightResidency(context.Background(), net, cfg.NPU, cfg.DRAM,
		secure.DefaultSecret, secure.DefaultRandom, ws)
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	run := func() {
		r, err := RunSession(context.Background(), net, cfg, key, SessionOptions{
			Input: in, Weights: res.Weights(), Residency: res, BaseSeq: seq,
		})
		if err != nil || r.Output == nil {
			t.Fatalf("resident session: %v", err)
		}
		seq = r.LastSeq
	}
	run() // builds the pooled run state and grows its slabs
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs > 80 {
		t.Errorf("a resident MobileNet/8 session makes %.0f allocations, want at most 80", allocs)
	} else {
		t.Logf("a resident MobileNet/8 session makes %.0f allocations", allocs)
	}
}

// TestRunSessionRefusesWrongLayer: a command that authenticates and arrives
// in sequence but names another layer than the one about to run — what a
// compromised host library holding the session key could send — is
// refused at that layer, on the timing-only and the functional path, and
// the functional run returns no output.
func TestRunSessionRefusesWrongLayer(t *testing.T) {
	net := sessionNet()
	in, ws := nn.RandomModel(net, 3)
	for _, opts := range []SessionOptions{{}, {Input: in, Weights: ws}} {
		forger := NewController(key) // re-signs every packet, in sequence
		opts.Intercept = func(layer int, p *Packet) {
			c, err := decode(p.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if layer == 1 {
				c.LayerIndex = 0 // layer 1's geometry and triplet, layer 0's index
			}
			*p = forger.Issue(c)
		}
		res, err := RunSession(context.Background(), net, runner.DefaultConfig(), key, opts)
		var ce *resilience.ChannelError
		if !errors.As(err, &ce) || ce.Layer != 1 || !errors.Is(err, ErrChannel) {
			t.Fatalf("functional=%v: wrong-layer command: %v, want a ChannelError at layer 1", opts.Input != nil, err)
		}
		if res.Output != nil {
			t.Fatal("a refused session returned an output")
		}
	}
}
