package secure_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"seculator/internal/conformance"
	"seculator/internal/dataflow"
	"seculator/internal/nn"
	"seculator/internal/pattern"
	"seculator/internal/resilience"
	"seculator/internal/sched"
	"seculator/internal/secure"
	"seculator/internal/workload"
)

// TestUnitVNsMatchTrace: the executor draws every VN from the paper's state
// machine (vngen.LayerUnit), and the tile-event trace's Event.VN is only
// its witness. The two must agree on every ofmap write and partial-sum read
// — and the unit's ifmap VN must be the producer's final version — for
// Mini, MobileNet/8 and the conformance generator's seeded configs, at the
// default global buffer and at 512 B, where mappings write partial sums.
func TestUnitVNsMatchTrace(t *testing.T) {
	nets := map[string]workload.Network{}
	for seed := int64(1); seed <= 200; seed++ {
		nets[fmt.Sprintf("conformance seed %d", seed)] = conformance.Generate(seed).Net.Network()
	}
	for _, shape := range []string{"Mini", "MobileNet/8"} {
		net, err := workload.ResolveShape(shape)
		if err != nil {
			t.Fatal(err)
		}
		nets[shape] = net
	}
	mapped, writes, partials := 0, 0, 0
	for _, buffer := range []int{0, 512} {
		x := secure.NewExecutor()
		if buffer != 0 {
			x.NPU.GlobalBufferBytes = buffer
		}
		for name, net := range nets {
			if net.Validate() != nil {
				continue
			}
			if _, err := sched.MapNetworkCached(net, x.NPU, x.DRAM); err != nil {
				continue // unmappable at this buffer: the executor refuses it too
			}
			w, p, err := secure.UnitVNs(x, net)
			if err != nil {
				t.Fatalf("%s, buffer %d: %v", name, buffer, err)
			}
			mapped, writes, partials = mapped+1, writes+w, partials+p
		}
	}
	if partials == 0 {
		t.Fatal("no partial-sum read was compared: the test never left output-stationary mappings")
	}
	t.Logf("%d mapped networks: %d ofmap writes and %d partial-sum reads, unit VN = trace VN on each", mapped, writes, partials)
}

// forgedAt is a command source standing for a compromised host that holds
// the session key, so its commands authenticate and no channel check
// stands between it and the executor: it delivers the planned write triplet
// for every layer but one, and a forged one there.
type forgedAt struct {
	layer  int
	forged pattern.Triplet
}

func (f forgedAt) Command(i int, planned sched.Choice) (pattern.Triplet, error) {
	if i == f.layer {
		return f.forged, nil
	}
	return dataflow.DeriveWrite(planned.Mapping), nil
}

// TestForgedTripletDetected: with the channel's triplet check bypassed, a
// forged write triplet at layer i makes the executor write layer i under
// VNs its readers do not ask for. The run must fail with a typed integrity
// or freshness error at layer i or i+1 and return no output — for every
// layer of Mini, and of a generated network whose middle layer writes
// partial sums at a 1 KiB global buffer, and for forgeries that move the
// final VN, reshape the sequence or shorten it. A forged sequence longer
// than the layer's writes fails the layer-completion condition
// (vngen.LayerUnit.Done) instead: a ChannelError at layer i, never retried
// — even one that agrees with the plan on every VN the layer uses.
func TestForgedTripletDetected(t *testing.T) {
	mini, err := workload.ResolveShape("Mini")
	if err != nil {
		t.Fatal(err)
	}
	ramped := conformance.Generate(21).Net.Network()
	partialSums := 0
	for _, c := range []struct {
		net    workload.Network
		buffer int
	}{{mini, 0}, {ramped, 0}, {ramped, 1024}} {
		in, ws := nn.RandomModel(c.net, 4)
		x := secure.NewExecutor()
		if c.buffer != 0 {
			x.NPU.GlobalBufferBytes = c.buffer
		}
		x.Retry = resilience.Policy{MaxRetries: 1}
		choices, err := sched.MapNetworkCached(c.net, x.NPU, x.DRAM)
		if err != nil {
			t.Fatal(err)
		}
		for i, ch := range choices {
			w := dataflow.DeriveWrite(ch.Mapping)
			if w.Kappa > 1 {
				partialSums++
			}
			for _, forged := range []pattern.Triplet{
				{Eta: w.Eta, Kappa: w.Kappa + 1, Rho: w.Rho},           // final VN one higher
				{Eta: 1, Kappa: w.Eta * w.Kappa, Rho: w.Rho},           // every write a new VN
				{Eta: w.Eta * w.Kappa * w.Rho, Kappa: 1, Rho: 1},       // every write at VN 1
				{Eta: w.Eta*w.Kappa*w.Rho - 1, Kappa: w.Kappa, Rho: 1}, // a sequence shorter than the layer
				{Eta: w.Eta, Kappa: w.Kappa, Rho: w.Rho + 1},           // the planned VNs, then more
			} {
				if forged == w || !forged.Valid() {
					continue
				}
				x.Commands = forgedAt{layer: i, forged: forged}
				res, err := x.Run(context.Background(), c.net, in, ws)
				if res.Output != nil {
					t.Fatalf("%s, buffer %d, layer %d: a run on a forged triplet returned an output", c.net.Name, c.buffer, i)
				}
				if forged.Eta*forged.Kappa*forged.Rho > w.Eta*w.Kappa*w.Rho {
					var ce *resilience.ChannelError
					if !errors.As(err, &ce) || ce.Layer != i || resilience.Retryable(err) || res.Recovery.Recovered != 0 {
						t.Fatalf("%s, buffer %d, layer %d, triplet %v forged as %v: got %v (recovery %+v), want an unretried ChannelError at layer %d",
							c.net.Name, c.buffer, i, w, forged, err, res.Recovery, i)
					}
					continue
				}
				var ie *resilience.IntegrityError
				var fe *resilience.FreshnessError
				layer := -1
				switch {
				case errors.As(err, &fe):
					layer = fe.Layer
				case errors.As(err, &ie):
					layer = ie.Layer
				}
				if layer != i && layer != i+1 {
					t.Fatalf("%s, buffer %d, layer %d, triplet %v forged as %v: got %v, want an integrity or freshness error at layer %d or %d",
						c.net.Name, c.buffer, i, w, forged, err, i, i+1)
				}
			}
		}
	}
	if partialSums == 0 {
		t.Fatal("no layer wrote partial sums: the test never forged a ramp")
	}
}
