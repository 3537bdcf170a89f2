// Recovery acceptance tests: the executor's layer-level detect-and-recover
// loop against injected faults. External test package so it can use the
// fault injectors (package fault imports secure for its campaign runner).
package secure_test

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"seculator/internal/fault"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/resilience"
	"seculator/internal/secure"
	"seculator/internal/workload"
)

func twoConvNet() workload.Network {
	return workload.Network{
		Name: "recovery",
		Layers: []workload.Layer{
			{Name: "c1", Type: workload.Conv, C: 2, H: 8, W: 8, K: 4, R: 3, S: 3, Stride: 1},
			{Name: "c2", Type: workload.Conv, C: 4, H: 8, W: 8, K: 4, R: 3, S: 3, Stride: 1},
		},
	}
}

func modelAndGolden(t *testing.T, net workload.Network, seed int64) (*nn.Tensor, []*nn.Weights, *nn.Tensor) {
	t.Helper()
	in, ws := nn.RandomModel(net, seed)
	golden, err := nn.ForwardNetwork(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	return in, ws, golden
}

// armedFlip flips a single bit on the first read observed after Arm() —
// the deterministic "one transient upset mid-layer" fault.
type armedFlip struct {
	armed bool
	fired bool
}

func (f *armedFlip) Arm() { f.armed = true }

func (f *armedFlip) OnRead(_ uint64, data []byte) {
	if !f.armed || f.fired {
		return
	}
	data[0] ^= 0x01
	f.fired = true
}

func (f *armedFlip) OnWrite(uint64, []byte) {}

// TestSingleBitFlipRecovered is the headline acceptance test: a single bit
// flip injected mid-network (on the first DRAM read after layer 0
// completes — a first-read of layer 0's outputs or a layer-1 weight fetch)
// is caught by the XOR-MAC check, the layer is re-executed, and the final
// output is bit-identical to the unprotected reference.
func TestSingleBitFlipRecovered(t *testing.T) {
	net := twoConvNet()
	in, ws, golden := modelAndGolden(t, net, 3)

	inj := &armedFlip{}
	x := secure.NewExecutor()
	x.Injector = inj
	x.AfterPhase = func(phase int, _ *mem.DRAM) {
		if phase == 0 {
			inj.Arm()
		}
	}
	res, err := x.Run(context.Background(), net, in, ws)
	if err != nil {
		t.Fatalf("recoverable transient aborted the run: %v", err)
	}
	if !inj.fired {
		t.Fatal("injector never fired; test exercised nothing")
	}
	if res.Recovery.Recovered != 1 || res.Recovery.Retries < 1 {
		t.Fatalf("recovery stats %+v, want exactly one recovered layer", res.Recovery)
	}
	if res.Recovery.Breached || res.Recovery.Persistent != 0 {
		t.Fatalf("transient flip latched a breach: %+v", res.Recovery)
	}
	if !res.Output.Equal(golden) {
		t.Fatal("recovered output differs from the reference")
	}
}

// TestParallelSingleBitFlipRecovered: layer-level detect-and-recover holds
// with several runs in flight at once over several Ps — each run, with its
// own executor and injector, re-executes its corrupted layer and returns the
// reference output.
func TestParallelSingleBitFlipRecovered(t *testing.T) {
	net := twoConvNet()
	in, ws, golden := modelAndGolden(t, net, 3)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))

	const runs = 4
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inj := &armedFlip{}
			x := secure.NewExecutor()
			x.Injector = inj
			x.AfterPhase = func(phase int, _ *mem.DRAM) {
				if phase == 0 {
					inj.Arm()
				}
			}
			res, err := x.Run(context.Background(), net, in, ws)
			switch {
			case err != nil:
				t.Errorf("run %d: recoverable transient aborted the run: %v", i, err)
			case !inj.fired:
				t.Errorf("run %d: injector never fired; test exercised nothing", i)
			case res.Recovery.Recovered != 1:
				t.Errorf("run %d: recovery stats %+v, want one recovered layer", i, res.Recovery)
			case !res.Output.Equal(golden):
				t.Errorf("run %d: recovered output differs from the reference", i)
			}
		}()
	}
	wg.Wait()
}

// spliceServe persistently serves the ciphertext of the first activation
// line written after Arm() on reads of the second — a cross-address splice
// on the pins. Re-fetching re-observes the same forged data, so recovery
// must classify it persistent and abort with a freshness violation.
type spliceServe struct {
	armed   bool
	src     []byte
	srcAddr uint64
	dstAddr uint64
	haveDst bool
	served  int
}

func (f *spliceServe) Arm() { f.armed = true }

func (f *spliceServe) OnWrite(addr uint64, data []byte) {
	if !f.armed {
		return
	}
	if f.src == nil {
		f.src = append([]byte(nil), data...)
		f.srcAddr = addr
		return
	}
	if !f.haveDst && addr != f.srcAddr {
		f.dstAddr = addr
		f.haveDst = true
	}
}

func (f *spliceServe) OnRead(addr uint64, data []byte) {
	if f.haveDst && addr == f.dstAddr {
		copy(data, f.src)
		f.served++
	}
}

// TestPersistentSpliceAbortsWithFreshnessError: a persistently spliced
// activation line defeats every retry, so the run must abort with a typed
// FreshnessError, the breach latched and the violation marked persistent.
func TestPersistentSpliceAbortsWithFreshnessError(t *testing.T) {
	net := twoConvNet()
	in, ws, _ := modelAndGolden(t, net, 5)

	inj := &spliceServe{}
	x := secure.NewExecutor()
	x.Injector = inj
	x.AfterPhase = func(phase int, _ *mem.DRAM) {
		if phase == -1 {
			inj.Arm() // capture layer-0 activation writes, not host loads
		}
	}
	res, err := x.Run(context.Background(), net, in, ws)
	if err == nil {
		t.Fatal("persistent splice completed without error")
	}
	if inj.served == 0 {
		t.Fatal("splice never served forged data; test exercised nothing")
	}
	var fe *resilience.FreshnessError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want FreshnessError", err)
	}
	if fe.Tensor != resilience.ClassActivation {
		t.Fatalf("freshness violation on %v, want the activation path", fe.Tensor)
	}
	var ie *resilience.IntegrityError
	if !errors.As(err, &ie) || !ie.Persistent {
		t.Fatalf("underlying integrity error not marked persistent: %v", err)
	}
	if !res.Recovery.Breached || res.Recovery.Persistent != 1 {
		t.Fatalf("breach not latched: %+v", res.Recovery)
	}
	if res.Recovery.Retries != x.Retry.MaxRetries {
		t.Fatalf("%d retries before aborting, want the policy's %d",
			res.Recovery.Retries, x.Retry.MaxRetries)
	}
	if resilience.Retryable(err) {
		t.Fatal("terminal freshness error reported as retryable")
	}
}

// TestDisabledPolicyAbortsFirstDetection: the zero policy turns every
// detection terminal — no retries are spent before aborting.
func TestDisabledPolicyAbortsFirstDetection(t *testing.T) {
	net := twoConvNet()
	in, ws, _ := modelAndGolden(t, net, 5)

	inj := &spliceServe{}
	x := secure.NewExecutor()
	x.Injector = inj
	x.Retry = resilience.Disabled()
	x.AfterPhase = func(phase int, _ *mem.DRAM) {
		if phase == -1 {
			inj.Arm()
		}
	}
	res, err := x.Run(context.Background(), net, in, ws)
	if err == nil {
		t.Fatal("detection with recovery disabled completed without error")
	}
	if res.Recovery.Retries != 0 {
		t.Fatalf("disabled policy spent %d retries", res.Recovery.Retries)
	}
	if !res.Recovery.Breached {
		t.Fatal("breach not latched")
	}
}

// TestBitFlipStormNoSilentCorruption: seeded random bit-flip storms across
// several seeds; whatever the injector hits, a run that completes must be
// bit-identical to the reference — detection has no false negatives.
func TestBitFlipStormNoSilentCorruption(t *testing.T) {
	net := twoConvNet()
	in, ws, golden := modelAndGolden(t, net, 9)

	outcomes := 0
	for seed := int64(1); seed <= 6; seed++ {
		inj := fault.NewBitFlip(0.002, seed)
		x := secure.NewExecutor()
		x.Injector = inj
		res, err := x.Run(context.Background(), net, in, ws)
		if err != nil {
			var fe *resilience.FreshnessError
			var ie *resilience.IntegrityError
			if !errors.As(err, &fe) && !errors.As(err, &ie) {
				t.Fatalf("seed %d: abort outside the taxonomy: %v", seed, err)
			}
			outcomes++
			continue
		}
		if !res.Output.Equal(golden) {
			t.Fatalf("seed %d: %d flips injected, run completed with corrupted output",
				seed, inj.Injected())
		}
		if inj.Injected() > 0 {
			outcomes++
		}
	}
	if outcomes == 0 {
		t.Fatal("no storm seed delivered a fault; raise the rate")
	}
}

// TestRunNoPanicEscapes: a nil input tensor would panic inside the loader;
// the public API must convert it into a typed InternalError instead.
func TestRunNoPanicEscapes(t *testing.T) {
	net := twoConvNet()
	_, ws := nn.RandomModel(net, 1)
	_, err := secure.NewExecutor().Run(context.Background(), net, nil, ws)
	if err == nil {
		t.Fatal("nil input accepted")
	}
	var ie *resilience.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("got %v, want InternalError from the panic backstop", err)
	}
}

func TestRunCancelled(t *testing.T) {
	net := twoConvNet()
	in, ws := nn.RandomModel(net, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := secure.NewExecutor().Run(ctx, net, in, ws)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestRunCancelledDuringRecovery: retries run back to back, so ctx is the
// only thing that can stop a recovery short. A hook that flips a bit of the
// final output after the last layer and cancels the run makes the readout's
// check fail; the run must return the context's error instead of
// re-reading, and latch no breach.
func TestRunCancelledDuringRecovery(t *testing.T) {
	net := twoConvNet()
	in, ws := nn.RandomModel(net, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var final secure.Region
	x := secure.NewExecutor()
	x.OnPlan = func(pi secure.PlanInfo) { final = pi.Final() }
	x.AfterPhase = func(phase int, d *mem.DRAM) {
		if phase == len(net.Layers)-1 {
			if !d.Tamper(final.Base, 0, 0x01) {
				t.Error("final output block not written")
			}
			cancel()
		}
	}
	res, err := x.Run(ctx, net, in, ws)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if res.Recovery.Retries > 1 || res.Recovery.Persistent != 0 || res.Recovery.Breached {
		t.Fatalf("recovery stats %+v: want the run stopped before a further attempt", res.Recovery)
	}
}
