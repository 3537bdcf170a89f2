package seculator

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/protect"
	"seculator/internal/secure"
	"seculator/internal/workload"
)

func demoNet() Network {
	return Network{
		Name: "demo",
		Layers: []Layer{
			{Name: "c1", Type: Conv, C: 3, H: 12, W: 12, K: 8, R: 3, S: 3, Stride: 1},
			{Name: "p1", Type: Pool, C: 8, H: 12, W: 12, K: 8, R: 2, S: 2, Stride: 2, Valid: true},
			{Name: "fc", Type: FC, C: 8 * 6 * 6, H: 1, W: 1, K: 4, R: 1, S: 1, Stride: 1},
		},
	}
}

func TestSecureInferenceEquivalence(t *testing.T) {
	net := demoNet()
	in, ws := RandomModel(net, 99)
	golden, err := ReferenceInference(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SecureInferenceContext(context.Background(), net, in, ws, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(golden) {
		t.Fatal("secure inference diverged from reference")
	}
}

func TestSecureInferenceDetectsHookTamper(t *testing.T) {
	net := demoNet()
	in, ws := RandomModel(net, 99)
	_, err := SecureInferenceContext(context.Background(), net, in, ws, InferenceOptions{Hook: func(phase int, d *DRAM) {
		if phase == 0 {
			var last uint64
			for addr := uint64(0); addr < 100000; addr++ {
				if d.Peek(addr) != nil {
					last = addr
				}
			}
			d.Tamper(last, 1, 0x10)
		}
	}})
	if !errors.Is(err, mac.ErrIntegrity) {
		t.Fatalf("hook tamper not detected: %v", err)
	}
}

func TestTransformerSurface(t *testing.T) {
	net, err := Transformer(TinyTransformer())
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunAllContext(context.Background(), net, []Design{Baseline, TNPU, Seculator}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := results[0]
	if !(results[2].Performance(base) > results[1].Performance(base)) {
		t.Fatal("Seculator must beat TNPU on the transformer too")
	}
	if _, err := Transformer(TransformerConfig{}); err == nil {
		t.Fatal("invalid transformer config accepted")
	}
	if n, err := NetworkByName("TinyTransformer"); err != nil || len(n.Layers) == 0 {
		t.Fatalf("ByName transformer lookup: %v", err)
	}
}

func TestCaptureTraceSurface(t *testing.T) {
	tr, err := CaptureTraceContext(context.Background(), demoNet(), Baseline, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 || tr.InferredLayerCount() != len(demoNet().Layers) {
		t.Fatalf("trace: %s", tr.Summary())
	}
}

func TestDetectionMatrixSurface(t *testing.T) {
	cells, err := DetectionMatrixContext(context.Background(), DefaultAttackScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 5*6 {
		t.Fatalf("matrix cells = %d, want 30", len(cells))
	}
	for _, c := range cells {
		if c.Design == Baseline && c.Detected {
			t.Fatal("baseline cell detected an attack")
		}
		if c.Design != Baseline && c.Attack != 0 && !c.Detected {
			t.Fatalf("%s/%s undetected", c.Design, c.Attack)
		}
	}
	tbl, err := DetectionMatrixTable(DefaultAttackScenario())
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.String()
	if !strings.Contains(s, "SILENT-CORRUPT") || !strings.Contains(s, "DETECTED") {
		t.Fatalf("matrix table malformed:\n%s", s)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("matrix rows = %d", len(tbl.Rows))
	}
}

func TestNoiseScheduleSurface(t *testing.T) {
	victim := demoNet()
	dummy, err := DummyNetwork("noise", 2, 8, 8, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := IntersperseDummy(victim, dummy, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLayerScheduleContext(context.Background(), "noisy", sched, SeculatorPlus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	clean, err := RunContext(context.Background(), victim, SeculatorPlus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= clean.Cycles {
		t.Fatal("noise injection must cost cycles")
	}
	tr, err := CaptureLayerTrace("noisy", sched, SeculatorPlus, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if tr.InferredLayerCount() <= len(victim.Layers) {
		t.Fatalf("noise did not inflate inferred depth: %d", tr.InferredLayerCount())
	}
}

func TestPreprocSurface(t *testing.T) {
	pp, err := PreprocPipeline(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunAllContext(context.Background(), pp, []Design{Baseline, Seculator}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p := results[1].Performance(results[0]); p <= 0.9 {
		t.Fatalf("Seculator on preprocessing should be near-free, got %.3f", p)
	}
	if _, err := PreprocStage("s", PreprocStyle2, 3, 16, 16, 1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestGANSurface(t *testing.T) {
	net, err := GANGenerator(TinyGAN())
	if err != nil {
		t.Fatal(err)
	}
	in, ws := RandomModel(net, 3)
	golden, err := ReferenceInference(net, in, ws)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SecureInferenceContext(context.Background(), net, in, ws, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Output.Equal(golden) {
		t.Fatal("GAN secure inference diverged")
	}
	if _, err := Deconv("d", 4, 8, 8, 2, 3, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := GANGenerator(GANGeneratorConfig{}); err == nil {
		t.Fatal("invalid GAN config accepted")
	}
}

func TestEnergySurface(t *testing.T) {
	tbl, err := EnergyTable(demoNet(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("energy rows = %d", len(tbl.Rows))
	}
	if m := DefaultEnergyModel(); m.DRAMBlockNJ <= 0 {
		t.Fatal("default energy model degenerate")
	}
}

func TestSweepSurface(t *testing.T) {
	cfg := DefaultConfig()
	net := demoNet()
	res, err := SweepBandwidthContext(context.Background(), net, cfg, []float64{0.11, 0.44})
	if err != nil {
		t.Fatal(err)
	}
	tbl := SweepTable(res)
	if len(tbl.Rows) != 2 || len(tbl.Header) != 6 {
		t.Fatalf("sweep table shape: %dx%d", len(tbl.Rows), len(tbl.Header))
	}
	if _, err := SweepGlobalBufferContext(context.Background(), net, cfg, []int{240}); err != nil {
		t.Fatal(err)
	}
	if _, err := SweepPEArrayContext(context.Background(), net, cfg, []int{16}); err != nil {
		t.Fatal(err)
	}
	if _, err := SweepMACCacheContext(context.Background(), net, cfg, []int{8}); err != nil {
		t.Fatal(err)
	}
}

func TestHostChannelSurface(t *testing.T) {
	key := []byte("k0")
	h := NewHostController(key)
	e := NewNPUEndpoint(key)
	cmd := HostCommand{
		LayerIndex: 1,
		Layer:      Layer{Type: Conv, C: 3, H: 8, W: 8, K: 4, R: 3, S: 3, Stride: 1},
		Triplet:    Triplet{Eta: 1, Kappa: 2, Rho: 3},
	}
	got, err := e.Receive(h.Issue(cmd))
	if err != nil || got.Triplet != cmd.Triplet {
		t.Fatalf("channel round trip: %v %+v", err, got)
	}
	p := h.Issue(cmd)
	p.Payload[0] ^= 1
	if _, err := e.Receive(p); err == nil {
		t.Fatal("tampered command accepted")
	}
	if !e.Breached() {
		t.Fatal("breach not latched")
	}
}

func TestPlanDefenceSurface(t *testing.T) {
	p, err := PlanDefenceContext(context.Background(), demoNet(), DefaultConfig(), 0.3, 30, DefaultDefenceOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.Leakage < 0.3 || p.Overhead <= 0 {
		t.Fatalf("bad plan: %+v", p)
	}
}

// TestOutputMACPinned pins the stored format end to end: the final XOR-MAC
// of a protected run depends on every counter, every pad, every block MAC
// and every decoded weight, so a kernel that changed any of them — even
// consistently, which round-trip and serial/parallel tests cannot see —
// moves it. Both digests were captured at commit 6bb79bf, before the inner
// kernels were rewritten. Each arm runs twice: the second run takes pooled,
// scrubbed run state.
func TestOutputMACPinned(t *testing.T) {
	for _, tc := range []struct {
		shape     string
		blocks    int
		outputMAC string
	}{
		{"MobileNet/8", 7997, "94b5bd3f7b1fbbf5c96e74dc4769581a0f686c81af064355cca58331e269ea01"},
		{"Mini", 734, "2077231ddd33ca24a1a5d61dbcaa47c424a57fb5e5c4ea8f05b959a310931b51"},
	} {
		net, err := workload.ResolveShape(tc.shape)
		if err != nil {
			t.Fatal(err)
		}
		in, ws := RandomModel(net, 1)
		x := secure.NewExecutor()
		arms := map[string]func() (InferenceResult, error){
			"SecureInferenceContext": func() (InferenceResult, error) {
				return SecureInferenceContext(context.Background(), net, in, ws, InferenceOptions{})
			},
			"Executor.Run": func() (InferenceResult, error) {
				return x.Run(context.Background(), net, in, ws)
			},
		}
		for name, run := range arms {
			for pass := 0; pass < 2; pass++ {
				res, err := run()
				if err != nil {
					t.Fatalf("%s, %s: %v", tc.shape, name, err)
				}
				if got := fmt.Sprintf("%x", res.OutputMAC[:]); res.Blocks != tc.blocks || got != tc.outputMAC {
					t.Errorf("%s, %s, pass %d: Blocks %d OutputMAC %s, want %d %s",
						tc.shape, name, pass, res.Blocks, got, tc.blocks, tc.outputMAC)
				}
			}
		}
	}
}

// TestBlockCountsPinned pins what the executor says it moved (Result.Counts),
// beside the digests above: a change may make a block cheaper, but how many
// of each class a mapping moves is the model — the counts the simulator's
// traffic and ROADMAP 2a's oracle are to be held against. The default run
// (loader, pooled) and a hooked run (model loaded up front, fresh state) must
// report the same, and a hooked run's DRAM must have recorded exactly the
// reads and writes the counts sum to. A resident run reads no weight and
// host-writes only the input. Beside the counts, Result.Keystream: a clean
// run computes one CTR pad per block written, and every decrypting read
// reuses the pad its line's write computed; on the loader arms the loader
// computed the pads of every layer whose lines are written once ahead of
// the loop (Keystream.Ahead, a share of Computed), and no other arm pads
// ahead. And Result.Hashing: a clean run
// hashes the MAC of every ofmap write (Loop) and takes every read's from
// the memo (Reused); the two sum to the MACs
// the run hashed before reads took recorded ones (macs), which no arm moves.
func TestBlockCountsPinned(t *testing.T) {
	type macSplit struct{ hashed, reused, macs int }
	for _, tc := range []struct {
		shape        string
		globalBuffer int // 0: the default
		want         protect.BlockCounts
		pads         protect.Keystreams
		full, res    macSplit // the full arms, and the resident one
		ahead        int      // Keystream.Ahead on the loader arms
	}{
		{"Mini", 0, protect.BlockCounts{IfmapFirst: 334, IfmapRepeat: 480, WeightFirst: 400, OfmapWrites: 298, HostWrites: 436},
			protect.Keystreams{Computed: 734, Reused: 734}, macSplit{298, 734, 1032}, macSplit{298, 334, 632}, 298},
		{"Mini", 2048, protect.BlockCounts{IfmapFirst: 334, IfmapRepeat: 1776, WeightFirst: 784, WeightRepeat: 184, OfmapWrites: 298, HostWrites: 820},
			protect.Keystreams{Computed: 1118, Reused: 1782}, macSplit{298, 1598, 1896}, macSplit{298, 814, 1112}, 298},
		{"MobileNet/8", 0, protect.BlockCounts{IfmapFirst: 3293, WeightFirst: 4704, OfmapWrites: 3237, HostWrites: 4760},
			protect.Keystreams{Computed: 7997, Reused: 7997}, macSplit{3237, 7997, 11234}, macSplit{3237, 3293, 6530}, 3237},
	} {
		net, err := workload.ResolveShape(tc.shape)
		if err != nil {
			t.Fatal(err)
		}
		in, ws := RandomModel(net, 1)
		executor := func() *secure.Executor {
			x := secure.NewExecutor()
			if tc.globalBuffer != 0 {
				x.NPU.GlobalBufferBytes = tc.globalBuffer
			}
			return x
		}
		check := func(name string, x *secure.Executor, want protect.BlockCounts, pads protect.Keystreams, macs macSplit, ahead int) protect.BlockCounts {
			t.Helper()
			res, err := x.Run(context.Background(), net, in, ws)
			if err != nil {
				t.Fatalf("%s (buffer %d), %s: %v", tc.shape, tc.globalBuffer, name, err)
			}
			pads.Ahead = ahead
			if res.Counts != want || res.Keystream != pads || res.Keystream.Computed != res.Counts.Writes() {
				t.Errorf("%s (buffer %d), %s: %+v and pads %+v, want %+v and %+v",
					tc.shape, tc.globalBuffer, name, res.Counts, res.Keystream, want, pads)
			}
			h := res.Hashing
			if got := (macSplit{h.Loop, h.Reused, h.Loop + h.Reused}); got != macs {
				t.Errorf("%s (buffer %d), %s: MACs hashed / reused / in all %v, want %v", tc.shape, tc.globalBuffer, name, got, macs)
			}
			return res.Counts
		}
		x := executor()
		for pass := 0; pass < 2; pass++ { // the second pass rides pooled state
			check(fmt.Sprintf("loader, pass %d", pass), x, tc.want, tc.pads, tc.full, tc.ahead)
		}
		var dram *mem.DRAM
		x.AfterPhase = func(_ int, d *mem.DRAM) { dram = d }
		got := check("hooked", x, tc.want, tc.pads, tc.full, 0)
		tr := dram.Traffic()
		if r, w := tr.ReadBlocks[0], tr.WriteBlocks[0]; r != uint64(got.Reads()) || w != uint64(got.Writes()) || tr.Overhead() != 0 {
			t.Errorf("%s (buffer %d), hooked: DRAM recorded %d reads / %d writes / %d overhead, counts sum to %d / %d / 0",
				tc.shape, tc.globalBuffer, r, w, tr.Overhead(), got.Reads(), got.Writes())
		}

		x = executor()
		x.Residency, err = secure.BuildWeightResidency(context.Background(), net, x.NPU, x.DRAM, x.Secret, x.Random, ws)
		if err != nil {
			t.Fatal(err)
		}
		// These mappings read every weight block they store, so WeightFirst is
		// also the weight share of the host writes; the rest is the input.
		// Neither the installed weights nor their skipped reads use a pad.
		want, pads := tc.want, tc.pads
		want.HostWrites -= want.WeightFirst
		pads.Computed -= want.WeightFirst
		pads.Reused -= want.WeightFirst + want.WeightRepeat
		want.WeightFirst, want.WeightRepeat = 0, 0
		check("resident", x, want, pads, tc.res, 0)
	}
}
