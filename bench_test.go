package seculator

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see the experiment index in DESIGN.md) and adds the ablation
// studies DESIGN.md calls out. Results are reported as custom benchmark
// metrics so `go test -bench=. -benchmem` prints the reproduced numbers
// next to the runtime cost of producing them.

import (
	"context"
	"runtime"
	"testing"

	"seculator/internal/crypto"
	"seculator/internal/dataflow"
	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/npu"
	"seculator/internal/protect"
	"seculator/internal/runner"
	"seculator/internal/secure"
	"seculator/internal/sim"
	"seculator/internal/tensor"
	"seculator/internal/vngen"
	"seculator/internal/workload"
)

// ---------------------------------------------------------------- figures

// BenchmarkFig4Characterization regenerates Figure 4: Baseline vs Secure vs
// TNPU vs GuardNN performance across the five CNNs.
func BenchmarkFig4Characterization(b *testing.B) {
	cfg := DefaultConfig()
	var res CharacterizationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Fig4Characterization(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	report := func(d Design) float64 {
		var sum float64
		var n int
		for _, p := range res.Points {
			if p.Design == d {
				sum += p.Performance
				n++
			}
		}
		return sum / float64(n)
	}
	b.ReportMetric(report(Secure), "secure-perf")
	b.ReportMetric(report(TNPU), "tnpu-perf")
	b.ReportMetric(report(GuardNN), "guardnn-perf")
}

// BenchmarkFig5CacheMissRates regenerates Figure 5: MAC-cache vs
// counter-cache miss rates of the Secure configuration.
func BenchmarkFig5CacheMissRates(b *testing.B) {
	cfg := DefaultConfig()
	var res CharacterizationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Fig4Characterization(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var macSum, ctrSum float64
	for _, n := range workload.All() {
		macSum += res.MACMissRate[n.Name]
		ctrSum += res.CounterMissRate[n.Name]
	}
	b.ReportMetric(macSum/5, "mac-missrate")
	b.ReportMetric(ctrSum/5, "ctr-missrate")
}

// BenchmarkFig7Performance regenerates Figure 7: normalized performance of
// all six designs, and the headline Seculator-over-TNPU speedup.
func BenchmarkFig7Performance(b *testing.B) {
	cfg := DefaultConfig()
	var res EvaluationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Fig7Performance(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Mean(Seculator, false), "seculator-perf")
	b.ReportMetric(res.Mean(TNPU, false), "tnpu-perf")
	b.ReportMetric((res.Mean(Seculator, false)/res.Mean(TNPU, false)-1)*100, "speedup-vs-tnpu-%")
	b.ReportMetric((res.Mean(Seculator, false)/res.Mean(GuardNN, false)-1)*100, "speedup-vs-guardnn-%")
}

// BenchmarkFig8Traffic regenerates Figure 8: normalized DRAM traffic.
func BenchmarkFig8Traffic(b *testing.B) {
	cfg := DefaultConfig()
	var res EvaluationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Fig7Performance(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Mean(TNPU, true), "tnpu-traffic")
	b.ReportMetric(res.Mean(GuardNN, true), "guardnn-traffic")
	b.ReportMetric(res.Mean(Seculator, true), "seculator-traffic")
}

// BenchmarkFig9Widening regenerates Figure 9: layer-widening latency
// scaling from 32x32x3 to 192x192x3 across designs.
func BenchmarkFig9Widening(b *testing.B) {
	cfg := DefaultConfig()
	var res WideningResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Fig9Widening(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Growth(Seculator), "seculator-192")
	b.ReportMetric(res.Growth(TNPU), "tnpu-192")
	b.ReportMetric(res.Growth(GuardNN), "guardnn-192")
}

// ----------------------------------------------------------------- tables

// BenchmarkTable2ConvPatterns regenerates the conv pattern tables (Tables 2
// and 3): derives, simulates and cross-checks every row.
func BenchmarkTable2ConvPatterns(b *testing.B) {
	benchPatternTable(b, dataflow.ConvTableEntries())
}

// BenchmarkTable4MatmulPatterns regenerates Table 4.
func BenchmarkTable4MatmulPatterns(b *testing.B) {
	benchPatternTable(b, dataflow.MatmulTableEntries())
}

// BenchmarkTable8PreprocPatterns regenerates Tables 8-10.
func BenchmarkTable8PreprocPatterns(b *testing.B) {
	benchPatternTable(b, dataflow.PreprocTableEntries())
}

func benchPatternTable(b *testing.B, entries []dataflow.TableEntry) {
	g := dataflow.GridSpec{
		AlphaHW: 4, AlphaC: 3, AlphaK: 2,
		IfmapTileBlocks: 4, OfmapTileBlocks: 4, WeightTileBlocks: 1,
	}
	verified := 0
	for i := 0; i < b.N; i++ {
		verified = 0
		for _, e := range entries {
			m := e.Build(g)
			wp := dataflow.DeriveWrite(m)
			gen := vngen.New(wp)
			ok := true
			err := dataflow.Generate(m, func(ev dataflow.Event) bool {
				if ev.Tensor == tensor.Ofmap && ev.Kind == sim.Write {
					v, has := gen.Next()
					if !has || v != ev.VN {
						ok = false
						return false
					}
				}
				return true
			})
			if err != nil || !ok {
				b.Fatalf("%s row %d failed verification", e.Table, e.Row)
			}
			verified++
		}
	}
	b.ReportMetric(float64(verified), "rows-verified")
}

// BenchmarkTable5DesignMatrix renders the design feature matrix.
func BenchmarkTable5DesignMatrix(b *testing.B) {
	var t Table
	for i := 0; i < b.N; i++ {
		t = Table5Matrix()
	}
	b.ReportMetric(float64(len(t.Rows)), "designs")
}

// BenchmarkTable6HardwareModel regenerates the hardware-overhead table.
func BenchmarkTable6HardwareModel(b *testing.B) {
	var area, power float64
	for i := 0; i < b.N; i++ {
		area, power = HardwareTotals()
	}
	b.ReportMetric(area, "area-um2")
	b.ReportMetric(power, "power-uW")
}

// -------------------------------------------------------------- ablations

// BenchmarkAblationOverlap quantifies the double-buffering assumption:
// Seculator on ResNet-18 with and without compute/memory overlap.
func BenchmarkAblationOverlap(b *testing.B) {
	overlap := DefaultConfig()
	serial := DefaultConfig()
	serial.NoOverlap = true
	net := workload.ResNet18()
	var ratio float64
	for i := 0; i < b.N; i++ {
		a, err := runner.Run(context.Background(), net, protect.Seculator, overlap)
		if err != nil {
			b.Fatal(err)
		}
		s, err := runner.Run(context.Background(), net, protect.Seculator, serial)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(s.Cycles) / float64(a.Cycles)
	}
	b.ReportMetric(ratio, "serial/overlap")
}

// BenchmarkAblationMACCacheSize sweeps the TNPU MAC cache from 2 KB to
// 64 KB: streaming DNN data defeats caching at every size, the paper's
// argument for abandoning MAC caches entirely.
func BenchmarkAblationMACCacheSize(b *testing.B) {
	net := workload.ResNet18()
	for _, kb := range []int{2, 8, 32, 64} {
		b.Run(formatKB(kb), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Protect.MACCacheBytes = kb * 1024
			var miss float64
			for i := 0; i < b.N; i++ {
				r, err := runner.Run(context.Background(), net, protect.TNPU, cfg)
				if err != nil {
					b.Fatal(err)
				}
				miss = r.MACCache.MissRate()
			}
			b.ReportMetric(miss*100, "mac-miss-%")
		})
	}
}

func formatKB(kb int) string {
	return map[int]string{2: "2KB", 8: "8KB", 32: "32KB", 64: "64KB"}[kb]
}

// BenchmarkAblationVNStorage compares the three VN mechanisms on ResNet-18:
// Seculator's FSM (zero traffic), TNPU's tensor table, and GuardNN's host
// scheduler — isolating the cost of storing versus generating VNs.
func BenchmarkAblationVNStorage(b *testing.B) {
	cfg := DefaultConfig()
	net := workload.ResNet18()
	var fsm, table, host uint64
	for i := 0; i < b.N; i++ {
		rs, err := runner.RunAll(context.Background(), net,
			[]protect.Design{protect.Seculator, protect.TNPU, protect.GuardNN}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		fsm, table, host = uint64(rs[0].Cycles), uint64(rs[1].Cycles), uint64(rs[2].Cycles)
	}
	b.ReportMetric(float64(table)/float64(fsm), "table/fsm")
	b.ReportMetric(float64(host)/float64(fsm), "host/fsm")
}

// BenchmarkAblationIntegrityGranularity compares integrity granularities on
// ResNet-18: per-block uncached (GuardNN), per-block cached (TNPU) and
// per-layer (Seculator), in metadata blocks moved.
func BenchmarkAblationIntegrityGranularity(b *testing.B) {
	cfg := DefaultConfig()
	net := workload.ResNet18()
	var uncached, cached, layer uint64
	for i := 0; i < b.N; i++ {
		rs, err := runner.RunAll(context.Background(), net,
			[]protect.Design{protect.GuardNN, protect.TNPU, protect.Seculator}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		uncached, cached, layer = rs[0].Traffic.Overhead(), rs[1].Traffic.Overhead(), rs[2].Traffic.Overhead()
	}
	b.ReportMetric(float64(uncached), "block-uncached")
	b.ReportMetric(float64(cached), "block-cached")
	b.ReportMetric(float64(layer), "layer")
}

// BenchmarkParallelSpeedup measures the experiment engine's fan-out at one
// worker versus GOMAXPROCS workers. Each iteration resets the simulation
// cache so both arms do the same cold work; on a multi-core host the
// parallel arm's ns/op divided into the serial arm's is the speedup.
func BenchmarkParallelSpeedup(b *testing.B) {
	cfg := DefaultConfig()
	for _, arm := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"gomaxprocs", 0},
	} {
		b.Run(arm.name, func(b *testing.B) {
			SetParallelism(arm.workers)
			defer SetParallelism(0)
			for i := 0; i < b.N; i++ {
				ResetSimCache()
				if _, err := Fig4Characterization(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------------------- microbenchmarks

// BenchmarkVNGenerator measures the FSM's throughput: one VN per Next call.
func BenchmarkVNGenerator(b *testing.B) {
	tr := Triplet{Eta: 16, Kappa: 64, Rho: 1 << 20}
	gen := vngen.New(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := gen.Next(); !ok {
			gen.Reset()
		}
	}
}

// BenchmarkAESCTRBlock measures the functional encryption path per 64-byte
// block.
func BenchmarkAESCTRBlock(b *testing.B) {
	e := crypto.NewCTR(0xfeed, 0xcafe)
	src := make([]byte, tensor.BlockBytes)
	dst := make([]byte, tensor.BlockBytes)
	b.SetBytes(tensor.BlockBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EncryptBlock(dst, src, crypto.Counter{VN: uint32(i), Block: uint32(i)})
	}
}

// BenchmarkXTSBlock measures TNPU's XTS path per block.
func BenchmarkXTSBlock(b *testing.B) {
	e := crypto.NewXTS(1, 2)
	src := make([]byte, tensor.BlockBytes)
	dst := make([]byte, tensor.BlockBytes)
	b.SetBytes(tensor.BlockBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EncryptBlock(dst, src, uint64(i))
	}
}

// BenchmarkBlockMAC measures the SHA-256 block MAC plus register fold.
func BenchmarkBlockMAC(b *testing.B) {
	data := make([]byte, tensor.BlockBytes)
	var reg mac.Register
	b.SetBytes(tensor.BlockBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg.Fold(mac.BlockMAC(mac.BlockRef{Layer: 1, Index: uint32(i)}, data))
	}
}

// BenchmarkDataflowGenerate measures tile-event generation for a large
// conv layer mapping.
func BenchmarkDataflowGenerate(b *testing.B) {
	m := &dataflow.Mapping{
		Name:    "bench",
		Reuse:   dataflow.InputReuse,
		Order:   dataflow.LoopOrder{dataflow.LoopS, dataflow.LoopC, dataflow.LoopK},
		AlphaHW: 56, AlphaC: 16, AlphaK: 16,
		IfmapTileBlocks: 8, OfmapTileBlocks: 8, WeightTileBlocks: 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := dataflow.Generate(m, func(dataflow.Event) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunResNet18 measures one full (network, design) simulation.
func BenchmarkRunResNet18(b *testing.B) {
	cfg := DefaultConfig()
	net := workload.ResNet18()
	for _, d := range []protect.Design{protect.Baseline, protect.Secure, protect.Seculator} {
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := runner.Run(context.Background(), net, d, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ------------------------------------------- functional & extension benches

// BenchmarkSecureInference measures the full functional path — encrypted
// DRAM, per-block AES-CTR + SHA-256, XOR-MAC layer verification — at two
// model scales on fresh executors, verifying equivalence each iteration.
func BenchmarkSecureInference(b *testing.B) {
	small := Network{
		Name: "bench-cnn",
		Layers: []Layer{
			{Name: "c1", Type: Conv, C: 3, H: 16, W: 16, K: 8, R: 3, S: 3, Stride: 1},
			{Name: "p1", Type: Pool, C: 8, H: 16, W: 16, K: 8, R: 2, S: 2, Stride: 2, Valid: true},
			{Name: "fc", Type: FC, C: 8 * 8 * 8, H: 1, W: 1, K: 10, R: 1, S: 1, Stride: 1},
		},
	}
	// deep carries enough blocks per tile that every stage of the pipeline
	// engages: memo-reused reads, MAC-recording writes and overlapped weight
	// loading across its seven layers.
	deep := Network{
		Name: "bench-deep",
		Layers: []Layer{
			{Name: "c1", Type: Conv, C: 3, H: 24, W: 24, K: 16, R: 3, S: 3, Stride: 1},
			{Name: "c2", Type: Conv, C: 16, H: 24, W: 24, K: 16, R: 3, S: 3, Stride: 1},
			{Name: "p1", Type: Pool, C: 16, H: 24, W: 24, K: 16, R: 2, S: 2, Stride: 2, Valid: true},
			{Name: "c3", Type: Conv, C: 16, H: 12, W: 12, K: 32, R: 3, S: 3, Stride: 1},
			{Name: "c4", Type: Conv, C: 32, H: 12, W: 12, K: 32, R: 3, S: 3, Stride: 1},
			{Name: "pw", Type: Pointwise, C: 32, H: 12, W: 12, K: 64, R: 1, S: 1, Stride: 1},
			{Name: "fc", Type: FC, C: 64 * 12 * 12, H: 1, W: 1, K: 10, R: 1, S: 1, Stride: 1},
		},
	}
	for _, bm := range []struct {
		name string
		net  Network
	}{
		{"small", small},
		{"deep", deep},
	} {
		b.Run(bm.name, func(b *testing.B) {
			in, ws := RandomModel(bm.net, 1)
			golden, err := ReferenceInference(bm.net, in, ws)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := secure.NewExecutor().Run(context.Background(), bm.net, in, ws)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Output.Equal(golden) {
					b.Fatal("diverged")
				}
			}
		})
	}
}

// BenchmarkLibDeep is the benchmark's lib-deep operation as a Go benchmark:
// the root SecureInferenceContext on MobileNet/8, one goroutine, output
// checked against the reference model. It exists so the hot path has a
// one-command profile —
//
//	go test -run '^$' -bench LibDeep/loader -benchtime 300x -cpuprofile cpu.prof .
//
// — and so CI's bench smoke prints its B/op (the pooled path's memory
// budget, DESIGN.md §15) on every push. "loader" is the default run (pooled
// state, the model host-written by the loader goroutine while the layers
// execute); "hooked" adds a no-op phase hook, which makes the run load the
// whole model up front on state it builds afresh; "one-cpu" is "loader" at
// GOMAXPROCS=1, where nothing overlaps — so "-bench LibDeep" alone shows
// what the second CPU buys. Result.Hashing says how many reads hashed no MAC
// (reused-macs/op), and Result.Keystream how many output pads the loader
// computed ahead of the loop (ahead-pads/op; none on "hooked", which has no
// loader).
func BenchmarkLibDeep(b *testing.B) {
	net, err := workload.ResolveShape("MobileNet/8")
	if err != nil {
		b.Fatal(err)
	}
	in, ws := RandomModel(net, 1)
	golden, err := ReferenceInference(net, in, ws)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []struct {
		name  string
		opts  InferenceOptions
		procs int // GOMAXPROCS for the arm; 0 leaves it
	}{
		{"loader", InferenceOptions{}, 0},
		{"hooked", InferenceOptions{Hook: func(int, *mem.DRAM) {}}, 0},
		{"one-cpu", InferenceOptions{}, 1},
	} {
		b.Run(arm.name, func(b *testing.B) {
			if arm.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(arm.procs))
			}
			reusedMACs, aheadPads := 0, 0
			run := func() {
				res, err := SecureInferenceContext(context.Background(), net, in, ws, arm.opts)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Output.Equal(golden) {
					b.Fatal("diverged")
				}
				reusedMACs += res.Hashing.Reused
				aheadPads += res.Keystream.Ahead
			}
			run() // builds the pooled run state; every timed loader iteration reuses it
			b.ReportAllocs()
			b.ResetTimer()
			reusedMACs, aheadPads = 0, 0
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(reusedMACs)/float64(b.N), "reused-macs/op")
			b.ReportMetric(float64(aheadPads)/float64(b.N), "ahead-pads/op")
		})
	}
}

// BenchmarkLibMini is BenchmarkLibDeep's counterpart for the small model —
// Mini, what serve-mini, serve-cold, gateway-pair and lib-tamper run — on a
// pooled secure.Executor, the serving tier's inner call:
//
//	go test -run '^$' -bench LibMini/resident -benchtime 3000x -cpuprofile cpu.prof .
//
// "resident" attaches a WeightResidency (serve-mini's hit path: no weight is
// host-written, fetched or MACed, so the ifmap reads and ofmap writes are
// what is left); "full" host-writes and verifies the model on every run.
func BenchmarkLibMini(b *testing.B) {
	net := workload.Mini()
	in, ws := RandomModel(net, 1)
	golden, err := ReferenceInference(net, in, ws)
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []string{"resident", "full"} {
		b.Run(arm, func(b *testing.B) {
			x := secure.NewExecutor()
			if arm == "resident" {
				x.Residency, err = secure.BuildWeightResidency(context.Background(), net, x.NPU, x.DRAM, x.Secret, x.Random, ws)
				if err != nil {
					b.Fatal(err)
				}
			}
			run := func() {
				res, err := x.Run(context.Background(), net, in, ws)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Output.Equal(golden) {
					b.Fatal("diverged")
				}
				if attached := res.Counts.WeightFirst == 0; attached != (arm == "resident") {
					b.Fatalf("%d weight blocks read: the run took the other arm's path", res.Counts.WeightFirst)
				}
			}
			run() // builds the pooled run state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// BenchmarkTransformerEvaluation runs the BERT-base encoder across the
// three headline designs — Table 4's workload class.
func BenchmarkTransformerEvaluation(b *testing.B) {
	net, err := Transformer(BERTBase())
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rs, err := RunAllContext(context.Background(), net, []Design{Baseline, TNPU, Seculator}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		speedup = (rs[2].Performance(rs[0])/rs[1].Performance(rs[0]) - 1) * 100
	}
	b.ReportMetric(speedup, "speedup-vs-tnpu-%")
}

// BenchmarkDetectionMatrix runs the behavioural Table 5 (5 designs x 6
// attacks, functional crypto throughout).
func BenchmarkDetectionMatrix(b *testing.B) {
	var detected int
	for i := 0; i < b.N; i++ {
		cells, err := DetectionMatrixContext(context.Background(), DefaultAttackScenario())
		if err != nil {
			b.Fatal(err)
		}
		detected = 0
		for _, c := range cells {
			if c.Detected {
				detected++
			}
		}
	}
	b.ReportMetric(float64(detected), "detections")
}

// BenchmarkTraceCapture measures address-trace capture and analysis on
// MobileNet.
func BenchmarkTraceCapture(b *testing.B) {
	cfg := DefaultConfig()
	net := workload.MobileNet()
	var entropy float64
	for i := 0; i < b.N; i++ {
		tr, err := CaptureTraceContext(context.Background(), net, Baseline, cfg)
		if err != nil {
			b.Fatal(err)
		}
		entropy = tr.AddressEntropy()
	}
	b.ReportMetric(entropy, "entropy-bits")
}

// BenchmarkEnergyComparison regenerates the energy extension (E17).
func BenchmarkEnergyComparison(b *testing.B) {
	cfg := DefaultConfig()
	net := workload.ResNet18()
	var tbl Table
	var err error
	for i := 0; i < b.N; i++ {
		tbl, err = EnergyTable(net, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tbl.Rows)), "designs")
}

// BenchmarkSensitivityBandwidth regenerates the bandwidth sensitivity sweep
// (E18) and reports the advantage range.
func BenchmarkSensitivityBandwidth(b *testing.B) {
	cfg := DefaultConfig()
	net := workload.ResNet18()
	var lo, hi float64
	for i := 0; i < b.N; i++ {
		res, err := SweepBandwidthContext(context.Background(), net, cfg, []float64{0.11, 0.22, 0.44})
		if err != nil {
			b.Fatal(err)
		}
		lo, hi = res.AdvantageRange()
	}
	b.ReportMetric(lo*100, "min-advantage-%")
	b.ReportMetric(hi*100, "max-advantage-%")
}

// BenchmarkGANGenerator runs the DCGAN generator across designs — the
// deconvolution workload of Section 5.2.
func BenchmarkGANGenerator(b *testing.B) {
	net, err := GANGenerator(DCGAN())
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	var perf float64
	for i := 0; i < b.N; i++ {
		rs, err := RunAllContext(context.Background(), net, []Design{Baseline, TNPU, Seculator}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		perf = rs[2].Performance(rs[0]) / rs[1].Performance(rs[0])
	}
	b.ReportMetric((perf-1)*100, "speedup-vs-tnpu-%")
}

// BenchmarkAblationRowBuffer isolates the row-locality damage of per-block
// metadata interleaving — overhead the flat bandwidth model cannot see,
// and the microarchitectural root of the paper's "accessing secure memory
// is expensive" observation.
func BenchmarkAblationRowBuffer(b *testing.B) {
	tr, err := CaptureTraceContext(context.Background(), workload.ResNet18(), Baseline, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var clean, dirty float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clean, err = tr.RowBufferHitRate(2, 16, 128)
		if err != nil {
			b.Fatal(err)
		}
		dirty, err = tr.RowBufferHitRateWithMetadata(2, 16, 128, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(clean*100, "clean-rowhit-%")
	b.ReportMetric(dirty*100, "metadata-rowhit-%")
}

// BenchmarkAblationArrayDataflow compares the systolic array's
// stationarity choices on ResNet-18 under the Seculator design — a
// SCALE-Sim-style compute-side ablation showing the protection comparison
// is insensitive to the array dataflow.
func BenchmarkAblationArrayDataflow(b *testing.B) {
	net := workload.ResNet18()
	var ws, os, is uint64
	for i := 0; i < b.N; i++ {
		for _, df := range []struct {
			d   npu.ArrayDataflow
			dst *uint64
		}{
			{npu.WeightStationary, &ws}, {npu.OutputStationary, &os}, {npu.InputStationary, &is},
		} {
			cfg := DefaultConfig()
			cfg.NPU.Dataflow = df.d
			r, err := runner.Run(context.Background(), net, protect.Seculator, cfg)
			if err != nil {
				b.Fatal(err)
			}
			*df.dst = uint64(r.Cycles)
		}
	}
	b.ReportMetric(float64(os)/float64(ws), "OS/WS")
	b.ReportMetric(float64(is)/float64(ws), "IS/WS")
}

// BenchmarkHostChannel measures the command channel's issue+receive path.
func BenchmarkHostChannel(b *testing.B) {
	key := []byte("bench-session-key")
	h := NewHostController(key)
	e := NewNPUEndpoint(key)
	cmd := HostCommand{
		Layer:   Layer{Type: Conv, C: 64, H: 56, W: 56, K: 64, R: 3, S: 3, Stride: 1},
		Triplet: Triplet{Eta: 4, Kappa: 8, Rho: 16},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Receive(h.Issue(cmd)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDefencePlanning measures the Seculator+ planner on MobileNet.
func BenchmarkDefencePlanning(b *testing.B) {
	cfg := DefaultConfig()
	net := workload.MobileNet()
	var plan DefencePlan
	var err error
	for i := 0; i < b.N; i++ {
		plan, err = PlanDefenceContext(context.Background(), net, cfg, 0.5, 8, DefaultDefenceOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(plan.WidenFactor, "widen-factor")
	b.ReportMetric(plan.Overhead, "overhead-x")
}
