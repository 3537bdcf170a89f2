package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"seculator"
	"seculator/internal/crypto"
	"seculator/internal/dataflow"
	"seculator/internal/gateway"
	"seculator/internal/host"
	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/pattern"
	"seculator/internal/protect"
	"seculator/internal/runner"
	"seculator/internal/sched"
	"seculator/internal/secure"
	"seculator/internal/serve"
	"seculator/internal/serve/client"
	"seculator/internal/serve/loadgen"
	"seculator/internal/tensor"
	"seculator/internal/vngen"
	"seculator/internal/workload"
)

// The probes measure each layer from outside, by timing calls into its
// public functions on the benchmark's two models. They do not depend on
// which workload is being traced, so one layer's number can be followed
// across workloads and commits.

const (
	deepLines   = 7997 // DRAM lines of one deep run: the size mem.Reserve/Reset see in lib-deep
	probeBlocks = 4096 // blocks per protect.write/read pass
	batches     = 9    // timed batches per micro-probe; the median batch is reported
)

type prober struct {
	ctx   context.Context
	nproc int
	tr    *tracer
	out   metrics
	err   error
}

func (p *prober) set(name string, v float64, samples int) {
	p.out[name] = metric{Value: v, Samples: samples}
}

// check keeps the first failure; a probe that could not run fails the pass.
func (p *prober) check(what string, err error) {
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("probe %s: %w", what, err)
	}
}

// each times n calls of f, one span per call, and returns the sorted times.
func (p *prober) each(name string, n int, f func()) []time.Duration {
	ot := p.tr.begin("probe", time.Now())
	d := make([]time.Duration, n)
	for i := range d {
		t0 := time.Now()
		f()
		t1 := time.Now()
		d[i] = t1.Sub(t0)
		ot.child(0, name, t0, t1)
	}
	ot.end(time.Now())
	return sortDurs(d)
}

// once times a single call of f.
func (p *prober) once(name string, f func()) time.Duration { return p.each(name, 1, f)[0] }

func (p *prober) median(name string, n int, f func()) time.Duration {
	return loadgen.Percentile(p.each(name, n, f), 0.50)
}

// perCall reports the median, over batches, of the mean time of one call,
// in nanoseconds.
func (p *prober) perCall(name string, iters int, f func()) float64 {
	batch := p.median(name, batches, func() {
		for i := 0; i < iters; i++ {
			f()
		}
	})
	return float64(batch) / float64(iters)
}

// runProbes runs every probe and returns the workload-independent
// per-layer metrics.
func runProbes(ctx context.Context, nproc int, tr *tracer) (metrics, error) {
	p := &prober{ctx: ctx, nproc: nproc, tr: tr, out: metrics{}}
	mini, err := newModel(miniName, pinnedSeed, 1, 1)
	if err != nil {
		return nil, err
	}
	deep, err := newModel(deepName, pinnedSeed, 1, 1)
	if err != nil {
		return nil, err
	}
	floor := p.blockCrypto()
	p.memory()
	p.protect(floor)
	p.reference(mini, deep)
	p.scheduler(deep)
	p.executor(mini, deep, floor)
	p.tamper(mini)
	p.hostChannel(deep)
	p.simulator()
	p.dataflow()
	p.serving(mini, deep)
	p.gateway(mini)
	return p.out, p.err
}

// blockCrypto times the two kernels every protected block pays for and
// returns their sum in nanoseconds: the per-block floor.
func (p *prober) blockCrypto() float64 {
	e := crypto.NewCTR(secure.DefaultSecret, secure.DefaultRandom)
	src := make([]byte, 16*tensor.BlockBytes)
	dst := make([]byte, 16*tensor.BlockBytes)
	var c crypto.Counter
	ctr := p.perCall("crypto.ctr_block", 4000, func() {
		e.EncryptBlock(dst[:tensor.BlockBytes], src[:tensor.BlockBytes], c)
		c.Block++
	})
	ctr8 := p.perCall("crypto.ctr_blocks8", 500, func() {
		e.EncryptBlocks(dst, src, c, 8)
		c.Block += 8
	}) / 8
	ref := mac.BlockRef{Secret: secure.DefaultSecret, Layer: 1}
	var sink mac.Digest
	blockMAC := p.perCall("mac.block", 4000, func() {
		sink = sink.Xor(mac.BlockMAC(ref, src[:tensor.BlockBytes]))
		ref.Index++
	})
	var rh mac.RowHasher
	fold := p.perCall("mac.foldrow", 250, func() {
		d, _ := rh.FoldRow(ref, src)
		sink = sink.Xor(d)
	}) / 16
	g := vngen.New(pattern.Triplet{Eta: 4, Kappa: 4, Rho: 1 << 24})
	next := p.perCall("vngen.next", 4000, func() { g.Next() })

	p.set("crypto.ctr_block_ns", ctr, batches)
	p.set("crypto.ctr_blocks8_ns", ctr8, batches)
	p.set("mac.block_ns", blockMAC, batches)
	p.set("mac.foldrow_block_ns", fold, batches)
	p.set("vngen.next_ns", next, batches)
	return ctr + blockMAC
}

// memory times Reserve and Reset as the pooled executor calls them: on a
// DRAM that has already been through a run of the deep model's size.
func (p *prober) memory() {
	d, err := mem.New(mem.DefaultConfig())
	if err != nil {
		p.check("mem", err)
		return
	}
	line := make([]byte, tensor.BlockBytes)
	cycle := func() {
		for a := uint64(0); a < deepLines; a++ {
			d.WriteBlockQuiet(a, line)
		}
	}
	d.Reserve(deepLines)
	cycle()
	d.Reset()
	const n = 15
	var reset []time.Duration
	reserve := p.each("mem.reserve", n, func() { d.Reserve(deepLines) })
	for i := 0; i < n; i++ {
		d.Reserve(deepLines)
		cycle()
		reset = append(reset, p.once("mem.reset", d.Reset))
	}
	p.set("mem.reserve_us", us(loadgen.Percentile(reserve, 0.50)), n)
	p.set("mem.reset_us", us(medianDur(reset)), n)
}

// protect times the functional Seculator memory: encrypt + store + MAC on
// write, fetch + decrypt + MAC on first read, against the kernel floor.
func (p *prober) protect(floor float64) {
	d, err := mem.New(mem.DefaultConfig())
	if err != nil {
		p.check("protect", err)
		return
	}
	d.Reserve(probeBlocks)
	sm := protect.NewSeculatorMemory(d, secure.DefaultSecret, secure.DefaultRandom)
	pt := make([]byte, tensor.BlockBytes)
	layer := uint32(0)
	var write, read []time.Duration
	for i := 0; i < batches; i++ {
		layer++
		sm.BeginLayer(layer)
		write = append(write, p.once("protect.write_blocks", func() {
			for a := uint32(0); a < probeBlocks; a++ {
				sm.WriteBlock(uint64(a), 0, 1, a, pt)
			}
		}))
		prev := layer
		layer++
		sm.BeginLayer(layer)
		read = append(read, p.once("protect.read_blocks", func() {
			for a := uint32(0); a < probeBlocks; a++ {
				sm.ReadInput(uint64(a), prev, 0, 1, a, true)
			}
		}))
	}
	w := float64(medianDur(write)) / probeBlocks
	r := float64(medianDur(read)) / probeBlocks
	p.set("protect.write_block_ns", w, batches)
	p.set("protect.read_block_ns", r, batches)
	p.set("protect.achieved_vs_floor_x", (w+r)/(2*floor), batches)
}

func (p *prober) reference(mini, deep *model) {
	for _, m := range []*model{mini, deep} {
		m := m
		const n = 21
		d := p.median("nn.forward", n, func() {
			_, err := nn.ForwardNetwork(m.net, m.inputs[0], m.weights)
			p.check("nn.forward", err)
		})
		p.set("nn.forward_ms."+modelKey(m), ms(d), n)
	}
}

func modelKey(m *model) string {
	if m.net.Name == miniName {
		return "mini"
	}
	return "deep"
}

func (p *prober) scheduler(deep *model) {
	x := secure.NewExecutor()
	const n = 9
	cold := p.median("sched.map_cold", n, func() {
		_, err := sched.MapNetwork(deep.net, x.NPU, x.DRAM)
		p.check("sched.MapNetwork", err)
	})
	cached := p.perCall("sched.map_cached", 200, func() {
		_, err := sched.MapNetworkCached(deep.net, x.NPU, x.DRAM)
		p.check("sched.MapNetworkCached", err)
	})
	p.set("sched.map_cold_ms.deep", ms(cold), n)
	p.set("sched.map_cached_us.deep", cached/1e3, batches)
}

// executor times Executor.Run with and without a pinned residency, the
// residency's own build and verify, the phases of a full deep run, and the
// secure ÷ reference ratio of the root API.
func (p *prober) executor(mini, deep *model, floor float64) {
	const n = 15
	for _, m := range []*model{mini, deep} {
		m := m
		key := modelKey(m)
		verified := func(res secure.Result, err error) {
			if err == nil && !res.Output.Equal(m.golden[0]) {
				err = fmt.Errorf("output differs from the reference model")
			}
			p.check("secure.run "+key, err)
		}
		var blocks int
		full := p.median("secure.run_full", n, func() {
			res, err := secure.NewExecutor().Run(p.ctx, m.net, m.inputs[0], m.weights)
			verified(res, err)
			blocks = res.Blocks
		})
		p.set("secure.run_full_ms."+key, ms(full), n)

		x := secure.NewExecutor()
		var res *secure.WeightResidency
		build := p.median("secure.residency_build", 7, func() {
			var err error
			res, err = secure.BuildWeightResidency(p.ctx, m.net, x.NPU, x.DRAM, x.Secret, x.Random, m.weights)
			p.check("secure.BuildWeightResidency "+key, err)
		})
		p.set("secure.residency_build_ms."+key, ms(build), 7)
		if res == nil {
			return
		}
		resident := p.median("secure.run_resident", n, func() {
			x := secure.NewExecutor()
			x.Residency = res
			verified(x.Run(p.ctx, m.net, m.inputs[0], res.Weights()))
		})
		p.set("secure.run_resident_ms."+key, ms(resident), n)
		if m != deep {
			continue
		}
		verify := p.median("secure.residency_verify", 7, func() { p.check("residency.Verify", res.Verify()) })
		p.set("secure.residency_verify_ms.deep", ms(verify), 7)
		p.set("secure.residency_bytes.deep", float64(res.Bytes()), 1)

		// The executor returns the lines it wrote but not how many blocks
		// it read; reads are computed from the simulator's traffic for the
		// same network. Every op pays one CTR pad and one block MAC.
		sim, err := runner.Run(p.ctx, m.net, protect.Seculator, runner.DefaultConfig())
		p.check("runner.Run deep", err)
		ops := uint64(blocks)
		for _, r := range sim.Traffic.ReadBlocks {
			ops += r
		}
		p.set("secure.blocks", float64(blocks), 1)
		p.set("secure.block_ops", float64(ops), 1)
		p.set("secure.crypto_floor_share", float64(ops)*floor/float64(full), 1)
	}

	// Phases of a full deep run, from the observer stamps.
	byPhase := map[string][]time.Duration{}
	ot := p.tr.begin("probe", time.Now())
	for i := 0; i < n; i++ {
		_, st, err := stampedRun(p.ctx, secure.NewExecutor(), deep.net, deep.inputs[0], deep.weights)
		p.check("stamped run", err)
		st.spans(ot, 0, deep.net)
		sums := map[string]time.Duration{}
		st.phases(deep.net, func(name string, from, to time.Time) { sums[name] += to.Sub(from) })
		for name, d := range sums {
			byPhase[name] = append(byPhase[name], d)
		}
	}
	ot.end(time.Now())
	p.set("secure.plan_us", us(medianDur(byPhase["secure.plan"])), n)
	p.set("secure.layer0_ms", ms(medianDur(byPhase["secure.layer0"])), n)
	p.set("secure.readout_ms", ms(medianDur(byPhase["secure.readout"])), n)
	for _, t := range []string{"conv", "depthwise", "pointwise", "pool", "fc"} {
		p.set("secure.layer_ms."+t, ms(medianDur(byPhase["secure.layer."+t])), n)
	}

	// Root API against the reference model, interleaved on one input.
	var sec, ref []time.Duration
	for i := 0; i < n; i++ {
		sec = append(sec, p.once("seculator.SecureInference", func() {
			_, err := seculator.SecureInferenceContext(p.ctx, deep.net, deep.inputs[0], deep.weights, seculator.InferenceOptions{})
			p.check("SecureInferenceContext", err)
		}))
		ref = append(ref, p.once("seculator.ReferenceInference", func() {
			_, err := seculator.ReferenceInference(deep.net, deep.inputs[0], deep.weights)
			p.check("ReferenceInference", err)
		}))
	}
	p.set("secure_vs_ref_x", float64(medianDur(sec))/float64(medianDur(ref)), n)
}

// tamper times the hooked (unpooled, non-resident) path lib-tamper takes:
// with a hook that does nothing, then with one flip.
func (p *prober) tamper(mini *model) {
	const n = 15
	benign := p.median("secure.unpooled_run", n, func() {
		x := secure.NewExecutor()
		x.AfterPhase = func(int, *mem.DRAM) {}
		_, err := x.Run(p.ctx, mini.net, mini.inputs[0], mini.weights)
		p.check("hooked run", err)
	})
	retries := 0
	abort := p.median("secure.detect_abort", n, func() {
		res, _, ok := tamperedRun(p.ctx, mini, mini.inputs[0], tamper{layer: -1, offset: 3, mask: 0x10})
		if !ok {
			p.check("tampered run", fmt.Errorf("flip went undetected"))
		}
		retries += res.Recovery.Retries
	})
	p.set("secure.unpooled_run_ms", ms(benign), n)
	p.set("secure.detect_abort_ms", ms(abort), n)
	p.set("secure.retries_per_tamper", float64(retries)/n, n)
}

// hostChannel times a full secure session (command channel + resident
// functional run) interleaved with the resident run alone; the channel's
// share is the difference.
func (p *prober) hostChannel(deep *model) {
	x := secure.NewExecutor()
	res, err := secure.BuildWeightResidency(p.ctx, deep.net, x.NPU, x.DRAM, x.Secret, x.Random, deep.weights)
	if err != nil {
		p.check("host residency", err)
		return
	}
	key := bytes.Repeat([]byte{0x5e}, 32)
	const n = 15
	commands := 0
	var seq uint64
	var session, bare []time.Duration
	for i := 0; i < n; i++ {
		session = append(session, p.once("host.session_run", func() {
			r, err := host.RunSession(p.ctx, deep.net, runner.DefaultConfig(), key, host.SessionOptions{
				Input: deep.inputs[0], Weights: res.Weights(), Residency: res, BaseSeq: seq,
			})
			if err == nil && !r.Output.Equal(deep.golden[0]) {
				err = fmt.Errorf("output differs from the reference model")
			}
			p.check("host.RunSession", err)
			commands, seq = r.Commands, r.LastSeq
		}))
		bare = append(bare, p.once("secure.run_resident", func() {
			x := secure.NewExecutor()
			x.Residency = res
			_, err := x.Run(p.ctx, deep.net, deep.inputs[0], res.Weights())
			p.check("resident run", err)
		}))
	}
	p.set("host.session_run_ms.deep", ms(medianDur(session)), n)
	p.set("host.channel_ms.deep", ms(medianDur(session)-medianDur(bare)), n)
	p.set("host.commands", float64(commands), 1)
}

// simulator runs one cold Figure 7/8 sweep, design by design, checks every
// run against expected_sim.json and derives the figure's summary.
func (p *prober) simulator() {
	want, err := loadExpectedSim()
	if err != nil {
		p.check("sim", err)
		return
	}
	cfg := runner.DefaultConfig()
	runner.ResetCache()
	got := map[string]simStats{}
	results := map[string]runner.Result{}
	layers := 0
	var total time.Duration
	for _, d := range protect.Designs() {
		d := d
		var spent time.Duration
		for _, n := range workload.All() {
			n := n
			spent += p.once("runner.run", func() {
				r, err := runner.Run(p.ctx, n, d, cfg)
				p.check("runner.Run", err)
				if err == nil && !want.matches(r) {
					p.check("runner.Run", fmt.Errorf("%s differs from expected_sim.json", simKey(n.Name, d)))
				}
				got[simKey(n.Name, d)] = statsOf(r)
				results[simKey(n.Name, d)] = r
				layers += len(r.Layers)
			})
		}
		total += spent
		p.set("runner.run_ms."+strings.ToLower(strings.ReplaceAll(d.String(), "+", "plus")), ms(spent), len(workload.All()))
	}
	p.set("runner.layers_per_s", float64(layers)/total.Seconds(), layers)

	var cycles uint64
	var tnpu, guard, macMiss, ctrMiss float64
	nets := workload.All()
	for _, n := range nets {
		base := results[simKey(n.Name, protect.Baseline)]
		cycles += got[simKey(n.Name, protect.Seculator)].Cycles
		tnpu += results[simKey(n.Name, protect.TNPU)].NormalizedTraffic(base)
		guard += results[simKey(n.Name, protect.GuardNN)].NormalizedTraffic(base)
		macMiss += results[simKey(n.Name, protect.Secure)].MACCache.MissRate()
		ctrMiss += results[simKey(n.Name, protect.Secure)].CounterCache.MissRate()
	}
	k := float64(len(nets))
	p.set("runner.cycles.seculator", float64(cycles), len(nets))
	p.set("runner.traffic_x.tnpu", tnpu/k, len(nets))
	p.set("runner.traffic_x.guardnn", guard/k, len(nets))
	p.set("runner.mac_cache_miss.secure", macMiss/k, len(nets))
	p.set("runner.ctr_cache_miss.secure", ctrMiss/k, len(nets))
	perf, vsTNPU, errPct := fig7(got)
	p.set("sim_seculator_norm_perf", perf, len(nets))
	p.set("sim_seculator_vs_tnpu_pct", vsTNPU, len(nets))
	p.set("sim_fig7_err_pct", errPct, len(nets))

	mini := workload.Mini()
	_, err = runner.RunCached(p.ctx, mini, protect.Seculator, cfg)
	p.check("runner.RunCached", err)
	hit := p.perCall("runner.cached_hit", 500, func() {
		_, err := runner.RunCached(p.ctx, mini, protect.Seculator, cfg)
		p.check("runner.RunCached", err)
	})
	p.set("runner.cached_hit_ns", hit, batches)
}

// dataflow counts and times the tile-event generator on ResNet18.
func (p *prober) dataflow() {
	x := secure.NewExecutor()
	choices, err := sched.MapNetworkCached(workload.ResNet18(), x.NPU, x.DRAM)
	if err != nil {
		p.check("dataflow", err)
		return
	}
	events := 0
	const n = 5
	d := p.median("dataflow.generate", n, func() {
		events = 0
		for _, c := range choices {
			p.check("dataflow.Generate", dataflow.Generate(c.Mapping, func(dataflow.Event) bool { events++; return true }))
		}
	})
	p.set("dataflow.events", float64(events), 1)
	p.set("dataflow.events_per_s", float64(events)/d.Seconds(), n)
}

// serving times one seculator-serve from outside: the handler with no TCP
// under it, the same request over loopback, the session calls, and a
// /metrics scrape while a client keeps the server busy.
func (p *prober) serving(mini, deep *model) {
	s, err := startServer(serve.Options{})
	if err != nil {
		p.check("serve", err)
		return
	}
	defer s.stop()
	cl, closeIdle := sharedClient(s.hs.URL, p.nproc)
	defer closeIdle()

	body := func(m *model) []byte {
		b, err := json.Marshal(serve.InferRequest{Network: m.net.Name, Seed: pinnedSeed, Input: m.inputs[0].Data})
		p.check("marshal", err)
		return b
	}
	handler := s.srv.Handler()
	direct := func(m *model, n int) time.Duration {
		b := body(m)
		call := func() {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(b)))
			if rec.Code != http.StatusOK {
				p.check("handler", fmt.Errorf("status %d: %s", rec.Code, rec.Body.String()))
			}
		}
		call() // pins the model
		return p.median("serve.handler", n, call)
	}
	handlerMini := direct(mini, 101)
	p.set("serve.handler_ms_p50.mini", ms(handlerMini), 101)
	p.set("serve.handler_ms_p50.deep", ms(direct(deep, 31)), 31)

	req := serve.InferRequest{Network: miniName, Seed: pinnedSeed, Input: mini.inputs[0].Data}
	want := serve.OutputSum(mini.golden[0])
	infer := func(r serve.InferRequest) {
		resp, err := cl.Infer(p.ctx, r)
		if err == nil && resp.OutputSum != want {
			err = fmt.Errorf("checksum differs from the reference model")
		}
		p.check("serve infer", err)
	}
	infer(req)
	roundTrip := p.median("serve.roundtrip", 101, func() { infer(req) })
	p.set("serve.transport_ms_p50", ms(roundTrip-handlerMini), 101)

	// Session calls. restore needs the session gone, so each round closes
	// the session between snapshot and restore.
	const rounds = 11
	var create, snapshot, restore, plain, piggy []time.Duration
	for i := 0; i < rounds; i++ {
		var id string
		create = append(create, p.once("serve.session_create", func() {
			res, err := cl.CreateSession(p.ctx, serve.SessionCreateRequest{})
			p.check("CreateSession", err)
			id = res.SessionID
		}))
		bound := req
		bound.Session = id
		plain = append(plain, p.once("serve.session_infer", func() { infer(bound) }))
		bound.ReturnSnapshot = true
		piggy = append(piggy, p.once("serve.session_infer_snapshot", func() { infer(bound) }))
		var env serve.SnapshotEnvelope
		snapshot = append(snapshot, p.once("serve.snapshot", func() {
			res, err := cl.SnapshotSession(p.ctx, id)
			p.check("SnapshotSession", err)
			env = res.Snapshot
		}))
		p.check("CloseSession", cl.CloseSession(p.ctx, id))
		restore = append(restore, p.once("serve.restore", func() {
			_, err := cl.RestoreSession(p.ctx, env)
			p.check("RestoreSession", err)
		}))
	}
	p.set("serve.session_create_ms", ms(medianDur(create)), rounds)
	p.set("serve.snapshot_ms", ms(medianDur(snapshot)), rounds)
	p.set("serve.restore_ms", ms(medianDur(restore)), rounds)
	p.set("serve.piggyback_ms", ms(medianDur(piggy)-medianDur(plain)), rounds)

	p.set("serve.metrics_scrape_ms", ms(p.scrapeUnderLoad("serve.metrics_scrape", cl, func() { infer(req) })), 21)

	// The client's own share of a round trip: encode one request, decode
	// one response.
	respBody, err := json.Marshal(serve.InferResponse{Network: miniName, Layers: 5, OutputSum: want, BatchSize: 1, QueueMs: 0.01, RunMs: 0.7})
	p.check("marshal", err)
	codec := p.perCall("client.codec", 200, func() {
		_, err := json.Marshal(req)
		p.check("marshal", err)
		var out serve.InferResponse
		p.check("unmarshal", json.Unmarshal(respBody, &out))
	})
	p.set("client.codec_us", codec/1e3, batches)
}

// scrapeUnderLoad times GET /metrics while one client keeps sending: the
// scrape takes the same global metrics mutex every request does.
func (p *prober) scrapeUnderLoad(name string, cl *client.Client, load func()) time.Duration {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				load()
			}
		}
	}()
	d := p.median(name, 21, func() {
		_, err := cl.Metrics(p.ctx)
		p.check(name, err)
	})
	close(stop)
	wg.Wait()
	return d
}

// gateway pairs requests through the gateway with the same requests sent
// straight to a replica; the difference is what the hop adds.
func (p *prober) gateway(mini *model) {
	fleet, err := gateway.StartLocal(gateway.LocalOptions{Replicas: 2})
	if err != nil {
		p.check("gateway", err)
		return
	}
	defer fleet.Stop()
	gw, closeGW := sharedClient(fleet.GatewayURL, p.nproc)
	defer closeGW()
	rep, closeRep := sharedClient(fleet.Replicas[0].URL, p.nproc)
	defer closeRep()

	req := serve.InferRequest{Network: miniName, Seed: pinnedSeed, Input: mini.inputs[0].Data}
	want := serve.OutputSum(mini.golden[0])
	infer := func(cl *client.Client, r serve.InferRequest) {
		resp, err := cl.Infer(p.ctx, r)
		if err == nil && resp.OutputSum != want {
			err = fmt.Errorf("checksum differs from the reference model")
		}
		p.check("gateway infer", err)
	}
	session := func(cl *client.Client) serve.InferRequest {
		res, err := cl.CreateSession(p.ctx, serve.SessionCreateRequest{})
		p.check("CreateSession", err)
		r := req
		r.Session = res.SessionID
		return r
	}
	// Stateless traffic may land on either replica; pin both first.
	for i := 0; i < 8; i++ {
		infer(gw, req)
	}
	infer(rep, req)
	viaGW, viaRep := session(gw), session(rep)
	infer(gw, viaGW)
	infer(rep, viaRep)

	const n = 51
	var hop, direct, sHop, sDirect []time.Duration
	for i := 0; i < n; i++ {
		hop = append(hop, p.once("gateway.infer", func() { infer(gw, req) }))
		direct = append(direct, p.once("replica.infer", func() { infer(rep, req) }))
		sHop = append(sHop, p.once("gateway.session_infer", func() { infer(gw, viaGW) }))
		sDirect = append(sDirect, p.once("replica.session_infer", func() { infer(rep, viaRep) }))
	}
	p.set("gateway.hop_ms_p50", ms(medianDur(hop)-medianDur(direct)), n)
	p.set("gateway.session_hop_ms_p50", ms(medianDur(sHop)-medianDur(sDirect)), n)
	p.set("gateway.metrics_scrape_ms", ms(p.scrapeUnderLoad("gateway.metrics_scrape", gw, func() { infer(gw, req) })), 21)

	names := []string{fleet.Replicas[0].Name, fleet.Replicas[1].Name}
	ring := gateway.NewRing(names, 0)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("session-%04d", i)
	}
	i := 0
	owner := p.perCall("gateway.ring_owner", 4000, func() { ring.Owner(keys[i%len(keys)]); i++ })
	rdv := p.perCall("gateway.rendezvous", 1000, func() { gateway.Rendezvous(names, keys[i%len(keys)]); i++ })
	p.set("gateway.ring_owner_ns", owner, batches)
	p.set("gateway.rendezvous_ns", rdv, batches)
}
