package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seculator"
	"seculator/internal/gateway"
	"seculator/internal/mac"
	"seculator/internal/mem"
	"seculator/internal/nn"
	"seculator/internal/protect"
	"seculator/internal/resilience"
	"seculator/internal/runner"
	"seculator/internal/secure"
	"seculator/internal/serve"
	"seculator/internal/serve/chaos"
	"seculator/internal/serve/client"
	"seculator/internal/serve/loadgen"
	"seculator/internal/workload"
)

const (
	miniName = "Mini"        // 5 layers, 734 DRAM lines
	deepName = "MobileNet/8" // 29 layers, 7,997 DRAM lines

	poolInputs  = 64  // inputs cycled per pinned model
	coldSeeds   = 512 // model seeds serve-cold cycles; more than MaxModels (32), so every request misses
	pinnedSeed  = 1   // model seed of every pinned workload
	gwSessions  = 16  // sessions gateway-pair spreads over the ring
	warmOps     = 16  // untimed ops per client before a window
	tamperSpecs = 256 // seeded flips lib-tamper cycles

	requestSLO = 30 * time.Millisecond // latency limit of one inference
	simRunSLO  = time.Second           // latency limit of one (network, design) simulation
)

// openRates are the offered rates of serve-deep-open's three equal steps.
var openRates = []float64{20, 40, 60}

// env is what every workload's set-up gets: the run's seed and the host's
// CPU count, which caps client goroutines and HTTP connections.
type env struct {
	ctx   context.Context
	seed  int64
	nproc int
}

// instance is one set-up workload, warmed and ready for timed windows.
type instance struct {
	// window runs one timed window of length d. tr and rs are nil in the
	// untraced pass.
	window func(d time.Duration, tr *tracer, rs *respStats) window
	// counters reads the serving tier's cumulative /metrics counters; nil
	// for workloads with no server.
	counters func() (map[string]float64, error)
	stop     func()
}

type workloadDef struct {
	name  string
	slo   time.Duration
	setup func(e env) (*instance, error)
}

var workloads = []workloadDef{
	{"lib-deep", requestSLO, setupLibDeep},
	{"lib-tamper", requestSLO, setupLibTamper},
	{"serve-mini", requestSLO, setupServeMini},
	{"serve-cold", requestSLO, setupServeCold},
	{"serve-deep-open", requestSLO, setupServeDeepOpen},
	{"gateway-pair", requestSLO, setupGatewayPair},
	{"sim-sweep", simRunSLO, setupSimSweep},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// model is one network with pinned weights, a pool of seeded inputs and
// the reference model's answer for each.
type model struct {
	net     workload.Network
	weights []*nn.Weights
	inputs  []*nn.Tensor
	golden  []*nn.Tensor
}

func newModel(name string, modelSeed, inputSeed int64, inputs int) (*model, error) {
	net, err := workload.ResolveShape(name)
	if err != nil {
		return nil, err
	}
	_, ws := nn.RandomModel(net, modelSeed)
	m := &model{net: net, weights: ws}
	first := net.Layers[0]
	for i := 0; i < inputs; i++ {
		in := nn.NewTensor(first.C, first.H, first.W)
		in.Randomize(inputSeed*1000 + int64(i))
		out, err := nn.ForwardNetwork(net, in, ws)
		if err != nil {
			return nil, fmt.Errorf("golden for %s input %d: %w", name, i, err)
		}
		m.inputs = append(m.inputs, in)
		m.golden = append(m.golden, out)
	}
	return m, nil
}

// runStamps are the times a functional run reports from outside: entry,
// the OnPlan callback, each OnLayerMACs callback, return.
type runStamps struct {
	start, plan, end time.Time
	layers           []time.Time // [i] closes layer i; [len(net.Layers)] closes the host readout
}

// stampedRun is Executor.Run with the observer callbacks stamping time. An
// OnPlan the caller installed still sees the plan. The observers do not
// change which path the executor takes.
func stampedRun(ctx context.Context, x *secure.Executor, net workload.Network, in *nn.Tensor, ws []*nn.Weights) (secure.Result, runStamps, error) {
	var st runStamps
	onPlan := x.OnPlan
	x.OnPlan = func(p secure.PlanInfo) {
		st.plan = time.Now()
		if onPlan != nil {
			onPlan(p)
		}
	}
	x.OnLayerMACs = func(int, protect.RegisterState) { st.layers = append(st.layers, time.Now()) }
	st.start = time.Now()
	res, err := x.Run(ctx, net, in, ws)
	st.end = time.Now()
	return res, st, err
}

// layerKey names a layer type as the per-layer metrics spell it.
func layerKey(t workload.LayerType) string {
	switch t {
	case workload.Depthwise:
		return "depthwise"
	case workload.Pointwise:
		return "pointwise"
	default:
		return t.String()
	}
}

// phases cuts a run into named intervals that cover it exactly: plan,
// layer0 (input load and weight provisioning or install included), one per
// later layer by type, and readout (the host readout epoch plus the
// release of the run state, up to return). A run that aborted ends in
// "secure.abort" instead.
func (st runStamps) phases(net workload.Network, visit func(name string, from, to time.Time)) {
	if st.plan.IsZero() {
		return
	}
	visit("secure.plan", st.start, st.plan)
	prev := st.plan
	for i, at := range st.layers {
		switch {
		case i == 0:
			visit("secure.layer0", prev, at)
		case i < len(net.Layers):
			visit("secure.layer."+layerKey(net.Layers[i].Type), prev, at)
		default:
			continue // the readout's own close; the tail below carries it
		}
		prev = at
	}
	if len(st.layers) >= len(net.Layers) {
		visit("secure.readout", prev, st.end)
	} else {
		visit("secure.abort", prev, st.end)
	}
}

// spans records the run and its phases under parent.
func (st runStamps) spans(ot *opTrace, parent int, net workload.Network) {
	if ot == nil {
		return
	}
	run := ot.child(parent, "secure.run", st.start, st.end)
	st.phases(net, func(name string, from, to time.Time) { ot.child(run, name, from, to) })
}

// --- lib-deep ---------------------------------------------------------

func setupLibDeep(e env) (*instance, error) {
	m, err := newModel(deepName, e.seed, e.seed, poolInputs)
	if err != nil {
		return nil, err
	}
	// OutputMAC must repeat exactly for a repeated input; the first run of
	// each input fixes the value the later ones are held to.
	macs := make([]mac.Digest, poolInputs)
	op := func(_, seq int, ot *opTrace) (int, bool) {
		i := seq % poolInputs
		var res secure.Result
		var err error
		if ot == nil {
			res, err = seculator.SecureInferenceContext(e.ctx, m.net, m.inputs[i], m.weights, seculator.InferenceOptions{})
		} else {
			var st runStamps
			res, st, err = stampedRun(e.ctx, secure.NewExecutor(), m.net, m.inputs[i], m.weights)
			st.spans(ot, 0, m.net)
		}
		// One kind: the work does not depend on the input's values.
		if err != nil || !res.Output.Equal(m.golden[i]) {
			return 0, false
		}
		if macs[i].IsZero() {
			macs[i] = res.OutputMAC
		}
		return 0, macs[i] == res.OutputMAC
	}
	for i := 0; i < warmOps; i++ {
		if _, ok := op(0, i, nil); !ok {
			return nil, errors.New("lib-deep: warm-up op failed verification")
		}
	}
	return &instance{
		window: func(d time.Duration, tr *tracer, _ *respStats) window {
			return runClosed("lib-deep", 1, d, tr, op)
		},
		stop: func() {},
	}, nil
}

// --- lib-tamper -------------------------------------------------------

// tamper is one seeded bit flip: which region, where in it, which bit.
type tamper struct {
	layer  int // weight region of this layer at phase -1; -1 flips the final output at the last phase
	block  uint64
	offset int
	mask   byte
}

// detected reports whether err is the typed integrity or freshness error a
// consumed flipped block must raise.
func detected(err error) bool {
	var ie *resilience.IntegrityError
	var fe *resilience.FreshnessError
	return errors.As(err, &ie) || errors.As(err, &fe)
}

// tamperedRun runs mini with one flip injected by an AfterPhase hook. It
// is OK only if the flip landed and the run returned the typed error.
func tamperedRun(ctx context.Context, m *model, in *nn.Tensor, t tamper) (secure.Result, runStamps, bool) {
	x := secure.NewExecutor()
	var info secure.PlanInfo
	flipped := false
	phase, last := -1, len(m.net.Layers)-1
	if t.layer < 0 {
		phase = last
	}
	x.AfterPhase = func(p int, d *mem.DRAM) {
		if p != phase {
			return
		}
		r := info.Final()
		if t.layer >= 0 {
			r = info.Weights[t.layer]
		}
		flipped = d.Tamper(r.Base+t.block%uint64(r.Blocks), t.offset, t.mask)
	}
	x.OnPlan = func(p secure.PlanInfo) { info = p }
	res, st, err := stampedRun(ctx, x, m.net, in, m.weights)
	return res, st, flipped && detected(err)
}

func setupLibTamper(e env) (*instance, error) {
	m, err := newModel(miniName, e.seed, e.seed, poolInputs)
	if err != nil {
		return nil, err
	}
	var weighted []int
	for i, w := range m.weights {
		if w != nil {
			weighted = append(weighted, i)
		}
	}
	rng := rand.New(rand.NewSource(e.seed))
	specs := make([]tamper, tamperSpecs)
	for i := range specs {
		t := tamper{layer: -1, block: rng.Uint64(), offset: rng.Intn(64), mask: 1 << rng.Intn(8)}
		if pick := rng.Intn(len(weighted) + 1); pick < len(weighted) {
			t.layer = weighted[pick]
		}
		specs[i] = t
	}
	// A run's length is set by where its flip is caught: the flipped region
	// is the op's kind.
	op := func(_, seq int, ot *opTrace) (int, bool) {
		t := specs[seq%tamperSpecs]
		_, st, ok := tamperedRun(e.ctx, m, m.inputs[seq%poolInputs], t)
		st.spans(ot, 0, m.net)
		return t.layer, ok
	}
	for i := 0; i < warmOps; i++ {
		if _, ok := op(0, i, nil); !ok {
			return nil, errors.New("lib-tamper: warm-up flip went undetected")
		}
	}
	return &instance{
		window: func(d time.Duration, tr *tracer, _ *respStats) window {
			return runClosed("lib-tamper", 1, d, tr, op)
		},
		stop: func() {},
	}, nil
}

// --- HTTP workloads ---------------------------------------------------

// respStats gathers, in the traced pass, the fields the server already
// returns with every response.
type respStats struct {
	mu        sync.Mutex
	queue     []time.Duration
	run       []time.Duration
	residual  []time.Duration
	batch     int
	n         int
	byReplica map[string]int
}

func (r *respStats) add(roundTrip time.Duration, resp *serve.InferResponse) {
	if r == nil {
		return
	}
	q, run := msDur(resp.QueueMs), msDur(resp.RunMs)
	r.mu.Lock()
	r.queue = append(r.queue, q)
	r.run = append(r.run, run)
	r.residual = append(r.residual, roundTrip-q-run)
	r.batch += resp.BatchSize
	r.n++
	if resp.Replica != "" {
		if r.byReplica == nil {
			r.byReplica = map[string]int{}
		}
		r.byReplica[resp.Replica]++
	}
	r.mu.Unlock()
}

func msDur(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

// sharedClient returns a typed client whose one transport holds at most
// nproc connections to the target: load never outnumbers the CPUs.
func sharedClient(base string, nproc int) (*client.Client, func()) {
	tr := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	return client.New(base, &http.Client{Transport: tr}), tr.CloseIdleConnections
}

// inferChecked sends one request and holds the answer to the reference
// model's checksum. In the traced pass it records the round trip with the
// server's own queue and run times as derived children.
func inferChecked(ctx context.Context, cl loadgen.Inferer, req serve.InferRequest, want uint64,
	ot *opTrace, parent int, rs *respStats) bool {

	t0 := time.Now()
	resp, err := cl.Infer(ctx, req)
	t1 := time.Now()
	if err != nil || resp.OutputSum != want {
		return false
	}
	if ot != nil {
		rt := ot.child(parent, "http.roundtrip", t0, t1)
		q, run := msDur(resp.QueueMs), msDur(resp.RunMs)
		at := t0.Add((t1.Sub(t0) - q - run) / 2)
		ot.derived(rt, "serve.queue", at, q)
		ot.derived(rt, "serve.run", at.Add(q), run)
	}
	rs.add(t1.Sub(t0), &resp)
	return true
}

// pinnedRequests are the request bodies and expected checksums of a
// pinned model's input pool.
type pinnedRequests struct {
	reqs []serve.InferRequest
	sums []uint64
}

func newPinnedRequests(name string, inputSeed int64) (*pinnedRequests, error) {
	m, err := newModel(name, pinnedSeed, inputSeed, poolInputs)
	if err != nil {
		return nil, err
	}
	p := &pinnedRequests{}
	for i := range m.inputs {
		p.reqs = append(p.reqs, serve.InferRequest{Network: name, Seed: pinnedSeed, Input: m.inputs[i].Data})
		p.sums = append(p.sums, serve.OutputSum(m.golden[i]))
	}
	return p, nil
}

// serveCounters reads the cumulative counters of one or more servers.
func serveCounters(ctx context.Context, scrape ...*client.Client) (map[string]float64, error) {
	out := map[string]float64{}
	for _, cl := range scrape {
		text, err := cl.Metrics(ctx)
		if err != nil {
			return nil, err
		}
		for key, name := range map[string]string{
			"residency_hits":      "seculator_serve_residency_hits_total",
			"residency_misses":    "seculator_serve_residency_misses_total",
			"residency_evictions": "seculator_serve_residency_evictions_total",
			"resident_bytes":      "seculator_serve_residency_resident_bytes",
			"shed":                "seculator_serve_tenant_shed_total",
		} {
			out[key] += metricSum(text, name)
		}
	}
	return out, nil
}

// metricSum adds up every line of a /metrics scrape whose name starts with
// name, whatever its labels; chaos.MetricValue parses each line.
func metricSum(scrape, name string) float64 {
	var sum float64
	for _, line := range strings.Split(scrape, "\n") {
		sum += chaos.MetricValue(line, name, "")
	}
	return sum
}

// localServer is an in-process seculator-serve on a loopback listener.
type localServer struct {
	srv *serve.Server
	hs  *httptest.Server
}

func startServer(opts serve.Options) (*localServer, error) {
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	return &localServer{srv: srv, hs: httptest.NewServer(srv.Handler())}, nil
}

func (s *localServer) stop() {
	s.hs.CloseClientConnections()
	s.hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.srv.Close(ctx) // best effort: the process is done with this server
}

// warm runs warmOps untimed ops on every client at once.
func warm(clients int, op opFunc) bool {
	var failed atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < warmOps; i++ {
				if _, ok := op(c, i, nil); !ok {
					failed.Store(true)
				}
			}
		}(c)
	}
	wg.Wait()
	return !failed.Load()
}

func setupServeMini(e env) (*instance, error) {
	p, err := newPinnedRequests(miniName, e.seed)
	if err != nil {
		return nil, err
	}
	s, err := startServer(serve.Options{})
	if err != nil {
		return nil, err
	}
	cl, closeIdle := sharedClient(s.hs.URL, e.nproc)
	stop := func() { closeIdle(); s.stop() }
	var rs *respStats
	op := func(c, seq int, ot *opTrace) (int, bool) {
		i := (seq*e.nproc + c) % poolInputs
		return 0, inferChecked(e.ctx, cl, p.reqs[i], p.sums[i], ot, 0, rs)
	}
	if !warm(e.nproc, op) {
		stop()
		return nil, errors.New("serve-mini: warm-up op failed verification")
	}
	return &instance{
		window: func(d time.Duration, tr *tracer, stats *respStats) window {
			rs = stats
			return runClosed("serve-mini", e.nproc, d, tr, op)
		},
		counters: func() (map[string]float64, error) { return serveCounters(e.ctx, cl) },
		stop:     stop,
	}, nil
}

func setupServeCold(e env) (*instance, error) {
	net, err := workload.ResolveShape(miniName)
	if err != nil {
		return nil, err
	}
	reqs := make([]serve.InferRequest, coldSeeds)
	sums := make([]uint64, coldSeeds)
	for i := range reqs {
		seed := e.seed*100_000 + int64(i)
		in, ws := nn.RandomModel(net, seed)
		out, err := nn.ForwardNetwork(net, in, ws)
		if err != nil {
			return nil, err
		}
		reqs[i] = serve.InferRequest{Network: miniName, Seed: seed}
		sums[i] = serve.OutputSum(out)
	}
	s, err := startServer(serve.Options{})
	if err != nil {
		return nil, err
	}
	cl, closeIdle := sharedClient(s.hs.URL, e.nproc)
	stop := func() { closeIdle(); s.stop() }
	// One counter for all clients: seeds are used in one global order, so a
	// seed comes round again only after coldSeeds-1 others evicted it.
	var next atomic.Int64
	var rs *respStats
	op := func(_, _ int, ot *opTrace) (int, bool) {
		i := int(next.Add(1)-1) % coldSeeds
		return 0, inferChecked(e.ctx, cl, reqs[i], sums[i], ot, 0, rs)
	}
	if !warm(e.nproc, op) {
		stop()
		return nil, errors.New("serve-cold: warm-up op failed verification")
	}
	return &instance{
		window: func(d time.Duration, tr *tracer, stats *respStats) window {
			rs = stats
			return runClosed("serve-cold", e.nproc, d, tr, op)
		},
		counters: func() (map[string]float64, error) { return serveCounters(e.ctx, cl) },
		stop:     stop,
	}, nil
}

// openSchedule builds serve-deep-open's arrivals for a window of length d:
// one step per rate, each a seeded Poisson process from loadgen.Schedule
// conditioned on its expected count (the first rate×step gaps, stretched so
// the last arrival closes the step). Arrivals stay independent, and every
// seed offers the same number of requests.
func openSchedule(d time.Duration, seed int64) []arrival {
	var out []arrival
	step := d / time.Duration(len(openRates))
	for k, rate := range openRates {
		n := int(rate * step.Seconds())
		if n == 0 {
			continue
		}
		var s []loadgen.Arrival
		for horizon := 2 * step; len(s) < n; horizon *= 2 {
			s = loadgen.Schedule(loadgen.Options{RPS: rate, Duration: horizon, Poisson: true, Seed: seed + int64(k)})
		}
		stretch := float64(step) / float64(s[n-1].At)
		for i := 0; i < n; i++ {
			out = append(out, arrival{
				due:   time.Duration(k)*step + time.Duration(float64(s[i].At)*stretch),
				input: int(uint64(s[i].Seed) % poolInputs),
			})
		}
	}
	return out
}

// shippedScheduler is the scheduler configuration cmd/seculator-serve
// starts with.
var shippedScheduler = serve.SchedulerConfig{MaxQueue: 256, MaxBatch: 8, Linger: 2 * time.Millisecond}

func setupServeDeepOpen(e env) (*instance, error) {
	p, err := newPinnedRequests(deepName, e.seed)
	if err != nil {
		return nil, err
	}
	s, err := startServer(serve.Options{Scheduler: shippedScheduler})
	if err != nil {
		return nil, err
	}
	cl, closeIdle := sharedClient(s.hs.URL, e.nproc)
	stop := func() { closeIdle(); s.stop() }
	// One session per connection, so no session is ever used concurrently.
	sessions := make([]string, e.nproc)
	for c := range sessions {
		res, err := cl.CreateSession(e.ctx, serve.SessionCreateRequest{})
		if err != nil {
			stop()
			return nil, fmt.Errorf("serve-deep-open: opening session: %w", err)
		}
		sessions[c] = res.SessionID
	}
	var rs *respStats
	send := func(conn int, a arrival, ot *opTrace, root int) bool {
		req := p.reqs[a.input]
		req.Session = sessions[conn]
		return inferChecked(e.ctx, cl, req, p.sums[a.input], ot, root, rs)
	}
	if !warm(e.nproc, func(c, seq int, _ *opTrace) (int, bool) {
		return 0, send(c, arrival{input: (seq*e.nproc + c) % poolInputs}, nil, 0)
	}) {
		stop()
		return nil, errors.New("serve-deep-open: warm-up op failed verification")
	}
	return &instance{
		window: func(d time.Duration, tr *tracer, stats *respStats) window {
			rs = stats
			return openLoop{
				name: "serve-deep-open", arrivals: openSchedule(d, e.seed),
				conns: e.nproc, send: send, sleep: time.Sleep,
			}.run(tr)
		},
		counters: func() (map[string]float64, error) { return serveCounters(e.ctx, cl) },
		stop:     stop,
	}, nil
}

// ownSessions deals the sessions out to at most nproc clients: client c owns
// sessions c, c+clients, …, so none is used concurrently. A host with more
// CPUs than sessions gets one client per session, never a client with none.
func ownSessions(sessions []string, nproc int) [][]string {
	owned := make([][]string, min(nproc, len(sessions)))
	for i, id := range sessions {
		owned[i%len(owned)] = append(owned[i%len(owned)], id)
	}
	return owned
}

func setupGatewayPair(e env) (*instance, error) {
	p, err := newPinnedRequests(miniName, e.seed)
	if err != nil {
		return nil, err
	}
	fleet, err := gateway.StartLocal(gateway.LocalOptions{Replicas: 2})
	if err != nil {
		return nil, err
	}
	cl, closeIdle := sharedClient(fleet.GatewayURL, e.nproc)
	stop := func() { closeIdle(); fleet.Stop() }
	sessions := make([]string, gwSessions)
	for i := range sessions {
		res, err := cl.CreateSession(e.ctx, serve.SessionCreateRequest{})
		if err != nil {
			stop()
			return nil, fmt.Errorf("gateway-pair: opening session: %w", err)
		}
		sessions[i] = res.SessionID
	}
	var replicas []*client.Client
	for _, r := range fleet.Replicas {
		replicas = append(replicas, client.New(r.URL, nil))
	}
	owned := ownSessions(sessions, e.nproc)
	clients := len(owned)
	var rs *respStats
	op := func(c, seq int, ot *opTrace) (int, bool) {
		i := (seq*clients + c) % poolInputs
		req := p.reqs[i]
		req.Session = owned[c][seq%len(owned[c])]
		return 0, inferChecked(e.ctx, cl, req, p.sums[i], ot, 0, rs)
	}
	if !warm(clients, op) {
		stop()
		return nil, errors.New("gateway-pair: warm-up op failed verification")
	}
	return &instance{
		window: func(d time.Duration, tr *tracer, stats *respStats) window {
			rs = stats
			return runClosed("gateway-pair", clients, d, tr, op)
		},
		counters: func() (map[string]float64, error) {
			out, err := serveCounters(e.ctx, replicas...)
			if err != nil {
				return nil, err
			}
			text, err := cl.Metrics(e.ctx)
			if err != nil {
				return nil, err
			}
			out["gateway_retries"] = metricSum(text, "seculator_gateway_retries_total")
			out["gateway_migrations"] = metricSum(text, "seculator_gateway_migrations_total")
			out["gateway_ejections"] = metricSum(text, "seculator_gateway_replica_ejections_total")
			return out, nil
		},
		stop: stop,
	}, nil
}

// --- sim-sweep --------------------------------------------------------

// simRun is one (network, design) simulation of the Figure 7/8 sweep.
type simRun struct {
	net    workload.Network
	design protect.Design
}

func simRuns() []simRun {
	var out []simRun
	for _, n := range workload.All() {
		for _, d := range protect.Designs() {
			out = append(out, simRun{n, d})
		}
	}
	return out
}

func setupSimSweep(e env) (*instance, error) {
	want, err := loadExpectedSim()
	if err != nil {
		return nil, err
	}
	runs := simRuns()
	cfg := runner.DefaultConfig()
	op := func(i int, ot *opTrace) bool {
		t0 := time.Now()
		res, err := runner.Run(e.ctx, runs[i].net, runs[i].design, cfg)
		ot.child(0, "runner.run", t0, time.Now())
		return err == nil && want.matches(res)
	}
	// Warm-up is the first network under every design.
	for i := range protect.Designs() {
		if !op(i, nil) {
			return nil, fmt.Errorf("sim-sweep: %s/%s differs from expected_sim.json", runs[i].net.Name, runs[i].design)
		}
	}
	return &instance{
		// Whole cold sweeps until d has passed; each sweep is one part. With
		// a tracer, every other sweep is traced, and there are at least two.
		window: func(d time.Duration, tr *tracer, _ *respStats) window {
			return measured(func(start time.Time) window {
				var w window
				for sweep := 0; time.Since(start) < d || (tr != nil && sweep < 2); sweep++ {
					runner.ResetCache()
					for i := range runs {
						t0 := time.Now()
						var ot *opTrace
						if sweep%2 == 0 {
							ot = tr.begin("sim-sweep", t0)
						}
						ok := op(i, ot)
						t1 := time.Now()
						ot.end(t1)
						// Every (network, design) run is a kind of its own.
						w.samples = append(w.samples, sample{kind: i, done: t1.Sub(start), lat: t1.Sub(t0), ok: ok, traced: ot != nil})
					}
					w.bounds = append(w.bounds, time.Since(start))
				}
				return w
			})
		},
		stop: func() {},
	}, nil
}
