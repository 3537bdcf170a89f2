package main

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"seculator/internal/runner"
	"seculator/internal/serve"
	"seculator/internal/serve/loadgen"
)

// go test ./benchmark -run TestExpectedSim -update rewrites expected_sim.json
// from the simulator, after an intended model change.
var update = flag.Bool("update", false, "rewrite expected_sim.json from the simulator")

// atRoot runs the test from the repository root, where the benchmark runs
// and BENCHMARK.json lives.
func atRoot(t *testing.T) benchSpec {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(wd) })
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestContractListsTheWorkloadsTheCodeRuns(t *testing.T) {
	spec := atRoot(t)
	// sim-sweep runs in a full run only: its timings follow the host's
	// phases too closely for any bound the contract allows (README.md).
	var gated []string
	for _, w := range workloads {
		if w.name != "sim-sweep" {
			gated = append(gated, w.name)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("%s lists %d workloads, the code gates %d", specFile, len(spec.Workloads), len(gated))
	}
	for i, w := range spec.Workloads {
		if w.Name != gated[i] {
			t.Errorf("workload %d: %s says %q, the code says %q", i, specFile, w.Name, gated[i])
		}
	}
	// The bounds README.md derives from the measured seed-to-seed spreads:
	// widening one is a change to this table and to that evidence.
	bounds := map[string]float64{
		"setup_s": 0.25, "lat_quiet_ms": 0.25, "allocs_per_op": 0.05, "heap_live_mib": 0.15,
	}
	if len(spec.EndToEnd) != len(bounds) {
		t.Errorf("%s lists %d end-to-end metrics, want %d", specFile, len(spec.EndToEnd), len(bounds))
	}
	for _, m := range spec.EndToEnd {
		if want, ok := bounds[m.Name]; !ok || m.Bound != want {
			t.Errorf("%s: bound %v, want %v", m.Name, m.Bound, want)
		}
	}
}

func TestConformWantsExactlyTheListedMetrics(t *testing.T) {
	specs := []metricSpec{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "count"}}
	probes, own := metrics{"a": {Value: 1}}, metrics{"b": {Value: 2}}
	if err := conform(specs, probes, own); err != nil {
		t.Fatal(err)
	}
	if probes["a"].Unit != "ms" || own["b"].Unit != "count" {
		t.Errorf("units not stamped: %+v %+v", probes, own)
	}
	if err := conform(specs, probes); err == nil {
		t.Error("a listed metric nobody measured was accepted")
	}
	own["c"] = metric{}
	if err := conform(specs, probes, own); err == nil {
		t.Error("a measured metric the contract does not list was accepted")
	}
}

// A window whose slices completed 10, 10, 2, 10 and 50 ops reports the
// median slice, not the mean: one slow and one fast slice move nothing.
func TestThroughputIsTheMedianSlice(t *testing.T) {
	const slice = 100 * time.Millisecond
	var w window
	for k, n := range []int{10, 10, 2, 10, 50} {
		for i := 0; i < n; i++ {
			done := time.Duration(k)*slice + slice*time.Duration(i+1)/time.Duration(n)
			w.samples = append(w.samples, sample{done: done, lat: time.Millisecond, ok: true})
		}
		w.bounds = append(w.bounds, time.Duration(k+1)*slice)
	}
	if _, attempted, failed := w.endToEnd(); attempted != 82 || failed != 0 {
		t.Fatalf("attempted %d failed %d, want 82 and 0", attempted, failed)
	}
	if got := w.wholeWindow()["ops_per_s"].Value; got < 99.9 || got > 100.1 {
		t.Errorf("ops_per_s = %v, want the median slice's 100", got)
	}
	if rates := w.partRates(); len(rates) != 5 || math.Round(rates[2]) != 20 || math.Round(rates[4]) != 500 {
		t.Errorf("slice rates = %v, want [100 100 20 100 500]", rates)
	}
}

// lat_p50_ms is the median over every verified op of the window, so the
// busy end of a window that took most of the ops sets it, not the middle
// part.
func TestMedianLatencyIsTakenOverAllSamplesOfTheWindow(t *testing.T) {
	w := window{bounds: []time.Duration{time.Second, 2 * time.Second, 3 * time.Second}}
	for k, step := range []struct {
		n   int
		lat time.Duration
	}{{2, time.Millisecond}, {4, 2 * time.Millisecond}, {6, 9 * time.Millisecond}} {
		for i := 0; i < step.n; i++ {
			done := time.Duration(k)*time.Second + time.Second*time.Duration(i+1)/time.Duration(step.n)
			w.samples = append(w.samples, sample{done: done, lat: step.lat, ok: true})
		}
	}
	if got := w.wholeWindow()["lat_p50_ms"]; got.Value != 2 || got.Samples != 12 {
		t.Errorf("lat_p50_ms = %+v, want the 6th of 12 samples, 2 ms", got)
	}
	w.samples = append(w.samples, sample{done: 3 * time.Second, lat: 9 * time.Millisecond, ok: true})
	if got := w.wholeWindow()["lat_p50_ms"].Value; got != 9 {
		t.Errorf("lat_p50_ms = %v with 7 of 13 samples at 9 ms, want 9", got)
	}
}

// Three kinds of op whose undisturbed times are 1, 4 and 10 ms, each
// repeated while the host's speed swings: lat_quiet_ms is the mean over the
// ops of each op's kind at its fastest repeat, whatever share of the repeats
// was disturbed. A kind that repeats 1000 times counts with its
// second-fastest repeat, so one freak reading does not set it.
func TestQuietLatencyTimesEveryOpAtItsKindsQuietRepeat(t *testing.T) {
	w := window{bounds: []time.Duration{time.Second}}
	add := func(kind int, lat time.Duration, ok bool) {
		w.samples = append(w.samples, sample{kind: kind, lat: lat, ok: ok})
	}
	for r := 0; r < 10; r++ {
		slow := time.Duration(r%4) * time.Millisecond // three repeats of four are disturbed
		add(0, time.Millisecond+slow/2, true)
		add(1, 4*time.Millisecond+2*slow, true)
		add(2, 10*time.Millisecond+3*slow, true)
	}
	add(1, time.Microsecond, false) // a failed op is not a latency
	if got := w.quietLatency(); got != 5*time.Millisecond {
		t.Errorf("quiet latency = %v, want the mean of the undisturbed 1, 4 and 10 ms", got)
	}
	if whole := w.wholeWindow()["lat_p50_ms"].Value; whole <= 4 {
		t.Errorf("lat_p50_ms = %v ms: the disturbed repeats should show in the whole-window median", whole)
	}
	// Twice as many ops of the 1 ms kind pull the mean towards it.
	for r := 0; r < 10; r++ {
		add(0, 2*time.Millisecond, true)
	}
	if got := w.quietLatency(); got != 4*time.Millisecond {
		t.Errorf("quiet latency = %v, want (20x1 + 10x4 + 10x10)/40 = 4 ms", got)
	}

	w = window{}
	add(0, time.Microsecond, true) // a timer glitch
	for r := 0; r < 999; r++ {
		add(0, 3*time.Millisecond+time.Duration(r)*time.Microsecond, true)
	}
	if got := w.quietLatency(); got != 3*time.Millisecond {
		t.Errorf("quiet latency of 1000 repeats = %v, want the second-fastest, 3 ms", got)
	}
	if got := (&window{}).quietLatency(); got != 0 {
		t.Errorf("quiet latency of no ops = %v", got)
	}
}

// Failed ops are counted and carry no latency or throughput sample.
func TestFailedOpsAreCountedNotTimed(t *testing.T) {
	w := window{bounds: []time.Duration{time.Second}}
	for i := 0; i < 10; i++ {
		w.samples = append(w.samples, sample{done: time.Duration(i+1) * 100 * time.Millisecond, lat: time.Millisecond, ok: i%5 != 0})
	}
	e2e, attempted, failed := w.endToEnd()
	if attempted != 10 || failed != 2 {
		t.Fatalf("attempted %d failed %d, want 10 and 2", attempted, failed)
	}
	if got := e2e["lat_quiet_ms"].Samples; got != 8 {
		t.Errorf("quiet-latency samples = %d, want the 8 verified ops", got)
	}
	if got := e2e["allocs_per_op"].Samples; got != 10 {
		t.Errorf("allocations are divided by %d ops, want all 10 attempted", got)
	}
	m := w.wholeWindow()
	if got := m["lat_p50_ms"].Samples; got != 8 {
		t.Errorf("latency samples = %d, want the 8 verified ops", got)
	}
	if got := m["ops_per_s"].Value; math.Round(got) != 8 {
		t.Errorf("ops_per_s = %v, want the 8 verified ops of the one-second window", got)
	}
	if got := m["cpu_ms_per_op"].Samples; got != 10 {
		t.Errorf("cpu is divided by %d ops, want all 10 attempted", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	ot := tr.begin("op", at(0))
	run := ot.child(0, "secure.run", at(10), at(90))
	ot.child(run, "secure.plan", at(10), at(15))
	ot.child(run, "secure.layer0", at(15), at(60))
	ot.derived(0, "serve.queue", at(92), 3*time.Millisecond)
	ot.end(at(100))

	want := map[string]float64{"op": 17000, "secure.run": 30000, "secure.plan": 5000, "secure.layer0": 45000, "serve.queue": 3000}
	if len(tr.spans) != len(want) {
		t.Fatalf("%d spans recorded, want %d", len(tr.spans), len(want))
	}
	for _, s := range tr.spans {
		if s.SelfUs != want[s.Name] {
			t.Errorf("%s: self %v µs, want %v", s.Name, s.SelfUs, want[s.Name])
		}
		if s.Op != 1 {
			t.Errorf("%s: op id %d, want 1", s.Name, s.Op)
		}
		if s.Derived != (s.Name == "serve.queue") {
			t.Errorf("%s: derived = %v", s.Name, s.Derived)
		}
		// Children plus self equal the span.
		sum := s.SelfUs
		for _, c := range tr.spans {
			if c.Parent == s.ID {
				sum += c.DurUs
			}
		}
		if sum != s.DurUs {
			t.Errorf("%s: self + children = %v µs, span is %v µs", s.Name, sum, s.DurUs)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ot := tr.begin("op", time.Now())
	if id := ot.child(0, "x", time.Now(), time.Now()); id != -1 {
		t.Errorf("child on the untraced pass returned id %d", id)
	}
	ot.end(time.Now())
}

// stallOnce is an Inferer that answers at once, except for its first call.
type stallOnce struct {
	calls atomic.Int64
	stall time.Duration
}

func (s *stallOnce) Infer(context.Context, serve.InferRequest) (serve.InferResponse, error) {
	if s.calls.Add(1) == 1 {
		time.Sleep(s.stall)
	}
	return serve.InferResponse{}, nil
}

func sendTo(target loadgen.Inferer) func(int, arrival, *opTrace, int) bool {
	return func(int, arrival, *opTrace, int) bool {
		_, err := target.Infer(context.Background(), serve.InferRequest{})
		return err == nil
	}
}

func everyMs(n int, gap time.Duration) []arrival {
	out := make([]arrival, n)
	for i := range out {
		out[i] = arrival{due: time.Duration(i+1) * gap}
	}
	return out
}

// One connection, one 60 ms stall on the first request: the requests that
// were due during the stall answered in microseconds once sent, but their
// latency is timed from when they were due, so they carry the stall.
func TestOpenLoopChargesAStallToTheRequestsItDelays(t *testing.T) {
	const gap, stall = 2 * time.Millisecond, 60 * time.Millisecond
	target := &stallOnce{stall: stall}
	w := openLoop{
		name: "test", arrivals: everyMs(10, gap), conns: 1,
		send: sendTo(target), sleep: time.Sleep,
	}.run(nil)
	if len(w.samples) != 10 {
		t.Fatalf("%d samples, want 10", len(w.samples))
	}
	for i, s := range w.samples {
		if !s.ok {
			t.Errorf("request %d failed", i)
		}
		// Request i was due i gaps after the first; it could not be sent
		// before the stall ended.
		if min := stall - time.Duration(i)*gap - gap; s.lat < min {
			t.Errorf("request %d: latency %v, want at least %v of the stall", i, s.lat, min)
		}
	}
	if len(w.bounds) != 1 || w.bounds[0] < stall {
		t.Errorf("window bounds %v, want one part ending after the stall", w.bounds)
	}
}

// A generator that oversleeps by 5 ms fires every arrival 5 ms late; the
// lateness is accounted per arrival and is part of each latency.
func TestGeneratorLatenessIsAccounted(t *testing.T) {
	const over = 5 * time.Millisecond
	target := &stallOnce{}
	w := openLoop{
		name: "test", arrivals: everyMs(8, 10*time.Millisecond), conns: 2,
		send:  sendTo(target),
		sleep: func(d time.Duration) { time.Sleep(d + over) },
	}.run(nil)
	if len(w.late) != 8 {
		t.Fatalf("%d lateness samples, want one per arrival", len(w.late))
	}
	for i, late := range w.late {
		if late < over {
			t.Errorf("arrival %d fired %v late, want at least the %v oversleep", i, late, over)
		}
	}
	for i, s := range w.samples {
		if s.lat < over {
			t.Errorf("request %d: latency %v does not include the generator's %v", i, s.lat, over)
		}
	}
}

func TestClosedLoopSlicesATinyWindow(t *testing.T) {
	spec := atRoot(t)
	var ops atomic.Int64
	w := runClosed("test", 2, 50*time.Millisecond, nil, func(_, seq int, _ *opTrace) (int, bool) {
		ops.Add(1)
		time.Sleep(time.Millisecond)
		return seq % 4, true
	})
	if len(w.bounds) != slices {
		t.Fatalf("%d parts, want %d", len(w.bounds), slices)
	}
	if int(ops.Load()) != len(w.samples) || len(w.samples) < 10 {
		t.Fatalf("%d samples for %d ops", len(w.samples), ops.Load())
	}
	for _, s := range w.samples {
		if s.kind < 0 || s.kind > 3 {
			t.Fatalf("sample carries kind %d, the op said 0 to 3", s.kind)
		}
	}
	m, _, _ := w.endToEnd()
	m["setup_s"] = metric{Value: 1}
	if err := conform(spec.EndToEnd, m); err != nil {
		t.Errorf("a window does not yield every end-to-end metric: %v", err)
	}
	if m["lat_quiet_ms"].Value < 1 {
		t.Errorf("lat_quiet_ms = %v, every op slept a millisecond", m["lat_quiet_ms"].Value)
	}
}

// Every seed offers the same number of requests per step, in due order.
func TestOpenScheduleOffersTheSameCountForEverySeed(t *testing.T) {
	const d = 3 * time.Second
	a, b := openSchedule(d, 1), openSchedule(d, 2)
	want := 0
	for _, r := range openRates {
		want += int(r)
	}
	if len(a) != want || len(b) != want {
		t.Fatalf("seeds offer %d and %d requests, want %d", len(a), len(b), want)
	}
	if first := int(openRates[0]); a[first-1].due > time.Second || a[first].due < time.Second {
		t.Errorf("arrivals %d and %d are due at %v and %v, want the first step to end at 1s", first-1, first, a[first-1].due, a[first].due)
	}
	same := true
	for i := range a {
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if a[i].due > d {
			t.Fatalf("arrival %d is due at %v, after the window", i, a[i].due)
		}
		same = same && a[i].due == b[i].due
	}
	if same {
		t.Error("two seeds produced the same arrival times")
	}
}

// No client is left without a session, on a host with fewer CPUs than
// sessions or with more, and no session has two owners.
func TestEveryGatewayClientOwnsASession(t *testing.T) {
	sessions := make([]string, gwSessions)
	for i := range sessions {
		sessions[i] = string(rune('a' + i))
	}
	for nproc, clients := range map[int]int{1: 1, 2: 2, 6: 6, gwSessions: gwSessions, 4 * gwSessions: gwSessions} {
		owned := ownSessions(sessions, nproc)
		if len(owned) != clients {
			t.Errorf("nproc %d: %d clients, want %d", nproc, len(owned), clients)
		}
		seen := map[string]bool{}
		for c, ids := range owned {
			if len(ids) == 0 {
				t.Errorf("nproc %d: client %d owns no session", nproc, c)
			}
			for _, id := range ids {
				if seen[id] {
					t.Errorf("nproc %d: session %s has two owners", nproc, id)
				}
				seen[id] = true
			}
		}
		if len(seen) != gwSessions {
			t.Errorf("nproc %d: %d sessions owned, want all %d", nproc, len(seen), gwSessions)
		}
	}
}

// expected_sim.json lists exactly the sweep's runs and agrees with the
// simulator. Without -update only the cheapest network is simulated (the
// sim-sweep workload checks every run on every op); with it the whole sweep
// is, and the file is rewritten.
func TestExpectedSimMatchesTheSimulator(t *testing.T) {
	want, err := loadExpectedSim()
	if err != nil {
		t.Fatal(err)
	}
	runs := simRuns()
	if len(want) != len(runs) {
		t.Errorf("expected_sim.json holds %d runs, the sweep has %d", len(want), len(runs))
	}
	got := expectedSim{}
	for _, r := range runs {
		if !*update && r.net.Name != "AlexNet" {
			continue
		}
		res, err := runner.Run(context.Background(), r.net, r.design, runner.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		got[simKey(r.net.Name, r.design)] = statsOf(res)
		if !*update && !want.matches(res) {
			t.Errorf("%s: simulator gives %+v, expected_sim.json %+v", simKey(r.net.Name, r.design), statsOf(res), want[simKey(r.net.Name, r.design)])
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("expected_sim.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTamperedRunsAreDetected(t *testing.T) {
	m, err := newModel(miniName, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []tamper{
		{layer: 0, block: 7, offset: 3, mask: 0x01},
		{layer: -1, block: 11, offset: 63, mask: 0x80},
	} {
		res, st, ok := tamperedRun(context.Background(), m, m.inputs[0], tm)
		if !ok {
			t.Errorf("flip %+v: not reported as a typed integrity or freshness error", tm)
		}
		if res.Output != nil {
			t.Errorf("flip %+v: an output was returned", tm)
		}
		if st.plan.IsZero() {
			t.Errorf("flip %+v: the plan was never observed", tm)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := func(v float64) metric { return metric{Value: v, Parts: []float64{v * 0.99, v, v, v, v * 1.01}} }
	noisy := func(v float64) metric {
		return metric{Value: v, Parts: []float64{v * 0.7, v * 0.8, v, v * 1.2, v * 1.3}}
	}
	for _, c := range []struct {
		name string
		a, b metric
		spec metricSpec
		want string
	}{
		{"within the bound", steady(10), steady(10.9), lower, verdictOK},
		{"slower past the bound", steady(10), steady(11.5), lower, verdictRegressed},
		{"faster", steady(10), steady(5), lower, verdictOK},
		{"throughput down past the bound", steady(100), steady(85), higher, verdictRegressed},
		{"throughput up", steady(100), steady(130), higher, verdictOK},
		{"spread wider than the bound", noisy(10), noisy(11.5), lower, verdictUnresolved},
		{"noisy but every part better", noisy(10), noisy(4), lower, verdictOK},
		{"no parts: judged on the values", metric{Value: 10}, metric{Value: 12}, lower, verdictRegressed},
	} {
		if got := judge(c.a, c.b, c.spec); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareMarksOtherHostsInsteadOfJudging(t *testing.T) {
	spec := benchSpec{
		Workloads: []workloadSpec{{Name: "lib-deep"}},
		EndToEnd:  []metricSpec{{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}},
	}
	set := func(cpu string, v float64, failed int) resultSet {
		return resultSet{
			Provenance: provenance{CPUModel: cpu, NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24"},
			Workloads:  map[string]outcome{"lib-deep": {Failed: failed, Metrics: metrics{"lat_p50_ms": {Value: v}}}},
		}
	}
	out := io.Discard
	if got := compareLoaded(set("x", 10, 0), set("x", 20, 0), spec, out); got != 1 {
		t.Errorf("a 2x slowdown on one host exits %d, want 1", got)
	}
	if got := compareLoaded(set("x", 10, 0), set("y", 20, 0), spec, out); got != 0 {
		t.Errorf("sets from two hosts exit %d, want 0: they are not judged", got)
	}
	if got := compareLoaded(set("x", 10, 0), set("x", 10, 3), spec, out); got != 1 {
		t.Errorf("new failed ops exit %d, want 1", got)
	}
}

func TestQuantileFollowsTheNearestRankRule(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for p, want := range map[float64]float64{0.25: 2, 0.50: 3, 0.75: 4, 0.90: 5, 1: 5} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
}
