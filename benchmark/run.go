package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"seculator/internal/runner"
	"seculator/internal/serve/loadgen"
)

const (
	// rounds is how many untraced runs of every workload a result set holds,
	// a round of all seven at a time so that a workload's runs are minutes
	// apart; the median run is reported.
	rounds = 3
	// An untraced run sets its workload up at least setupReps times, and
	// again until setupSpend has gone into set-ups or setupMax is reached;
	// setup_s is the median and the last set-up is the one measured on. The
	// contract's driver sees one run at a time and asks for a steady setup_s,
	// which one set-up of 50 ms to 400 ms is not, and the median of a 50 ms
	// set-up needs more repeats than that of a 400 ms one.
	setupReps  = 7
	setupMax   = 25
	setupSpend = 1500 * time.Millisecond
	// tracedShare is the part of a window the traced pass runs.
	tracedShare = 4
)

// outcome is what one run of one workload reports.
type outcome struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// contractLine is the outcome as the contract's driver reads it: each
// metric is its value and unit and nothing else.
func (o outcome) contractLine() any {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]valueUnit, len(o.Metrics))
	for name, v := range o.Metrics {
		m[name] = valueUnit{v.Value, v.Unit}
	}
	return struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, m}
}

// medianRun folds several runs of one workload into one outcome: each
// metric's value is the median run's, and its parts are the runs' values,
// so -compare sees how far the runs disagreed.
func medianRun(runs []outcome) outcome {
	out := outcome{Correct: true, Metrics: metrics{}}
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	for name, first := range runs[0].Metrics {
		m := metric{Unit: first.Unit}
		for _, r := range runs {
			m.Parts = append(m.Parts, r.Metrics[name].Value)
			m.Samples += r.Metrics[name].Samples
		}
		sorted := append([]float64(nil), m.Parts...)
		sort.Float64s(sorted)
		m.Value = quantile(sorted, 0.50)
		out.Metrics[name] = m
	}
	return out
}

// setUp builds the workload with process-wide simulation results dropped
// and the previous repetition's garbage collected, so every repetition pays
// for the same work.
func setUp(def workloadDef, e env) (*instance, time.Duration, error) {
	runner.ResetCache()
	runtime.GC()
	t0 := time.Now()
	inst, err := def.setup(e)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	return inst, time.Since(t0), nil
}

// untracedRun measures the end-to-end metrics of one workload.
func untracedRun(def workloadDef, e env, d time.Duration, spec benchSpec) (outcome, error) {
	var setups []time.Duration
	var spent time.Duration
	var inst *instance
	for len(setups) < setupReps || (spent < setupSpend && len(setups) < setupMax) {
		if inst != nil {
			inst.stop()
		}
		var took time.Duration
		var err error
		if inst, took, err = setUp(def, e); err != nil {
			return outcome{}, err
		}
		setups = append(setups, took)
		spent += took
	}
	defer inst.stop()
	w := inst.window(d, nil, nil)
	m, attempted, failed := w.endToEnd()
	m["setup_s"] = metric{Value: medianDur(setups).Seconds(), Samples: len(setups)}
	if err := conform(spec.EndToEnd, m); err != nil {
		return outcome{}, fmt.Errorf("%s: %w", def.name, err)
	}
	return outcome{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// tracedRun measures the per-layer metrics that belong to one workload's
// traced window; the probes measure the rest, whatever the workload.
func tracedRun(def workloadDef, e env, d time.Duration, tr *tracer) (outcome, error) {
	inst, _, err := setUp(def, e)
	if err != nil {
		return outcome{}, err
	}
	defer inst.stop()

	counters := func() (map[string]float64, error) {
		if inst.counters == nil {
			return map[string]float64{}, nil
		}
		return inst.counters()
	}
	before, err := counters()
	if err != nil {
		return outcome{}, fmt.Errorf("%s: scraping /metrics: %w", def.name, err)
	}
	rs := &respStats{}
	peak := watchGoroutines()
	w := inst.window(d/tracedShare, tr, rs)
	goroutines := peak()
	after, err := counters()
	if err != nil {
		return outcome{}, fmt.Errorf("%s: scraping /metrics: %w", def.name, err)
	}

	n, failed := len(w.samples), 0
	for _, s := range w.samples {
		if !s.ok {
			failed++
		}
	}
	m := w.wholeWindow()
	set := func(name string, v float64, samples int) { m[name] = metric{Value: v, Samples: samples} }
	delta := func(key string) float64 { return after[key] - before[key] }
	share := func(part, whole float64) float64 {
		if whole == 0 {
			return 0
		}
		return part / whole
	}

	// What the server said about its own time, per response.
	queue := sortDurs(rs.queue)
	set("serve.queue_ms_p50", ms(loadgen.Percentile(queue, 0.50)), rs.n)
	set("serve.queue_ms_p90", ms(loadgen.Percentile(queue, 0.90)), rs.n)
	set("serve.run_ms_p50", ms(loadgen.Percentile(sortDurs(rs.run), 0.50)), rs.n)
	set("serve.residual_ms_p50", ms(loadgen.Percentile(sortDurs(rs.residual), 0.50)), rs.n)
	set("serve.batch_mean", share(float64(rs.batch), float64(rs.n)), rs.n)
	busiest := 0
	for _, c := range rs.byReplica {
		busiest = max(busiest, c)
	}
	set("gateway.replica_share_max", share(float64(busiest), float64(rs.n)), rs.n)

	// What its counters said, over the traced window.
	set("serve.residency_hit_share", share(delta("residency_hits"), delta("residency_hits")+delta("residency_misses")), n)
	set("serve.residency_evictions", delta("residency_evictions"), n)
	set("serve.resident_bytes", after["resident_bytes"], 1)
	set("serve.shed_share", share(delta("shed"), float64(n)), n)
	set("gateway.retries", delta("gateway_retries"), n)
	set("gateway.migrations", delta("gateway_migrations"), n)
	set("gateway.ejections", delta("gateway_ejections"), n)

	// The driver's own numbers.
	lats := w.okLatencies(func(sample) bool { return true })
	within := sort.Search(len(lats), func(i int) bool { return lats[i] > def.slo })
	set("lat_p90_ms", ms(loadgen.Percentile(lats, 0.90)), len(lats))
	set("slo_ok_share", share(float64(within), float64(n)), n)
	set("client.lat_p99_ms", ms(loadgen.Percentile(lats, 0.99)), len(lats))
	set("client.lat_max_ms", ms(loadgen.Percentile(lats, 1)), len(lats))
	set("client.samples", float64(len(lats)), len(lats))
	set("client.gen_late_ms_p99", ms(loadgen.Percentile(sortDurs(w.late), 0.99)), len(w.late))
	secs := w.length().Seconds()
	set("go.gc_cycles_per_s", float64(w.after.gcs-w.before.gcs)/secs, n)
	set("go.gc_pause_ms_per_s", ms(w.after.gcPause-w.before.gcPause)/secs, n)
	set("go.kib_per_op", share(float64(w.after.bytes-w.before.bytes)/1024, float64(n)), n)
	set("go.goroutines_peak", float64(goroutines), n)
	// Every other op of the window was traced; the rest are the reference.
	traced := loadgen.Percentile(w.okLatencies(func(s sample) bool { return s.traced }), 0.50)
	plain := loadgen.Percentile(w.okLatencies(func(s sample) bool { return !s.traced }), 0.50)
	set("trace.overhead_pct", 100*share(float64(traced-plain), float64(plain)), len(lats))
	set("fail_share", share(float64(failed), float64(n)), n)
	return outcome{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: m}, nil
}

// watchGoroutines samples the goroutine count until the returned function
// is called, which reports the peak.
func watchGoroutines() func() int {
	stop, done := make(chan struct{}), make(chan int)
	go func() {
		peak := runtime.NumGoroutine()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()
	return func() int { close(stop); return <-done }
}
