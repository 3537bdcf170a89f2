package main

import (
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"seculator/internal/serve/loadgen"
)

const (
	// slices is how many equal parts a closed-loop window is cut into: the
	// throughput a window reports is the median of its slices, so a
	// disturbance that hits one slice does not move the result.
	slices = 5
	// quietShare is the percentile of the latencies of one kind of op that
	// lat_quiet_ms takes as that kind's latency on a quiet host; up to 500
	// repeats the nearest rank is the fastest one.
	quietShare = 0.002
)

// sample is one attempted op of a timed window.
type sample struct {
	kind   int           // ops of one kind do the same amount of work
	done   time.Duration // completion, from window start
	lat    time.Duration // closed loop: call to return; open loop: due to response
	ok     bool          // verified correct
	traced bool          // spans were recorded for this op
}

// usage is the process-wide resource reading taken at both ends of a
// window.
type usage struct {
	cpu      time.Duration // user + system
	mallocs  uint64
	bytes    uint64
	gcs      uint32
	gcPause  time.Duration
	heapLive uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcs:      ms.NumGC,
		gcPause:  time.Duration(ms.PauseTotalNs),
		heapLive: ms.HeapAlloc,
	}
}

// window is the raw outcome of one timed window.
type window struct {
	samples []sample // in completion order
	// bounds are the ends of the window's parts, ascending; the last is the
	// window's end. A closed loop has its slices, sim-sweep its sweeps; an
	// open loop is one part, because its rate steps differ by design.
	bounds []time.Duration
	before usage
	after  usage           // heapLive is read after forced collections: what stays resident
	late   []time.Duration // open loop: how late the generator fired each arrival
}

func (w *window) length() time.Duration { return w.bounds[len(w.bounds)-1] }

// measured wraps body with the resource readings every window takes.
func measured(body func(start time.Time) window) window {
	runtime.GC()
	before := readUsage()
	w := body(time.Now())
	after := readUsage()
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second drops them. What is left is what stays resident
	// whenever the collector runs — residency, caches, sessions, servers —
	// not how many pooled buffers the last few milliseconds happened to park.
	runtime.GC()
	runtime.GC()
	// The window's own samples are live too, and there are as many as ops
	// completed; without this a faster program would read as a larger heap.
	own := uint64(cap(w.samples))*uint64(unsafe.Sizeof(sample{})) + uint64(cap(w.late))*uint64(unsafe.Sizeof(time.Duration(0)))
	live := readUsage().heapLive
	after.heapLive = live - min(own, live)
	w.before, w.after = before, after
	sort.Slice(w.samples, func(i, j int) bool { return w.samples[i].done < w.samples[j].done })
	return w
}

// opFunc runs one verified op for a client; seq counts that client's ops.
// Ops that return the same kind do the same amount of work, whatever their
// input.
type opFunc func(client, seq int, ot *opTrace) (kind int, ok bool)

// runClosed drives a closed loop: each client issues its next op when the
// previous one returns, until d has passed. An op started inside the
// window is finished and counted. With a tracer, every other op is traced:
// the traced and untraced halves share the window, so their difference is
// what tracing costs and nothing else.
func runClosed(name string, clients int, d time.Duration, tr *tracer, op opFunc) window {
	return measured(func(start time.Time) window {
		per := make([][]sample, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; ; i++ {
					t0 := time.Now()
					if t0.Sub(start) >= d {
						return
					}
					var ot *opTrace
					if i%2 == 0 {
						ot = tr.begin(name, t0)
					}
					kind, ok := op(c, i, ot)
					t1 := time.Now()
					ot.end(t1)
					per[c] = append(per[c], sample{kind: kind, done: t1.Sub(start), lat: t1.Sub(t0), ok: ok, traced: ot != nil})
				}
			}(c)
		}
		wg.Wait()
		var w window
		end := d
		for c := range per {
			w.samples = append(w.samples, per[c]...)
			for _, s := range per[c] {
				end = max(end, s.done)
			}
		}
		// Equal slices of the nominal window; ops that ran past its end
		// belong to the last one, which is as long as it really was.
		for k := 1; k < slices; k++ {
			w.bounds = append(w.bounds, d*time.Duration(k)/slices)
		}
		w.bounds = append(w.bounds, end)
		return w
	})
}

// arrival is one scheduled request of an open loop.
type arrival struct {
	due   time.Duration // from window start
	input int
}

// openLoop is an open-loop run: arrivals fire on their schedule whatever
// the system does, and wait for a free connection if all are busy.
type openLoop struct {
	name     string
	arrivals []arrival
	conns    int
	send     func(conn int, a arrival, ot *opTrace, root int) bool
	sleep    func(time.Duration) // time.Sleep outside tests
}

// run fires every arrival at its due time from one generator goroutine and
// serves them from conns workers. Latency runs from the due time, so a
// stall is charged to every request it delays; how late the generator
// itself fired is reported separately.
func (o openLoop) run(tr *tracer) window {
	return measured(func(start time.Time) window {
		type fired struct {
			i  int
			at time.Time
		}
		// Buffered to the whole schedule: the generator never blocks on a
		// busy connection, which is what keeps the loop open.
		queue := make(chan fired, len(o.arrivals))
		late := make([]time.Duration, len(o.arrivals))
		go func() {
			for i, a := range o.arrivals {
				if wait := time.Until(start.Add(a.due)); wait > 0 {
					o.sleep(wait)
				}
				now := time.Now()
				late[i] = now.Sub(start.Add(a.due))
				queue <- fired{i, now}
			}
			close(queue)
		}()
		per := make([][]sample, o.conns)
		var wg sync.WaitGroup
		for c := 0; c < o.conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for f := range queue {
					a := o.arrivals[f.i]
					due := start.Add(a.due)
					var ot *opTrace
					if f.i%2 == 0 {
						ot = tr.begin(o.name, due)
					}
					sent := time.Now()
					ot.child(0, "client.wait", due, sent)
					ok := o.send(c, a, ot, 0)
					done := time.Now()
					ot.end(done)
					per[c] = append(per[c], sample{done: done.Sub(start), lat: done.Sub(due), ok: ok, traced: ot != nil})
				}
			}(c)
		}
		wg.Wait()
		w := window{late: late}
		var end time.Duration
		for c := range per {
			w.samples = append(w.samples, per[c]...)
			for _, s := range per[c] {
				end = max(end, s.done)
			}
		}
		// One part, as long as the last response took to arrive.
		w.bounds = []time.Duration{end}
		return w
	})
}

// partRates returns the verified-OK ops per second of each part of the
// window that completed any. A part's length runs from the last completion
// before it to its own last completion, so its rate is ops over the time
// they really took, not over a fixed grid the count is then quantised by.
func (w *window) partRates() []float64 {
	ok := make([]int, len(w.bounds))
	last := make([]time.Duration, len(w.bounds))
	k := 0
	for _, s := range w.samples {
		for k < len(w.bounds)-1 && s.done > w.bounds[k] {
			k++
		}
		last[k] = s.done
		if s.ok {
			ok[k]++
		}
	}
	var rates []float64
	var from time.Duration
	for k, n := range ok {
		length := last[k] - from
		from = max(from, last[k])
		if n > 0 && length > 0 {
			rates = append(rates, float64(n)/length.Seconds())
		}
	}
	return rates
}

// quietLatency is what the window's mean latency would have been had every
// op run undisturbed. The host's speed moves by half in phases of
// milliseconds to minutes (README.md, "Why the quiet latency"), so a median
// over all samples measures the neighbours as much as the program. Ops of
// one kind do the same work, and the fast end of their latencies is the
// program's own time: every verified op counts with the quietShare
// percentile of its kind, and the mean over the ops is reported.
func (w *window) quietLatency() time.Duration {
	byKind := map[int][]time.Duration{}
	for _, s := range w.samples {
		if s.ok {
			byKind[s.kind] = append(byKind[s.kind], s.lat)
		}
	}
	var sum, n time.Duration
	for _, lats := range byKind {
		sum += time.Duration(len(lats)) * loadgen.Percentile(sortDurs(lats), quietShare)
		n += time.Duration(len(lats))
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// endToEnd turns a window into its end-to-end metrics, all but setup_s.
func (w *window) endToEnd() (m metrics, attempted, failed int) {
	attempted = len(w.samples)
	for _, s := range w.samples {
		if !s.ok {
			failed++
		}
	}
	m = metrics{
		"lat_quiet_ms":  {Value: ms(w.quietLatency()), Samples: attempted - failed},
		"heap_live_mib": {Value: float64(w.after.heapLive) / (1 << 20), Samples: 1},
	}
	if attempted > 0 {
		m["allocs_per_op"] = metric{Value: float64(w.after.mallocs-w.before.mallocs) / float64(attempted), Samples: attempted}
	}
	return m, attempted, failed
}

// wholeWindow gives the time-based metrics taken over the whole window,
// whatever the host was doing: throughput is the median part's, latency the
// median over every verified op. They move with the host's speed, by 14 to
// 38 % between runs of identical code when the benchmark was defined, so
// they are per-layer metrics, without a bound.
func (w *window) wholeWindow() metrics {
	lats := w.okLatencies(func(sample) bool { return true })
	m := metrics{"lat_p50_ms": {Value: ms(loadgen.Percentile(lats, 0.50)), Samples: len(lats)}}
	rates := w.partRates()
	sort.Float64s(rates)
	m["ops_per_s"] = metric{Value: quantile(rates, 0.50), Samples: len(lats)}
	n := max(len(w.samples), 1)
	m["cpu_ms_per_op"] = metric{Value: ms(w.after.cpu-w.before.cpu) / float64(n), Samples: len(w.samples)}
	return m
}

// sortDurs sorts d ascending in place and returns it, ready for
// loadgen.Percentile.
func sortDurs(d []time.Duration) []time.Duration {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d
}

// medianDur is the nearest-rank median of an unsorted duration series.
func medianDur(xs []time.Duration) time.Duration {
	return loadgen.Percentile(sortDurs(append([]time.Duration(nil), xs...)), 0.50)
}

// okLatencies returns the sorted latencies of the verified ops that pass
// keep.
func (w *window) okLatencies(keep func(sample) bool) []time.Duration {
	var lats []time.Duration
	for _, s := range w.samples {
		if s.ok && keep(s) {
			lats = append(lats, s.lat)
		}
	}
	return sortDurs(lats)
}
