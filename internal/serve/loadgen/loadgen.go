// Package loadgen drives the serving layer at a target request rate and
// reports the latency distribution — the serving-performance counterpart
// of the per-layer probes of the repository benchmark (benchmark/README.md).
//
// The generator is open-loop: arrivals fire on a fixed schedule regardless
// of completions (the "millions of users" shape — users do not wait for
// each other), with a concurrency cap as the safety valve. Requests that
// would exceed the cap are counted as shed rather than silently delaying
// the schedule, so overload shows up in the report instead of bending the
// arrival process.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"seculator/internal/serve"
	"seculator/internal/serve/client"
)

// Inferer is the request sink: the typed client satisfies it, and tests
// can drive a server in-process through it.
type Inferer interface {
	Infer(ctx context.Context, req serve.InferRequest) (serve.InferResponse, error)
}

// Options shapes a load run.
type Options struct {
	// RPS is the target arrival rate (default 50).
	RPS float64
	// Duration is how long to generate load (default 3s).
	Duration time.Duration
	// Concurrency caps in-flight requests (default 4x RPS, min 8);
	// arrivals beyond it are shed and counted.
	Concurrency int
	// Network names the model every request runs (default "Mini").
	Network string
	// Sessions, when true, opens one secure session per worker slot and
	// binds its requests to it — the command channel joins the measured
	// path.
	Sessions bool
	// TimeoutMs is the per-request deadline sent to the server (0 uses
	// the server default).
	TimeoutMs int64
	// FixedModel pins every request to one model (ModelSeed) and varies
	// the activation input instead — the production serving shape, where
	// the server's residency cache verifies and pins the weights once and
	// every later request attaches. Without it, seeds vary per request
	// (seed = request index): a distinct model per request, the
	// residency-hostile worst case.
	FixedModel bool
	// ModelSeed is the pinned model under FixedModel.
	ModelSeed int64

	// Seed makes the whole arrival/think-time process reproducible: the
	// inter-arrival gaps (under Poisson), the per-request model seeds, and
	// therefore the entire request schedule derive from it. Two runs with
	// the same options produce the identical Schedule. Zero keeps the
	// legacy shape: uniform spacing with sequential request seeds 1, 2, …
	Seed int64
	// Poisson draws exponential (memoryless) inter-arrival gaps with mean
	// 1/RPS instead of uniform spacing — the open-loop arrival process of
	// independent users. The gap sequence is seeded by Seed, so it is
	// reproducible run to run.
	Poisson bool
}

func (o *Options) setDefaults() {
	if o.RPS <= 0 {
		o.RPS = 50
	}
	if o.Duration <= 0 {
		o.Duration = 3 * time.Second
	}
	if o.Concurrency <= 0 {
		o.Concurrency = int(4 * o.RPS)
		if o.Concurrency < 8 {
			o.Concurrency = 8
		}
	}
	if o.Network == "" {
		o.Network = "Mini"
	}
}

// Report is the outcome of a load run.
type Report struct {
	Sent, OK, Shed int
	Errors         map[string]int // error class (or "transport") -> count
	Elapsed        time.Duration
	AchievedRPS    float64 // completed OK per second of run time
	P50, P95, P99  time.Duration
	Max            time.Duration
	ResidencyHits  int // OK requests that rode the server's pinned weights

	// ByReplica attributes completed requests to the replica that served
	// them. Populated only when the target is a gateway (which stamps
	// InferResponse.Replica); direct single-replica runs leave it empty.
	ByReplica map[string]ReplicaStats

	// GC is the process-wide memory churn over the run window
	// (runtime.ReadMemStats deltas). For in-process targets it covers the
	// full server hot path; against a remote -target it measures only the
	// generator's own side, which is still the regression signal the
	// zero-allocation serving work watches.
	GC GCStats
}

// GCStats is the allocation/collector activity attributable to a run.
type GCStats struct {
	Mallocs    uint64        // heap objects allocated during the run
	AllocBytes uint64        // bytes allocated during the run
	Cycles     uint32        // GC cycles completed during the run
	PauseTotal time.Duration // stop-the-world pause time accumulated
}

// perThousand normalizes a per-run counter to per-1000-requests so runs of
// different lengths compare directly.
func perThousand(v uint64, requests int) float64 {
	if requests == 0 {
		return 0
	}
	return float64(v) * 1000 / float64(requests)
}

// ReplicaStats is one replica's slice of a gateway load run.
type ReplicaStats struct {
	OK            int
	P50, P95, P99 time.Duration
}

// String renders the report for humans.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadgen: %d sent, %d ok, %d shed, %d errors in %v\n",
		r.Sent, r.OK, r.Shed, r.Sent-r.OK-r.Shed, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  throughput: %.1f req/s sustained\n", r.AchievedRPS)
	fmt.Fprintf(&b, "  latency: p50 %v  p95 %v  p99 %v  max %v\n",
		r.P50.Round(10*time.Microsecond), r.P95.Round(10*time.Microsecond),
		r.P99.Round(10*time.Microsecond), r.Max.Round(10*time.Microsecond))
	if r.Sent > 0 {
		fmt.Fprintf(&b, "  gc: %.0f allocs / %.0f KiB per 1k requests, %d cycles (%.2f per 1k), pause total %v\n",
			perThousand(r.GC.Mallocs, r.Sent), perThousand(r.GC.AllocBytes, r.Sent)/1024,
			r.GC.Cycles, perThousand(uint64(r.GC.Cycles), r.Sent),
			r.GC.PauseTotal.Round(10*time.Microsecond))
	}
	if r.ResidencyHits > 0 {
		fmt.Fprintf(&b, "  residency: %d/%d hits\n", r.ResidencyHits, r.OK)
	}
	if len(r.ByReplica) > 0 {
		names := make([]string, 0, len(r.ByReplica))
		for n := range r.ByReplica {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			rs := r.ByReplica[n]
			fmt.Fprintf(&b, "  replica %s: %d ok  p50 %v  p95 %v  p99 %v\n", n, rs.OK,
				rs.P50.Round(10*time.Microsecond), rs.P95.Round(10*time.Microsecond),
				rs.P99.Round(10*time.Microsecond))
		}
	}
	if len(r.Errors) > 0 {
		classes := make([]string, 0, len(r.Errors))
		for c := range r.Errors {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		fmt.Fprintf(&b, "  errors:")
		for _, c := range classes {
			fmt.Fprintf(&b, " %s=%d", c, r.Errors[c])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Arrival is one scheduled request: its offset from the run start and the
// model seed it carries (the input seed under FixedModel).
type Arrival struct {
	At   time.Duration
	Seed int64
}

// Schedule derives the request schedule from the options, deterministically:
// the same options (Seed included) always produce the identical arrival
// sequence, which is what makes workload runs reproducible and diffable.
// Constant arrivals space uniformly at 1/RPS; Poisson draws exponential
// gaps with the same mean from the seeded generator. Per-request seeds are
// sequential (1, 2, …) when Seed is zero — the legacy loadgen shape — and
// drawn from the seeded generator otherwise, so distinct Seeds also offer
// distinct model populations.
func Schedule(opts Options) []Arrival {
	opts.setDefaults()
	interval := time.Duration(float64(time.Second) / opts.RPS)
	if interval <= 0 {
		interval = time.Microsecond
	}
	var rng *rand.Rand
	if opts.Seed != 0 || opts.Poisson {
		rng = rand.New(rand.NewSource(opts.Seed))
	}
	sched := make([]Arrival, 0, int(opts.Duration/interval)+1)
	at := time.Duration(0)
	for i := 0; ; i++ {
		gap := interval
		if opts.Poisson {
			gap = time.Duration(rng.ExpFloat64() * float64(interval))
			if gap < time.Nanosecond {
				gap = time.Nanosecond
			}
		}
		at += gap
		if at > opts.Duration {
			break
		}
		seed := int64(i) + 1
		if opts.Seed != 0 {
			seed = rng.Int63()
		}
		sched = append(sched, Arrival{At: at, Seed: seed})
	}
	return sched
}

// Run drives target at the configured rate until the duration elapses or
// ctx is cancelled, then waits for in-flight requests and reports.
func Run(ctx context.Context, target Inferer, opts Options) (Report, error) {
	opts.setDefaults()

	var (
		mu        sync.Mutex
		lats      []time.Duration
		byReplica = make(map[string][]time.Duration)
		rep       Report
		wg        sync.WaitGroup
		slots     = make(chan struct{}, opts.Concurrency)
		sessionID string
		inputLen  int
	)
	rep.Errors = make(map[string]int)

	if opts.FixedModel {
		net, err := serve.ResolveNetwork(opts.Network)
		if err != nil {
			return Report{}, fmt.Errorf("loadgen: FixedModel: %w", err)
		}
		first := net.Layers[0]
		inputLen = first.C * first.H * first.W
	}

	if opts.Sessions {
		c, ok := target.(*client.Client)
		if !ok {
			return Report{}, fmt.Errorf("loadgen: Sessions requires a *client.Client target")
		}
		sres, err := c.CreateSession(ctx, serve.SessionCreateRequest{})
		if err != nil {
			return Report{}, fmt.Errorf("loadgen: opening session: %w", err)
		}
		sessionID = sres.SessionID
	}

	sched := Schedule(opts)

	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	start := time.Now()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()

arrivals:
	for _, a := range sched {
		// Open loop: fire at the scheduled offset; a generator running
		// behind fires immediately rather than bending the schedule.
		if wait := time.Until(start.Add(a.At)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				break arrivals
			case <-timer.C:
			}
		} else if ctx.Err() != nil {
			break arrivals
		}
		rep.Sent++
		select {
		case slots <- struct{}{}:
		default:
			rep.Shed++
			continue
		}
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			defer func() { <-slots }()
			req := serve.InferRequest{
				Network:   opts.Network,
				Seed:      seed,
				Session:   sessionID,
				TimeoutMs: opts.TimeoutMs,
			}
			if opts.FixedModel {
				req.Seed = opts.ModelSeed
				req.Input = varyInput(inputLen, seed)
			}
			t0 := time.Now()
			resp, err := target.Infer(ctx, req)
			lat := time.Since(t0)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				var ae *client.APIError
				switch {
				case errors.As(err, &ae):
					rep.Errors[ae.Body.Class]++
				case ctx.Err() != nil:
					rep.Errors["canceled"]++
				default:
					rep.Errors["transport"]++
				}
				return
			}
			rep.OK++
			lats = append(lats, lat)
			if resp.Replica != "" {
				byReplica[resp.Replica] = append(byReplica[resp.Replica], lat)
			}
			if resp.ResidencyHit {
				rep.ResidencyHits++
			}
		}(a.Seed)
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)

	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	rep.GC = GCStats{
		Mallocs:    msAfter.Mallocs - msBefore.Mallocs,
		AllocBytes: msAfter.TotalAlloc - msBefore.TotalAlloc,
		Cycles:     msAfter.NumGC - msBefore.NumGC,
		PauseTotal: time.Duration(msAfter.PauseTotalNs - msBefore.PauseTotalNs),
	}

	if rep.Elapsed > 0 {
		rep.AchievedRPS = float64(rep.OK) / rep.Elapsed.Seconds()
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rep.P50 = Percentile(lats, 0.50)
		rep.P95 = Percentile(lats, 0.95)
		rep.P99 = Percentile(lats, 0.99)
		rep.Max = lats[len(lats)-1]
	}
	if len(byReplica) > 0 {
		rep.ByReplica = make(map[string]ReplicaStats, len(byReplica))
		for name, rl := range byReplica {
			sort.Slice(rl, func(i, j int) bool { return rl[i] < rl[j] })
			rep.ByReplica[name] = ReplicaStats{
				OK:  len(rl),
				P50: Percentile(rl, 0.50),
				P95: Percentile(rl, 0.95),
				P99: Percentile(rl, 0.99),
			}
		}
	}
	return rep, nil
}

// varyInput derives a deterministic per-request activation input: under
// FixedModel the model stays pinned while every request still computes on
// distinct data.
func varyInput(n int, seed int64) []int32 {
	in := make([]int32, n)
	x := uint64(seed)*2654435761 + 12345
	for i := range in {
		x = x*6364136223846793005 + 1442695040888963407
		in[i] = int32(x>>33)%257 - 128
	}
	return in
}

// Percentile returns the p-quantile of the ascending-sorted samples by the
// nearest-rank method: the smallest value with at least p of the sample at
// or below it, rank ⌈p·n⌉. The previous rounding formula read one rank low
// whenever p·n had a fraction under one half — on 99 samples p99 reported
// the 98th value instead of the maximum — which matters exactly in small
// samples such as one replica's slice of a gateway run. The epsilon absorbs
// float artifacts like 0.95·1000 = 950.0000000000001, which would otherwise
// ceil to rank 951.
func Percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
