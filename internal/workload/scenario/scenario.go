// Package scenario runs the named workload mixes (workload.Mixes) against
// an in-process serving stack and reports percentile trajectories per
// arrival-curve phase — the serving-layer counterpart of the per-layer
// probes of the repository benchmark (benchmark/README.md). A mix declares
// the traffic shape; this package builds the matching environment (tenant registry,
// residency policy, attack interceptors, single server or gateway fleet),
// splits the offered curve across per-tenant streams, drives them with the
// seeded open-loop load generator, and folds client-side reports together
// with server-side metrics deltas into one structured result the
// regression gate can diff against a committed snapshot.
package scenario

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"seculator/internal/gateway"
	"seculator/internal/host"
	"seculator/internal/serve"
	"seculator/internal/serve/chaos"
	"seculator/internal/serve/client"
	"seculator/internal/serve/loadgen"
	"seculator/internal/workload"
)

// Options shapes a scenario run.
type Options struct {
	// Duration is the total wall time per mix, split across the mix's
	// arrival-curve phases (default 6s).
	Duration time.Duration
	// Seed drives every stream's arrival process and model population;
	// the same Seed replays the same suite (default 1).
	Seed int64
	// Scale multiplies every phase's offered rate — smoke runs use < 1 to
	// fit a CI container, capacity probes use > 1 (default 1).
	Scale float64
}

func (o *Options) setDefaults() {
	if o.Duration <= 0 {
		o.Duration = 6 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
}

// attackTenant is the adversarial tenant's API key/name in attack-laced
// mixes; honest tenants are wl-tenant-0 … wl-tenant-(N-1).
const attackTenant = "wl-evil"

func tenantKey(i int) string { return fmt.Sprintf("wl-tenant-%d", i) }

// serveOptions builds one replica's serving configuration for a mix:
// honest tenants without rate limits (shed pressure comes from the
// scheduler's queue bounds and the generator's concurrency cap), the
// residency policy the mix declares, and — for attack-laced mixes — an
// adversarial tenant whose session traffic runs through a fresh
// replay-MITM intercept per inference.
func serveOptions(m workload.Mix) serve.Options {
	tenants := make([]serve.TenantConfig, 0, m.Tenants+1)
	for i := 0; i < m.Tenants; i++ {
		tenants = append(tenants, serve.TenantConfig{Key: tenantKey(i)})
	}
	opts := serve.Options{
		Residency: serve.ResidencyConfig{Disabled: !m.Residency},
	}
	if m.AttackFraction > 0 {
		tenants = append(tenants, serve.TenantConfig{Key: attackTenant})
		opts.InterceptFor = func(tenant string) host.Intercept {
			if tenant == attackTenant {
				return chaos.ReplayIntercept()
			}
			return nil
		}
	}
	opts.Tenants = tenants
	return opts
}

// env is the running target: the URL clients hit, the URLs server-side
// metrics are scraped from (each replica directly — the gateway proxies
// traffic, not counters), and the teardown.
type env struct {
	base    string
	scrapes []string
	tenants []string
	stop    func()
}

func startEnv(m workload.Mix) (*env, error) {
	names := make([]string, 0, m.Tenants+1)
	for i := 0; i < m.Tenants; i++ {
		names = append(names, tenantKey(i))
	}
	if m.AttackFraction > 0 {
		names = append(names, attackTenant)
	}
	if m.Replicas > 1 {
		c, err := gateway.StartLocal(gateway.LocalOptions{
			Replicas:     m.Replicas,
			ServeOptions: func(int) serve.Options { return serveOptions(m) },
		})
		if err != nil {
			return nil, fmt.Errorf("scenario: mix %s: starting %d-replica fleet: %w", m.Name, m.Replicas, err)
		}
		e := &env{base: c.GatewayURL, tenants: names, stop: c.Stop}
		for _, r := range c.Replicas {
			e.scrapes = append(e.scrapes, r.URL)
		}
		return e, nil
	}
	s, err := serve.New(serveOptions(m))
	if err != nil {
		return nil, fmt.Errorf("scenario: mix %s: starting server: %w", m.Name, err)
	}
	hs := httptest.NewServer(s.Handler())
	return &env{
		base:    hs.URL,
		scrapes: []string{hs.URL},
		tenants: names,
		stop: func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			_ = s.Close(ctx)
			hs.Close()
		},
	}, nil
}

// stream is one honest traffic source: a tenant identity driving one model
// shape, session-bound or stateless.
type stream struct {
	tenant    string
	network   string
	sessions  bool
	modelSeed int64
}

// streamsFor lays the mix's model cycle over its tenants: one stream per
// max(tenants, cycle entries), tenant and model assigned round-robin, the
// first SessionRatio share session-bound. Streams sharing a cycle entry
// share a pinned model seed, so FixedModel mixes exercise the residency
// hit path across tenants the way production multi-tenant serving does.
func streamsFor(m workload.Mix) []stream {
	cycle := m.ModelCycle()
	n := m.Tenants
	if len(cycle) > n {
		n = len(cycle)
	}
	sessions := int(math.Round(m.SessionRatio * float64(n)))
	out := make([]stream, n)
	for i := range out {
		out[i] = stream{
			tenant:    tenantKey(i % m.Tenants),
			network:   cycle[i%len(cycle)],
			sessions:  i < sessions,
			modelSeed: 1000 + int64(i%len(cycle)),
		}
	}
	return out
}

// scrapeSum scrapes every replica and sums one metric across them; labels
// is a raw label substring as in chaos.MetricValueLabeled.
func scrapeSum(ctx context.Context, e *env, name, labels string) float64 {
	var sum float64
	for _, base := range e.scrapes {
		cl := client.New(base, nil)
		scrape, err := cl.Metrics(ctx)
		if err != nil {
			continue
		}
		sum += chaos.MetricValueLabeled(scrape, name, labels)
	}
	return sum
}

// serverCounters is the server-side evidence read around a phase; deltas
// between two reads attribute counter movement to that phase.
type serverCounters struct {
	shedByReason map[string]float64
	breaches     float64
	resHits      float64
	resMisses    float64
}

var shedReasons = []string{"rate", "queue", "quarantine"}

func readCounters(ctx context.Context, e *env) serverCounters {
	c := serverCounters{shedByReason: make(map[string]float64, len(shedReasons))}
	for _, reason := range shedReasons {
		for _, t := range e.tenants {
			c.shedByReason[reason] += scrapeSum(ctx, e,
				"seculator_serve_tenant_shed_total",
				fmt.Sprintf("tenant=%q,reason=%q", t, reason))
		}
	}
	for _, t := range e.tenants {
		c.breaches += scrapeSum(ctx, e, "seculator_serve_tenant_breaches_total", fmt.Sprintf("tenant=%q", t))
	}
	c.resHits = scrapeSum(ctx, e, "seculator_serve_residency_hits_total", "")
	c.resMisses = scrapeSum(ctx, e, "seculator_serve_residency_misses_total", "")
	return c
}

func (c serverCounters) delta(before serverCounters) serverCounters {
	d := serverCounters{shedByReason: make(map[string]float64, len(c.shedByReason))}
	for r, v := range c.shedByReason {
		d.shedByReason[r] = v - before.shedByReason[r]
	}
	d.breaches = c.breaches - before.breaches
	d.resHits = c.resHits - before.resHits
	d.resMisses = c.resMisses - before.resMisses
	return d
}

// phaseRun is one phase's raw outcome before serialization: the merged
// honest report plus retained samples for suite-level percentiles.
type phaseRun struct {
	result  PhaseResult
	samples []time.Duration
	attack  loadgen.Report
}

// runPhase offers one constant-rate slice of the mix: every honest stream
// plus (for attack-laced mixes) the adversarial stream run concurrently
// for the phase duration, then client reports and server counter deltas
// fold into one PhaseResult.
func runPhase(ctx context.Context, e *env, m workload.Mix, ph workload.MixPhase, phaseIdx int, d time.Duration, opts Options) (phaseRun, error) {
	streams := streamsFor(m)
	honestRPS := ph.RPS * opts.Scale * (1 - m.AttackFraction)
	perStream := honestRPS / float64(len(streams))

	before := readCounters(ctx, e)

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		reports = make([]loadgen.Report, len(streams))
		firstE  error
		attack  loadgen.Report
	)
	for i, st := range streams {
		wg.Add(1)
		go func(i int, st stream) {
			defer wg.Done()
			cl := client.New(e.base, nil)
			cl.SetAPIKey(st.tenant)
			lopts := loadgen.Options{
				RPS:         perStream,
				Duration:    d,
				Network:     st.network,
				Sessions:    st.sessions,
				FixedModel:  m.FixedModel,
				ModelSeed:   st.modelSeed,
				Poisson:     m.Arrival.Poisson,
				KeepSamples: true,
				// Distinct per (suite seed, mix, phase, stream) and stable
				// across runs: the whole suite replays from Options.Seed.
				Seed: opts.Seed*1_000_000 + int64(phaseIdx)*1_000 + int64(i) + 1,
			}
			if st.sessions {
				lopts.SessionEvery = m.SessionEvery
			}
			rep, err := loadgen.Run(ctx, cl, lopts)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstE == nil {
				firstE = fmt.Errorf("scenario: mix %s phase %s stream %d: %w", m.Name, ph.Name, i, err)
			}
			reports[i] = rep
		}(i, st)
	}
	if m.AttackFraction > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := client.New(e.base, nil)
			cl.SetAPIKey(attackTenant)
			rep := chaos.AttackStream(ctx, cl, m.Models[0].Network,
				ph.RPS*opts.Scale*m.AttackFraction, d, opts.Seed*1_000_000+int64(phaseIdx)*1_000)
			mu.Lock()
			attack = rep
			mu.Unlock()
		}()
	}
	wg.Wait()
	if firstE != nil {
		return phaseRun{}, firstE
	}

	delta := readCounters(ctx, e).delta(before)

	pr := phaseRun{attack: attack}
	res := PhaseResult{
		Name:         ph.Name,
		TargetRPS:    ph.RPS * opts.Scale,
		DurationMs:   durMs(d),
		Errors:       make(map[string]int),
		ShedByReason: make(map[string]int),
		ByReplica:    make(map[string]int),
	}
	for _, rep := range reports {
		res.Sent += rep.Sent
		res.OK += rep.OK
		res.Shed += rep.Shed
		res.SessionsOpened += rep.SessionsOpened
		res.ResidencyHits += rep.ResidencyHits
		for cls, n := range rep.Errors {
			res.Errors[cls] += n
		}
		for name, rs := range rep.ByReplica {
			res.ByReplica[name] += rs.OK
		}
		pr.samples = append(pr.samples, rep.Samples...)
	}
	sort.Slice(pr.samples, func(i, j int) bool { return pr.samples[i] < pr.samples[j] })
	res.P50ms = durMs(loadgen.Percentile(pr.samples, 0.50))
	res.P95ms = durMs(loadgen.Percentile(pr.samples, 0.95))
	res.P99ms = durMs(loadgen.Percentile(pr.samples, 0.99))
	if n := len(pr.samples); n > 0 {
		res.MaxMs = durMs(pr.samples[n-1])
	}
	if d > 0 {
		res.AchievedRPS = round2(float64(res.OK) / d.Seconds())
	}
	res.ShedRate = shedRate(res.Sent, res.Shed, res.Errors)
	for r, v := range delta.shedByReason {
		if v > 0 {
			res.ShedByReason[r] = int(v)
		}
	}
	res.Breaches = int(delta.breaches)
	if hm := delta.resHits + delta.resMisses; hm > 0 {
		res.ResidencyHitRate = round4(delta.resHits / hm)
	}
	if len(res.ByReplica) == 0 {
		res.ByReplica = nil
	}
	pr.result = res
	return pr, nil
}

// shedRate is the refused share of offered honest load: generator-side
// concurrency shed plus the server refusal classes, over everything sent.
func shedRate(sent, shed int, errs map[string]int) float64 {
	if sent == 0 {
		return 0
	}
	refused := shed
	for _, cls := range []string{serve.ClassQueueFull, serve.ClassRateLimited, serve.ClassQuarantined} {
		refused += errs[cls]
	}
	return round4(float64(refused) / float64(sent))
}

// Run drives one mix through its full arrival curve and returns the
// per-phase trajectory plus the folded overall result.
func Run(ctx context.Context, m workload.Mix, opts Options) (MixResult, error) {
	opts.setDefaults()
	if err := m.Validate(); err != nil {
		return MixResult{}, err
	}
	e, err := startEnv(m)
	if err != nil {
		return MixResult{}, err
	}
	defer e.stop()

	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()

	phases := m.Arrival.Phases()
	durations := m.PhaseDurations(opts.Duration)
	out := MixResult{Name: m.Name, Title: m.Title, Replicas: m.Replicas}
	var allSamples []time.Duration
	overall := PhaseResult{
		Name:         "overall",
		Errors:       make(map[string]int),
		ShedByReason: make(map[string]int),
		ByReplica:    make(map[string]int),
	}
	var attackTotal loadgen.Report
	attackTotal.Errors = make(map[string]int)
	for i, ph := range phases {
		pr, err := runPhase(ctx, e, m, ph, i, durations[i], opts)
		if err != nil {
			return MixResult{}, err
		}
		out.Phases = append(out.Phases, pr.result)
		allSamples = append(allSamples, pr.samples...)
		mergePhase(&overall, pr.result)
		attackTotal.Sent += pr.attack.Sent
		attackTotal.OK += pr.attack.OK
		for cls, n := range pr.attack.Errors {
			attackTotal.Errors[cls] += n
		}
	}

	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	out.ElapsedMs = durMs(time.Since(start))

	sort.Slice(allSamples, func(i, j int) bool { return allSamples[i] < allSamples[j] })
	overall.P50ms = durMs(loadgen.Percentile(allSamples, 0.50))
	overall.P95ms = durMs(loadgen.Percentile(allSamples, 0.95))
	overall.P99ms = durMs(loadgen.Percentile(allSamples, 0.99))
	if n := len(allSamples); n > 0 {
		overall.MaxMs = durMs(allSamples[n-1])
	}
	if sec := opts.Duration.Seconds(); sec > 0 {
		overall.AchievedRPS = round2(float64(overall.OK) / sec)
	}
	overall.ShedRate = shedRate(overall.Sent, overall.Shed, overall.Errors)
	overall.ResidencyHitRate = foldHitRate(out.Phases)
	if len(overall.ByReplica) == 0 {
		overall.ByReplica = nil
	}
	out.Overall = overall

	if m.AttackFraction > 0 {
		out.Attack = &AttackResult{
			Sent: attackTotal.Sent,
			Breached: attackTotal.Errors[serve.ClassFreshness] +
				attackTotal.Errors[serve.ClassChannel] +
				attackTotal.Errors[serve.ClassIntegrity],
			Quarantined: attackTotal.Errors[serve.ClassQuarantined],
			RateLimited: attackTotal.Errors[serve.ClassRateLimited],
		}
	}
	if overall.Sent > 0 {
		out.GC = GCSummary{
			AllocsPer1k: round2(float64(msAfter.Mallocs-msBefore.Mallocs) * 1000 / float64(overall.Sent)),
			KiBPer1k:    round2(float64(msAfter.TotalAlloc-msBefore.TotalAlloc) * 1000 / float64(overall.Sent) / 1024),
			Cycles:      msAfter.NumGC - msBefore.NumGC,
		}
	}
	return out, nil
}

// mergePhase folds one phase's counters into the overall accumulator
// (percentiles are recomputed from merged samples by the caller).
func mergePhase(overall *PhaseResult, ph PhaseResult) {
	overall.Sent += ph.Sent
	overall.OK += ph.OK
	overall.Shed += ph.Shed
	overall.SessionsOpened += ph.SessionsOpened
	overall.ResidencyHits += ph.ResidencyHits
	overall.Breaches += ph.Breaches
	overall.DurationMs += ph.DurationMs
	for cls, n := range ph.Errors {
		overall.Errors[cls] += n
	}
	for r, n := range ph.ShedByReason {
		overall.ShedByReason[r] += n
	}
	for name, n := range ph.ByReplica {
		overall.ByReplica[name] += n
	}
}

// foldHitRate recomputes the residency hit rate across phases from their
// rates and volumes (each phase stores a rate, not raw counts).
func foldHitRate(phases []PhaseResult) float64 {
	var hits, total float64
	for _, ph := range phases {
		if ph.ResidencyHitRate > 0 {
			// Approximate counts back out of the per-phase rate over its OK
			// volume; exact enough for the gate's coarse thresholds.
			hits += ph.ResidencyHitRate * float64(ph.OK)
			total += float64(ph.OK)
		} else if ph.OK > 0 {
			total += float64(ph.OK)
		}
	}
	if total == 0 {
		return 0
	}
	return round4(hits / total)
}

// RunAll runs every mix in order and assembles the suite result.
func RunAll(ctx context.Context, mixes []workload.Mix, opts Options) (Suite, error) {
	opts.setDefaults()
	s := Suite{
		Schema:     1,
		Suite:      "workloads",
		Seed:       opts.Seed,
		Scale:      opts.Scale,
		DurationMs: durMs(opts.Duration),
	}
	for _, m := range mixes {
		res, err := Run(ctx, m, opts)
		if err != nil {
			return Suite{}, err
		}
		s.Mixes = append(s.Mixes, res)
	}
	return s, nil
}

func durMs(d time.Duration) float64 { return round4(float64(d) / float64(time.Millisecond)) }
func round2(v float64) float64      { return math.Round(v*100) / 100 }
func round4(v float64) float64      { return math.Round(v*10000) / 10000 }
