// Package chaos drives the serving layer through seeded fault campaigns
// and checks the multi-tenant isolation invariants the hardening work
// promises: while an adversarial tenant floods the front with attack-laced
// traffic at a multiple of its rate limit, honest tenants keep a zero
// error rate and a bounded p99; the adversary's breaker opens, holds, and
// recovers through half-open probes once the attack stops; and a
// mid-campaign process restart carries every live session across on sealed
// snapshots, bit-identically.
//
// A campaign is three phases over a fresh in-process server:
//
//	baseline — every tenant offers honest traffic; per-tenant p99 recorded.
//	attack   — adversarial plans switch to replay-MITM traffic at
//	           AttackRPS; slow plans stall inside the executor; honest
//	           plans keep their baseline load. With Restart set, the
//	           server dies mid-attack: all sessions are snapshotted,
//	           a fresh process restores them, and the attack resumes
//	           against it (re-opening the adversary's breaker there).
//	recovery — the attack stops; everyone offers honest traffic again and
//	           the adversary's breaker must close via clean probes.
//
// Everything is deterministic from Options.Seed apart from goroutine
// scheduling: client jitter, load seeds, and fault choices all derive from
// it, so a failing campaign replays.
package chaos

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seculator/internal/host"
	"seculator/internal/mem"
	"seculator/internal/secure"
	"seculator/internal/serve"
	"seculator/internal/serve/client"
	"seculator/internal/serve/loadgen"
)

// Phase names a campaign stage.
type Phase string

// The campaign stages, in order.
const (
	PhaseBaseline Phase = "baseline"
	PhaseAttack   Phase = "attack"
	PhaseRecovery Phase = "recovery"
)

// Phases returns the campaign stages in execution order.
func Phases() []Phase { return []Phase{PhaseBaseline, PhaseAttack, PhaseRecovery} }

// TenantPlan is one tenant's role in the campaign.
type TenantPlan struct {
	// Tenant is registered with the server as-is (key, weight, rate).
	Tenant serve.TenantConfig
	// RPS is the tenant's honest offered rate (default 20).
	RPS float64
	// AttackRPS is the offered rate during the attack phase for
	// adversarial plans (default 2x the tenant's rate limit).
	AttackRPS float64
	// Adversarial routes the tenant's attack-phase traffic through a
	// replay man-in-the-middle: every request opens a session and splices
	// a captured layer-2 command over layer 4, a guaranteed VN breach.
	Adversarial bool
	// SlowEveryLayerMs stalls this tenant's executor after every layer —
	// the slow-tenant fault. Slow tenants are exempt from the honest
	// invariants but must not perturb anyone else.
	SlowEveryLayerMs int
	// Sessions binds the tenant's honest traffic to a secure session so
	// the authenticated command channel rides through the campaign (and
	// across the restart).
	Sessions bool
}

// honestStrict reports whether the plan is held to the honest-tenant
// invariants (zero errors, bounded p99).
func (p TenantPlan) honestStrict() bool { return !p.Adversarial && p.SlowEveryLayerMs == 0 }

// Options shapes a campaign.
type Options struct {
	// Seed drives every derived PRNG (client jitter, load seeds).
	Seed int64
	// Plans are the tenants; at least one adversarial and one strict
	// honest plan make the invariants meaningful.
	Plans []TenantPlan
	// Scheduler, Quarantine and SnapshotKey configure the server under
	// test (zero values use the serve defaults; a random snapshot key is
	// generated once and shared across the restart).
	Scheduler   serve.SchedulerConfig
	Quarantine  serve.QuarantineConfig
	SnapshotKey []byte
	// Network names the model all traffic runs (default "Mini").
	Network string
	// PhaseFor is the wall time per phase (default 1s).
	PhaseFor time.Duration
	// Restart kills the server halfway through the attack phase: all
	// sessions are snapshotted, a fresh process restores them, and the
	// attack resumes against the new process. Mid-attack (rather than
	// between phases) so the campaign also proves the breaker re-earns
	// the quarantine on the replacement replica.
	Restart bool
	// P99Floor absorbs timer noise on fast paths: the honest p99 bound is
	// max(2x baseline, P99Floor) (default 100ms).
	P99Floor time.Duration
	// Logf, when set, narrates the campaign (e.g. t.Logf).
	Logf func(format string, args ...any)
}

func (o *Options) setDefaults() {
	if o.Network == "" {
		o.Network = "Mini"
	}
	if o.PhaseFor <= 0 {
		o.PhaseFor = time.Second
	}
	if o.P99Floor <= 0 {
		o.P99Floor = 100 * time.Millisecond
	}
	for i := range o.Plans {
		if o.Plans[i].RPS <= 0 {
			o.Plans[i].RPS = 20
		}
		if o.Plans[i].Adversarial && o.Plans[i].AttackRPS <= 0 {
			o.Plans[i].AttackRPS = 2 * o.Plans[i].Tenant.RateRPS
			if o.Plans[i].AttackRPS <= 0 {
				o.Plans[i].AttackRPS = 2 * o.Plans[i].RPS
			}
		}
	}
}

// Result is the campaign outcome: per-phase per-tenant load reports, the
// breaker evidence scraped from /metrics, and the invariant violations
// (empty means the campaign passed).
type Result struct {
	Reports      map[Phase]map[string]loadgen.Report
	BreakerOpens map[string]float64 // tenant -> breaker opens at campaign end
	FinalState   map[string]float64 // tenant -> breaker state gauge at campaign end
	// RestartVerified is true when Options.Restart ran and every probe
	// session came back bit-identical (same sealed payload, same output).
	RestartVerified bool
	Violations      []string
}

// Ok reports whether every isolation invariant held.
func (r Result) Ok() bool { return len(r.Violations) == 0 }

// String renders the campaign outcome for humans.
func (r Result) String() string {
	var b strings.Builder
	for _, ph := range Phases() {
		byTenant := r.Reports[ph]
		names := make([]string, 0, len(byTenant))
		for n := range byTenant {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			rep := byTenant[n]
			errs := rep.Sent - rep.OK - rep.Shed
			fmt.Fprintf(&b, "%-8s %-8s ok=%-5d errors=%-5d shed=%-4d p99=%v\n",
				ph, n, rep.OK, errs, rep.Shed, rep.P99.Round(time.Millisecond))
		}
	}
	if len(r.Violations) == 0 {
		fmt.Fprintf(&b, "campaign PASS (restart verified: %v)\n", r.RestartVerified)
	} else {
		fmt.Fprintf(&b, "campaign FAIL: %d violations\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  - %s\n", v)
		}
	}
	return b.String()
}

// campaign holds the live state of one run.
type campaign struct {
	opts      Options
	attacking atomic.Bool

	srv  *serve.Server
	hs   *http.Server
	base string
}

// Run executes the campaign and returns the evidence. The error covers
// harness-level failures (server refused to start, snapshot API broke);
// invariant breaks land in Result.Violations instead so a test can print
// the whole picture before failing.
func Run(ctx context.Context, opts Options) (Result, error) {
	opts.setDefaults()
	if len(opts.Plans) == 0 {
		return Result{}, errors.New("chaos: no tenant plans")
	}
	if len(opts.SnapshotKey) == 0 {
		// Both server incarnations must share the sealing key or the
		// mid-attack restore would (correctly) reject every snapshot.
		opts.SnapshotKey = make([]byte, 32)
		if _, err := rand.Read(opts.SnapshotKey); err != nil {
			return Result{}, fmt.Errorf("chaos: snapshot key: %w", err)
		}
	}
	c := &campaign{opts: opts}
	res := Result{
		Reports:      make(map[Phase]map[string]loadgen.Report),
		BreakerOpens: make(map[string]float64),
		FinalState:   make(map[string]float64),
	}
	if err := c.start(); err != nil {
		return res, err
	}
	defer c.stop(context.Background())

	c.logf("chaos: baseline phase (%v)", opts.PhaseFor)
	res.Reports[PhaseBaseline] = c.runPhase(ctx, PhaseBaseline, opts.PhaseFor)
	c.attacking.Store(true)
	if opts.Restart {
		half := opts.PhaseFor / 2
		c.logf("chaos: attack phase, first half (%v)", half)
		first := c.runPhase(ctx, PhaseAttack, half)
		c.logf("chaos: mid-attack restart")
		ok, err := c.restart(ctx, &res)
		if err != nil {
			return res, err
		}
		res.RestartVerified = ok
		c.logf("chaos: attack phase, second half (%v)", half)
		res.Reports[PhaseAttack] = mergeReports(first, c.runPhase(ctx, PhaseAttack, half))
	} else {
		c.logf("chaos: attack phase (%v)", opts.PhaseFor)
		res.Reports[PhaseAttack] = c.runPhase(ctx, PhaseAttack, opts.PhaseFor)
	}
	c.attacking.Store(false)

	c.logf("chaos: recovery phase (%v)", opts.PhaseFor)
	res.Reports[PhaseRecovery] = c.runPhase(ctx, PhaseRecovery, opts.PhaseFor)

	scrape, err := client.New(c.base, nil).Metrics(ctx)
	if err != nil {
		return res, fmt.Errorf("chaos: final scrape: %w", err)
	}
	c.check(&res, scrape)
	return res, nil
}

func (c *campaign) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// serveOptions builds the server config; the fault injectors key off the
// campaign's live attack switch so the same server serves every phase.
func (c *campaign) serveOptions() serve.Options {
	adversarial := make(map[string]bool)
	slow := make(map[string]time.Duration)
	tenants := make([]serve.TenantConfig, 0, len(c.opts.Plans))
	for _, p := range c.opts.Plans {
		tenants = append(tenants, p.Tenant)
		if p.Adversarial {
			adversarial[p.Tenant.Name] = true
		}
		if p.SlowEveryLayerMs > 0 {
			slow[p.Tenant.Name] = time.Duration(p.SlowEveryLayerMs) * time.Millisecond
		}
	}
	return serve.Options{
		Scheduler:   c.opts.Scheduler,
		Tenants:     tenants,
		Quarantine:  c.opts.Quarantine,
		SnapshotKey: c.opts.SnapshotKey,
		InterceptFor: func(tenant string) host.Intercept {
			if adversarial[tenant] && c.attacking.Load() {
				return replayIntercept()
			}
			return nil
		},
		HookFor: func(tenant string) secure.Hook {
			d, ok := slow[tenant]
			if !ok {
				return nil
			}
			return func(phase int, _ *mem.DRAM) {
				if c.attacking.Load() {
					time.Sleep(d)
				}
			}
		},
	}
}

func (c *campaign) start() error {
	srv, err := serve.New(c.serveOptions())
	if err != nil {
		return fmt.Errorf("chaos: server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("chaos: listen: %w", err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	c.srv, c.hs, c.base = srv, hs, "http://"+ln.Addr().String()
	return nil
}

func (c *campaign) stop(ctx context.Context) {
	if c.hs == nil {
		return
	}
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	_ = c.hs.Shutdown(sctx)
	_ = c.srv.Close(sctx)
	c.hs = nil
}

// clientFor builds the tenant's typed client. Honest tenants run the
// production retry policy (jittered backoff honoring Retry-After, plus
// transport retries so a mid-campaign restart reads as latency, not
// errors); adversaries get no such help.
func (c *campaign) clientFor(p TenantPlan, ordinal int) *client.Client {
	cl := client.New(c.base, nil)
	cl.SetAPIKey(p.Tenant.Key)
	if !p.Adversarial {
		cl.SetRetryPolicy(client.RetryPolicy{
			MaxAttempts:    5,
			BaseDelay:      20 * time.Millisecond,
			MaxDelay:       500 * time.Millisecond,
			Seed:           c.opts.Seed + int64(ordinal) + 1,
			RetryTransport: true,
		})
	}
	return cl
}

// runPhase offers every plan's traffic concurrently for the given wall
// time and returns the per-tenant reports.
func (c *campaign) runPhase(ctx context.Context, ph Phase, d time.Duration) map[string]loadgen.Report {
	reports := make(map[string]loadgen.Report, len(c.opts.Plans))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, p := range c.opts.Plans {
		wg.Add(1)
		go func(i int, p TenantPlan) {
			defer wg.Done()
			cl := c.clientFor(p, i)
			var rep loadgen.Report
			var err error
			if p.Adversarial && ph == PhaseAttack {
				rep = attackStream(ctx, cl, c.opts.Network, p.AttackRPS, d, c.opts.Seed)
			} else {
				rep, err = loadgen.Run(ctx, cl, loadgen.Options{
					RPS:      p.RPS,
					Duration: d,
					Network:  c.opts.Network,
					Sessions: p.Sessions,
				})
				if err != nil {
					rep.Errors = map[string]int{"harness: " + err.Error(): 1}
				}
			}
			mu.Lock()
			reports[p.Tenant.Name] = rep
			mu.Unlock()
		}(i, p)
	}
	wg.Wait()
	return reports
}

// attackStream is the adversarial generator: an open-loop arrival process
// at rps where every arrival opens a fresh session and runs one inference
// through the server's replay MITM intercept — each executed request is a
// guaranteed VN breach, and refused ones probe the quarantine the breach
// history earned. No retries: the adversary takes every refusal. Request
// seeds derive from seed, so the stream replays.
func attackStream(ctx context.Context, cl *client.Client, network string, rps float64, d time.Duration, seed int64) loadgen.Report {
	rep := loadgen.Report{Errors: make(map[string]int)}
	interval := time.Duration(float64(time.Second) / rps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		slots = make(chan struct{}, 64)
	)
	start := time.Now()
	deadline := start.Add(d)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
arrivals:
	for time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			break arrivals
		case <-ticker.C:
		}
		rep.Sent++
		select {
		case slots <- struct{}{}:
		default:
			rep.Shed++
			continue
		}
		wg.Add(1)
		go func(reqSeed int64) {
			defer wg.Done()
			defer func() { <-slots }()
			record := func(err error) {
				mu.Lock()
				defer mu.Unlock()
				var ae *client.APIError
				switch {
				case err == nil:
					rep.OK++
				case errors.As(err, &ae):
					rep.Errors[ae.Body.Class]++
				case ctx.Err() != nil:
					rep.Errors["canceled"]++
				default:
					rep.Errors["transport"]++
				}
			}
			sess, err := cl.CreateSession(ctx, serve.SessionCreateRequest{})
			if err != nil {
				record(err)
				return
			}
			_, err = cl.Infer(ctx, serve.InferRequest{
				Network: network, Seed: reqSeed, Session: sess.SessionID,
			})
			record(err)
		}(seed + int64(rep.Sent))
	}
	wg.Wait()
	rep.Elapsed = time.Since(start)
	return rep
}

// mergeReports folds the two restart-split halves of a phase into one
// report per tenant. Counters add; percentiles take the worse half, which
// is conservative for the invariant bounds (exact percentiles would need
// the raw samples).
func mergeReports(a, b map[string]loadgen.Report) map[string]loadgen.Report {
	out := make(map[string]loadgen.Report, len(a))
	maxd := func(x, y time.Duration) time.Duration {
		if x > y {
			return x
		}
		return y
	}
	for name, ra := range a {
		rb := b[name]
		m := loadgen.Report{
			Sent: ra.Sent + rb.Sent, OK: ra.OK + rb.OK, Shed: ra.Shed + rb.Shed,
			Elapsed: ra.Elapsed + rb.Elapsed,
			P50:     maxd(ra.P50, rb.P50), P95: maxd(ra.P95, rb.P95),
			P99: maxd(ra.P99, rb.P99), Max: maxd(ra.Max, rb.Max),
			Errors: make(map[string]int, len(ra.Errors)+len(rb.Errors)),
		}
		for cls, n := range ra.Errors {
			m.Errors[cls] += n
		}
		for cls, n := range rb.Errors {
			m.Errors[cls] += n
		}
		if m.Elapsed > 0 {
			m.AchievedRPS = float64(m.OK) / m.Elapsed.Seconds()
		}
		out[name] = m
	}
	return out
}

// restart carries the platform across a process death: snapshot every live
// session, tear the server down, boot a fresh one on the same snapshot
// key, restore, and prove bit-identity with a probe session — the sealed
// payload re-exported from the new process must equal the old bytes (MAC
// registers and sequence window included) and a replayed inference must
// produce the same output.
func (c *campaign) restart(ctx context.Context, res *Result) (bool, error) {
	probeOwner := -1
	for i, p := range c.opts.Plans {
		if p.honestStrict() {
			probeOwner = i
			break
		}
	}
	if probeOwner < 0 {
		return false, errors.New("chaos: restart needs a strict honest plan to own the probe session")
	}
	probe := c.clientFor(c.opts.Plans[probeOwner], probeOwner)
	const probeSeed = 31337

	sess, err := probe.CreateSession(ctx, serve.SessionCreateRequest{})
	if err != nil {
		return false, fmt.Errorf("chaos: probe session: %w", err)
	}
	before, err := probe.Infer(ctx, serve.InferRequest{Network: c.opts.Network, Seed: probeSeed, Session: sess.SessionID})
	if err != nil {
		return false, fmt.Errorf("chaos: probe infer: %w", err)
	}
	exported, err := probe.SnapshotSession(ctx, sess.SessionID)
	if err != nil {
		return false, fmt.Errorf("chaos: probe export: %w", err)
	}

	envs, err := c.srv.SnapshotAll()
	if err != nil {
		return false, fmt.Errorf("chaos: snapshot all: %w", err)
	}
	c.stop(ctx)
	if err := c.start(); err != nil {
		return false, err
	}
	restored, err := c.srv.RestoreAll(envs)
	if err != nil {
		return false, fmt.Errorf("chaos: restore all: %w", err)
	}
	c.logf("chaos: restarted, %d/%d sessions restored", restored, len(envs))

	probe = c.clientFor(c.opts.Plans[probeOwner], probeOwner)
	again, err := probe.SnapshotSession(ctx, sess.SessionID)
	if err != nil {
		return false, fmt.Errorf("chaos: probe re-export: %w", err)
	}
	if !bytes.Equal(again.Snapshot.Payload, exported.Snapshot.Payload) {
		res.Violations = append(res.Violations, "restart: restored session state not bit-identical to snapshot")
		return false, nil
	}
	after, err := probe.Infer(ctx, serve.InferRequest{Network: c.opts.Network, Seed: probeSeed, Session: sess.SessionID})
	if err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("restart: probe infer after restore: %v", err))
		return false, nil
	}
	if after.OutputSum != before.OutputSum {
		res.Violations = append(res.Violations,
			fmt.Sprintf("restart: restored session output %#x, want %#x", after.OutputSum, before.OutputSum))
		return false, nil
	}
	return true, nil
}

// check evaluates the isolation invariants against the reports and the
// final metrics scrape, appending one violation line per break.
func (c *campaign) check(res *Result, scrape string) {
	for _, p := range c.opts.Plans {
		name := p.Tenant.Name
		if p.Adversarial {
			opens := metricValue(scrape, "seculator_serve_tenant_breaker_opens_total", name)
			state := metricValue(scrape, "seculator_serve_tenant_breaker_state", name)
			res.BreakerOpens[name] = opens
			res.FinalState[name] = state
			if opens < 1 {
				res.Violations = append(res.Violations,
					fmt.Sprintf("adversary %s: breaker never opened (opens=%v)", name, opens))
			}
			if state != float64(serve.BreakerClosed) {
				res.Violations = append(res.Violations,
					fmt.Sprintf("adversary %s: breaker not recovered by campaign end (state=%v)", name, state))
			}
			if rec := res.Reports[PhaseRecovery][name]; rec.OK == 0 {
				res.Violations = append(res.Violations,
					fmt.Sprintf("adversary %s: no request readmitted during recovery", name))
			}
			continue
		}
		// Honest and slow tenants must never be quarantined or blamed for
		// a breach — quarantine is attributable, not collective.
		if v := metricValue(scrape, "seculator_serve_tenant_breaches_total", name); v != 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("honest %s: %v breaches attributed", name, v))
		}
		if v := metricValueLabeled(scrape, "seculator_serve_tenant_shed_total",
			`tenant=`+strconv.Quote(name)+`,reason="quarantine"`); v != 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("honest %s: %v requests shed by quarantine", name, v))
		}
		if !p.honestStrict() {
			continue
		}
		baseline := res.Reports[PhaseBaseline][name]
		for _, ph := range Phases() {
			rep := res.Reports[ph][name]
			if n := rep.Sent - rep.OK - rep.Shed; n != 0 {
				res.Violations = append(res.Violations,
					fmt.Sprintf("honest %s: %d errors in %s phase (%v)", name, n, ph, rep.Errors))
			}
			if rep.OK == 0 {
				res.Violations = append(res.Violations,
					fmt.Sprintf("honest %s: no request completed in %s phase", name, ph))
			}
		}
		bound := 2 * baseline.P99
		if bound < c.opts.P99Floor {
			bound = c.opts.P99Floor
		}
		if atk := res.Reports[PhaseAttack][name]; atk.P99 > bound {
			res.Violations = append(res.Violations,
				fmt.Sprintf("honest %s: attack-phase p99 %v exceeds bound %v (baseline %v)",
					name, atk.P99, bound, baseline.P99))
		}
	}
}

// replayIntercept is the command-channel MITM: capture the layer-2 packet,
// splice it over layer 4 — the version-number check downstream flags it.
// One intercept carries the capture state of one inference; the campaign
// hands a fresh one to every adversarial run (serve.Options.InterceptFor).
func replayIntercept() host.Intercept {
	var mu sync.Mutex
	var captured *host.Packet
	return func(layer int, p *host.Packet) {
		mu.Lock()
		defer mu.Unlock()
		switch layer {
		case 2:
			cp := *p
			cp.Payload = append([]byte(nil), p.Payload...)
			captured = &cp
		case 4:
			if captured != nil {
				*p = *captured
			}
		}
	}
}

// MetricValue returns the value of a /metrics scrape line for the given
// tenant label (or an unlabeled line when tenant is empty); absent lines
// read 0. The chaos invariants read their evidence through it, and the
// repository benchmark parses its scrapes with it.
func MetricValue(scrape, name, tenant string) float64 { return metricValue(scrape, name, tenant) }

func metricValue(scrape, name, tenant string) float64 {
	if tenant == "" {
		return metricValueLabeled(scrape, name, "")
	}
	return metricValueLabeled(scrape, name, "tenant="+strconv.Quote(tenant))
}

func metricValueLabeled(scrape, name, labels string) float64 {
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if labels != "" && !strings.Contains(rest, labels) {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		return v
	}
	return 0
}
