// Package serve is the secure inference serving layer: a multi-tenant host
// daemon that brokers secure sessions to the simulated NPU and schedules
// inference requests onto it, reproducing the deployment shape the paper's
// host/NPU split implies (Section 6.1's authenticated command channel
// behind a host service, as TNPU and GuardNN are evaluated).
//
// The HTTP/JSON surface:
//
//	POST /v1/sessions                   issue a secure session (key stays server-side)
//	DELETE /v1/sessions/{id}            close a session
//	GET  /v1/sessions/{id}/snapshot     export a sealed session snapshot
//	POST /v1/sessions/restore           import a sealed session snapshot
//	POST /v1/infer                      run one secure inference (optionally in-session)
//	GET  /v1/designs                    the design/network registry
//	GET  /healthz                       liveness + drain state
//	GET  /metrics                       Prometheus-style counters
//
// Requests authenticate to a tenant (tenant.go: API-key registry, token
// buckets) and flow through the one scheduler (scheduler.go): weighted
// fair-share admission — free workers dequeue by deficit round-robin over
// per-tenant bounded sub-queues — one depth bound sheds with 429/503
// backpressure, and per-request deadlines come from context. An inference
// that latches a security breach (replay, splice, channel tampering) maps
// to 409 with the typed class and layer index, evicts its session — the
// serving-layer "security breach → reboot" of Figure 6 — and feeds the
// tenant's quarantine circuit breaker (breaker.go), which escalates repeat
// offenders from throttled probation to a full 451 quarantine with timed
// half-open probes.
package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seculator/internal/host"
	"seculator/internal/nn"
	"seculator/internal/protect"
	"seculator/internal/resilience"
	"seculator/internal/runner"
	"seculator/internal/secure"
	"seculator/internal/workload"
)

// maxTimeout clamps a request's own deadline; maxInputLen caps the length
// of an explicit input override.
const (
	maxTimeout  = 2 * time.Minute
	maxInputLen = 1 << 20
)

// Options configures a Server. The zero value serves with defaults. Every
// server runs runner.DefaultConfig() and the verified-weight residency
// cache (residency.go).
type Options struct {
	// Scheduler bounds the request scheduler.
	Scheduler SchedulerConfig
	// SessionIdle is the default session idle expiry (default 5m).
	SessionIdle time.Duration
	// DefaultTimeout is the per-request deadline when the request names
	// none (default 30s).
	DefaultTimeout time.Duration

	// InterceptFor and HookFor are attack instrumentation, resolved per
	// tenant for each inference: the command-channel man in the middle and
	// the DRAM phase hook (a nil function or a nil return means clean).
	// Tests and demos use them to mount replay and splice attacks through
	// the HTTP boundary — one tenant's traffic laced while the others run
	// clean, or every tenant's by ignoring the argument; production servers
	// leave them nil.
	InterceptFor func(tenant string) host.Intercept
	HookFor      func(tenant string) secure.Hook

	// Tenants registers API keys with their fair-share weights, rate
	// limits, and queue bounds. Empty means single-tenant mode: no auth,
	// no rate limit, no quarantine — the PR 3 behaviour.
	Tenants []TenantConfig
	// Quarantine shapes the per-tenant breach circuit breakers (zero value
	// = defaults). Only configured tenants get breakers.
	Quarantine QuarantineConfig

	// SnapshotKey seals session snapshot envelopes (HMAC-SHA256). Empty
	// means a fresh random key: snapshots then verify only within this
	// process; set it to restore across restarts.
	SnapshotKey []byte

	// AdminKey gates the /admin/* surface (drain, unscoped session
	// snapshot/restore/evict — the hooks a replica-sharding gateway drives
	// migration through). When set, admin requests must carry it in
	// X-Admin-Key; when empty the surface is open, which is only
	// appropriate when the listener itself is trusted (loopback, tests).
	AdminKey string
}

func (o *Options) setDefaults() {
	if o.SessionIdle <= 0 {
		o.SessionIdle = 5 * time.Minute
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
}

// Server is the serving daemon: tenant registry + fair-share scheduler +
// session store.
type Server struct {
	opts        Options
	cfg         runner.Config
	sched       *Scheduler
	tenants     *TenantRegistry
	sessions    *SessionManager
	metrics     *Metrics
	residency   *residencyManager
	snapshotKey []byte
	mux         *http.ServeMux

	networks map[string]workload.Network
	netNames []string // registry order

	draining  atomic.Bool // full drain: Close() was called, all new work refused
	preDrain  atomic.Bool // graceful pre-drain: no new sessions, in-flight work finishes
	closeOnce sync.Once
	closed    chan struct{}
	janitor   chan struct{}
	janitorWG sync.WaitGroup
}

// New builds a server. The error result is always nil: every option has a
// usable default.
func New(opts Options) (*Server, error) {
	opts.setDefaults()
	s := &Server{
		opts:        opts,
		cfg:         runner.DefaultConfig(),
		tenants:     NewTenantRegistry(opts.Tenants, opts.Quarantine, nil),
		sessions:    NewSessionManager(opts.SessionIdle),
		snapshotKey: opts.SnapshotKey,
		closed:      make(chan struct{}),
		janitor:     make(chan struct{}),
	}
	s.metrics = newMetrics(s)
	if len(s.snapshotKey) == 0 {
		s.snapshotKey = newSnapshotKey()
	}
	s.residency = newResidencyManager(s.metrics)
	s.sched = NewScheduler(opts.Scheduler)
	s.networks, s.netNames = registry()

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/infer", s.handleInfer)
	s.mux.HandleFunc("POST /v1/sessions", s.asTenant(s.handleSessionCreate))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.asTenant(s.handleSessionDelete))
	s.mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.asTenant(s.handleSnapshot))
	s.mux.HandleFunc("POST /v1/sessions/restore", s.asTenant(s.handleRestore))
	s.mux.HandleFunc("GET /v1/designs", s.handleDesigns)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /admin/drain", s.asAdmin(s.handleAdminDrain))
	s.mux.HandleFunc("GET /admin/sessions/{id}/snapshot", s.asAdmin(s.handleSnapshot))
	s.mux.HandleFunc("POST /admin/sessions/restore", s.asAdmin(s.handleRestore))
	s.mux.HandleFunc("DELETE /admin/sessions/{id}", s.asAdmin(s.handleSessionDelete))

	s.janitorWG.Add(1)
	go s.runJanitor()
	return s, nil
}

// registry returns the networks every server serves, by name and in
// registry order: workload.Mini, then workload.All.
func registry() (map[string]workload.Network, []string) {
	byName := make(map[string]workload.Network)
	var names []string
	for _, n := range append([]workload.Network{workload.Mini()}, workload.All()...) {
		if _, dup := byName[n.Name]; !dup {
			byName[n.Name] = n
			names = append(names, n.Name)
		}
	}
	return byName, names
}

// resolveNetwork looks a request's network up: a registry name, or
// "Name/div" for a shrunk benchmark (workload.Shrink), so load tests can
// dial model size without a registry change.
func (s *Server) resolveNetwork(name string) (workload.Network, error) {
	if n, ok := s.networks[name]; ok {
		return n, nil
	}
	if base, divs, ok := strings.Cut(name, "/"); ok {
		div, err := strconv.Atoi(divs)
		if err == nil {
			if n, ok := s.networks[base]; ok {
				if n, err = workload.Shrink(n, div); err != nil {
					return workload.Network{}, badRequest(err.Error())
				}
				return n, nil
			}
		}
	}
	return workload.Network{}, badRequest(fmt.Sprintf("serve: unknown network %q", name))
}

// ResolveNetwork resolves a network name, the "Name/div" shrink form
// included, against the registry every server serves. Clients that need
// model geometry without a round trip (the load generator building input
// overrides) use this.
func ResolveNetwork(name string) (workload.Network, error) {
	networks, _ := registry()
	return (&Server{networks: networks}).resolveNetwork(name)
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain puts the server into graceful pre-drain: new sessions and
// snapshot imports are refused with 503, but inference — stateless and on
// existing sessions — keeps flowing and admitted requests finish.
// /healthz reports "draining" so a fronting gateway can migrate this
// replica's sessions away and stop routing to it before the hard stop,
// instead of discovering the death through ejection. Idempotent; Close()
// implies it.
func (s *Server) BeginDrain() { s.preDrain.Store(true) }

// Draining reports whether the server refuses new sessions (pre-drain or
// full close).
func (s *Server) Draining() bool { return s.preDrain.Load() || s.draining.Load() }

// Close drains the server: new work is rejected with 503, admitted work
// finishes, sessions are dropped. It returns nil once fully drained, or
// ctx's error if the deadline passes first (the drain keeps finishing in
// the background either way).
func (s *Server) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.preDrain.Store(true)
		s.draining.Store(true)
		close(s.janitor)
		go func() {
			s.sched.Close()
			s.janitorWG.Wait()
			close(s.closed)
		}()
	})
	select {
	case <-s.closed:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) runJanitor() {
	defer s.janitorWG.Done()
	period := s.opts.SessionIdle / 2
	if period > 30*time.Second {
		period = 30 * time.Second
	}
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.janitor:
			return
		case <-t.C:
			s.sessions.Sweep()
		}
	}
}

// ---- handlers ----
//
// A handler's refusal is the error it returns, which Refuse writes: no
// handler writes one itself.

// sessionHandler serves one session operation on behalf of an acting
// tenant: a tenant's name on the /v1 routes, "" on the /admin routes, where
// the gateway acts for the platform — any tenant's session, no ownership
// rule (a restored envelope's MAC still gates integrity).
type sessionHandler func(w http.ResponseWriter, r *http.Request, tenant string) error

// asTenant authenticates a /v1 session request and runs h as its tenant.
func (s *Server) asTenant(h sessionHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, err := s.tenants.Resolve(r)
		if err == nil {
			err = h(w, r, t.Name())
		}
		if err != nil {
			Refuse(w, err)
		}
	}
}

// asAdmin authorizes an /admin request and runs h as the platform (tenant
// ""): the configured key must match (constant-time); an unconfigured key
// leaves the surface open for trusted listeners.
func (s *Server) asAdmin(h sessionHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		err := ErrUnauthorized
		if s.opts.AdminKey == "" || hmacEqualString(r.Header.Get("X-Admin-Key"), s.opts.AdminKey) {
			err = h(w, r, "")
		}
		if err != nil {
			Refuse(w, err)
		}
	}
}

// clampMs converts a client-supplied millisecond count to a duration of at
// most max, clamping first so a huge count cannot overflow into a negative
// or tiny duration.
func clampMs(ms int64, max time.Duration) time.Duration {
	if ms >= max.Milliseconds() {
		return max
	}
	return time.Duration(ms) * time.Millisecond
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request, tenant string) error {
	var req SessionCreateRequest
	if r.ContentLength != 0 {
		if err := DecodeJSON(r.Body, 1<<16, &req); err != nil {
			return err
		}
	}
	if s.Draining() {
		return ErrShuttingDown
	}
	resp, err := s.sessions.Create(tenant, clampMs(req.IdleTimeoutMs, s.opts.SessionIdle))
	if err != nil {
		return err
	}
	WriteJSON(w, http.StatusCreated, resp)
	return nil
}

// handleSessionDelete closes a tenant's session; on the admin route it
// removes any tenant's session — the source side of a completed migration,
// counted as a migrate eviction rather than a close.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request, tenant string) error {
	reason := EvictClose
	if tenant == "" {
		reason = EvictMigrate
	}
	if !s.sessions.Evict(r.PathValue("id"), tenant, reason) {
		return ErrSessionUnknown
	}
	w.WriteHeader(http.StatusNoContent)
	return nil
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, tenant string) error {
	id := r.PathValue("id")
	env, err := s.SnapshotSession(id, tenant)
	if err != nil {
		return err
	}
	WriteJSON(w, http.StatusOK, SnapshotResponse{SessionID: id, Snapshot: env})
	return nil
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request, tenant string) error {
	if s.Draining() {
		return ErrShuttingDown
	}
	var req RestoreRequest
	if err := DecodeJSON(r.Body, 1<<20, &req); err != nil {
		return err
	}
	resp, err := s.RestoreSession(req.Snapshot, tenant)
	if err != nil {
		return err
	}
	WriteJSON(w, http.StatusCreated, resp)
	return nil
}

func (s *Server) handleDesigns(w http.ResponseWriter, _ *http.Request) {
	var resp DesignsResponse
	for _, d := range protect.Designs() {
		p := protect.PropertiesOf(d)
		resp.Designs = append(resp.Designs, DesignInfo{
			Name:          d.String(),
			Encryption:    p.Encryption,
			Integrity:     p.IntegrityLevel,
			AntiReplay:    p.AntiReplay,
			MEAProtection: p.MEAProtection,
		})
	}
	for _, name := range s.netNames {
		n := s.networks[name]
		resp.Networks = append(resp.Networks, NetworkInfo{
			Name: n.Name, Layers: len(n.Layers), Params: n.Params(), MACs: n.MACs(),
		})
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := HealthResponse{Status: "ok", Sessions: s.sessions.Active(), Queue: s.sched.Depth()}
	if s.Draining() {
		resp.Status = "draining"
	}
	WriteJSON(w, http.StatusOK, resp)
}

// ---- admin surface (gateway migration hooks) ----

func (s *Server) handleAdminDrain(w http.ResponseWriter, _ *http.Request, _ string) error {
	s.BeginDrain()
	w.WriteHeader(http.StatusNoContent)
	return nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = io.WriteString(w, s.metrics.reg.Render())
}

// inferOutcome is what an executed inference task returns through the
// scheduler.
type inferOutcome struct {
	out      *nn.Tensor
	cycles   uint64
	commands int
	recovery resilience.Stats
	runMs    float64

	lastSeq  uint64 // command-channel sequence the session finished at
	haveRegs bool
	regs     protect.RegisterState // final MAC registers (session runs)

	residencyHit bool // rode an already-resident weight cache entry
}

// handleInfer serves POST /v1/infer and counts its answer, refusal or not,
// once in requests_total{code}.
func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	if err := s.infer(w, r); err != nil {
		s.metrics.Request(Refuse(w, err))
	}
}

// infer authenticates and decodes a request, then runs it through the
// admission gates in trust order: drain, quarantine (a quarantined tenant
// gets no rate tokens back), rate, network, input, session, admission. A
// gate refuses by returning its error, and counts its shed reason, if it
// has one, where it refuses.
func (s *Server) infer(w http.ResponseWriter, r *http.Request) error {
	admitted := time.Now()
	tenant, err := s.tenants.Resolve(r)
	if err != nil {
		return err
	}
	var req InferRequest
	if err := DecodeJSON(r.Body, 8<<20, &req); err != nil {
		return err
	}
	if s.draining.Load() {
		return ErrShuttingDown
	}

	br := tenant.Breaker()
	probe := false
	if br != nil {
		var qerr error
		if probe, qerr = br.Allow(tenant.Name(), s.tenants.Now()); qerr != nil {
			s.metrics.tenantShed.Inc(tenant.Name(), ShedQuarantine)
			return qerr
		}
	}
	// From here on every exit on which no inference completed — rate limit,
	// validation, unknown session, admission shed, deadline, cancel — frees
	// an unused half-open probe slot at this one point; a completed or
	// breached request feeds its result back to the quarantine breaker
	// after admission instead.
	recorded := false
	defer func() {
		if probe && !recorded {
			br.Release(probe)
		}
	}()
	if ok, wait := tenant.TakeToken(s.tenants.Now()); !ok {
		s.metrics.tenantShed.Inc(tenant.Name(), ShedRate)
		return rateLimited{wait}
	}

	net, err := s.resolveNetwork(req.Network)
	if err != nil {
		return err
	}
	first := net.Layers[0]
	if len(req.Input) > maxInputLen {
		return badRequest(fmt.Sprintf("serve: input too large (%d > %d)", len(req.Input), maxInputLen))
	}
	if want := first.C * first.H * first.W; len(req.Input) > 0 && len(req.Input) != want {
		return badRequest(fmt.Sprintf("serve: input length %d, network %s wants %d", len(req.Input), net.Name, want))
	}

	var grant *SessionGrant
	if req.Session != "" {
		g, err := s.sessions.Acquire(req.Session, tenant.Name())
		if err != nil {
			return err
		}
		grant = &g
	}

	timeout := s.opts.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = clampMs(req.TimeoutMs, maxTimeout)
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	res, queued, err := s.sched.Submit(ctx, tenant, func(ctx context.Context) (any, error) {
		return s.runInference(ctx, net, &req, grant, tenant.Name())
	})
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrTenantQueueFull) || errors.Is(err, ErrShuttingDown) {
		// Shed at admission: the request never executed.
		s.metrics.tenantShed.Inc(tenant.Name(), ShedQueue)
		return err
	}
	s.metrics.tenantAdmitted.Inc(tenant.Name())
	// Only a completed inference or a breach is an observation about the
	// tenant. A deadline (the client picks it), a cancel or any other
	// failure never completed an inference: it must not count as a clean
	// probe, so it frees the probe slot at the deferred release instead.
	breach := err != nil && breachError(err)
	if err == nil || breach {
		recorded = true
		if br != nil {
			br.Record(breach, probe, s.tenants.Now())
		}
	}
	if breach {
		s.metrics.tenantBreaches.Inc(tenant.Name())
		// A breached tenant never rides a stale trust decision: its pinned
		// residency epochs re-verify before the next attach.
		s.residency.InvalidateTenant(tenant.Name())
		if req.Session != "" && s.sessions.Evict(req.Session, tenant.Name(), EvictBreach) {
			return evicted{err}
		}
	}
	if err != nil {
		return err
	}

	oc := res.(*inferOutcome)
	var piggyback *SnapshotEnvelope
	if req.Session != "" {
		s.sessions.Commit(req.Session, oc.lastSeq, oc.regs, oc.haveRegs, OutputSum(oc.out))
		if req.ReturnSnapshot {
			// Snapshot piggyback: export the just-committed session state in
			// the same response, so a gateway's write-through vault is never
			// a round trip behind the session it would have to resurrect.
			if env, err := s.SnapshotSession(req.Session, tenant.Name()); err == nil {
				piggyback = &env
			}
		}
	}
	resp := InferResponse{
		Network:      net.Name,
		Layers:       len(net.Layers),
		OutputSum:    OutputSum(oc.out),
		Cycles:       oc.cycles,
		Commands:     oc.commands,
		QueueMs:      float64(queued) / float64(time.Millisecond),
		RunMs:        oc.runMs,
		ResidencyHit: oc.residencyHit,
		Recovery: RecoveryInfo{
			Retries:    oc.recovery.Retries,
			Recovered:  oc.recovery.Recovered,
			Persistent: oc.recovery.Persistent,
			Breached:   oc.recovery.Breached,
		},
	}
	resp.OutputDims = [3]int{oc.out.Chans, oc.out.H, oc.out.W}
	resp.Snapshot = piggyback
	if req.ReturnOutput {
		resp.Output = oc.out.Data
	}
	s.metrics.inferOK.Inc()
	s.metrics.latency.Add(int64(time.Since(admitted)))
	s.metrics.queue.Add(int64(queued))
	s.metrics.Request(http.StatusOK)
	WriteJSON(w, http.StatusOK, resp)
	return nil
}

// interceptFor resolves the command-channel attack instrumentation for a
// tenant's inference.
func (s *Server) interceptFor(tenant string) host.Intercept {
	if s.opts.InterceptFor == nil {
		return nil
	}
	return s.opts.InterceptFor(tenant)
}

// hookFor resolves the DRAM phase hook for a tenant's inference.
func (s *Server) hookFor(tenant string) secure.Hook {
	if s.opts.HookFor == nil {
		return nil
	}
	return s.opts.HookFor(tenant)
}

// runInference executes one request on a scheduler worker: build (or attach
// to) the deterministic model, run the secure inference, then take the
// memoized timing simulation. A session run executes each layer on the
// command its channel just delivered, continuing the session's sequence
// window (grant.BaseSeq), and captures the final MAC registers for the
// session's durable state.
func (s *Server) runInference(ctx context.Context, net workload.Network, req *InferRequest, grant *SessionGrant, tenant string) (*inferOutcome, error) {
	start := time.Now()
	oc := &inferOutcome{}

	// Weight residency: attach to (or build) the pinned verified weights
	// for (network, seed). Attack-instrumented tenants keep the
	// per-request provisioning path — the residency cache never hides a
	// hook's attack surface — and any attach error falls back silently.
	hook := s.hookFor(tenant)
	var in *nn.Tensor
	var ws []*nn.Weights
	var resident *secure.WeightResidency
	if hook == nil {
		r, hit, err := s.residency.attach(tenant, req.Network, req.Seed, func() (*secure.WeightResidency, error) {
			return secure.BuildWeightResidency(ctx, net, s.cfg.NPU, s.cfg.DRAM, secure.DefaultSecret, secure.DefaultRandom, nn.RandomWeights(net, req.Seed))
		})
		if err == nil {
			resident, oc.residencyHit = r, hit
			ws = resident.Weights()
			first := net.Layers[0]
			in = nn.NewTensor(first.C, first.H, first.W)
			if len(req.Input) == 0 { // a request's input, validated to full length, overwrites every value
				in.Randomize(req.Seed)
			}
		}
	}
	if in == nil {
		in, ws = nn.RandomModel(net, req.Seed)
	}
	if len(req.Input) > 0 {
		copy(in.Data, req.Input)
	}

	// One executor on both paths: a session only adds its command channel.
	x := secure.NewExecutor()
	x.NPU, x.DRAM = s.cfg.NPU, s.cfg.DRAM
	x.AfterPhase = hook
	x.Residency = resident
	x.OnLayerMACs = func(_ int, regs protect.RegisterState) { oc.regs, oc.haveRegs = regs, true }
	var ch *host.Channel
	if grant != nil {
		ch = host.NewChannel(grant.Key, grant.BaseSeq, s.interceptFor(tenant))
		x.Commands = ch
	}
	fr, err := x.Run(ctx, net, in, ws)
	oc.out, oc.recovery = fr.Output, fr.Recovery
	if err != nil {
		return nil, err
	}
	// Timing rides the memoized simulation cache: the first request for a
	// network pays the simulation, every later one shares it.
	tr, err := runner.RunCached(ctx, net, protect.Seculator, s.cfg)
	if err != nil {
		return nil, err
	}
	oc.cycles = uint64(tr.Cycles)
	if ch != nil {
		oc.commands, oc.lastSeq = len(net.Layers), ch.LastSeq()
	}
	oc.runMs = float64(time.Since(start)) / float64(time.Millisecond)
	return oc, nil
}

// OutputSum is the FNV-1a checksum of a tensor's dims and data — the
// client-verifiable fingerprint carried in InferResponse.
func OutputSum(t *nn.Tensor) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, d := range []int{t.Chans, t.H, t.W} {
		binary.BigEndian.PutUint32(b[:], uint32(d))
		_, _ = h.Write(b[:])
	}
	for _, v := range t.Data {
		binary.BigEndian.PutUint32(b[:], uint32(v))
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}
