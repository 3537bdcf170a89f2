// Package gateway is the replica-sharding front tier: an HTTP proxy that
// spreads the serving API of internal/serve across N replica daemons
// while preserving the security semantics a single replica provides.
//
// The routing invariant is that a secure session's state — the command
// channel's strictly increasing sequence window and the XOR-MAC registers
// of its last inference — lives on exactly one replica at a time.
// Session-bound requests follow a consistent-hash ring keyed on session
// id; stateless inference spreads by rendezvous hash on the tenant key
// with bounded-load overflow. When placement must change (a replica
// drains, dies, or the ring membership is reloaded), the gateway migrates
// sessions through the sealed-snapshot machinery of internal/serve: the
// HMAC-sealed envelope is the only representation of session state that
// ever crosses replicas, so a migration is bit-identical by construction
// and a tampered hand-off fails closed on import.
//
// The gateway keeps a write-through session vault: every session-bound
// inference it forwards asks the replica to piggyback the post-commit
// sealed snapshot (InferRequest.ReturnSnapshot), so the vault always
// holds the latest sealed state and an abruptly killed replica's sessions
// restore on a survivor with nothing lost. Replica health follows a
// fail-open → eject → half-open FSM (health.go) fed by both active
// /healthz probes and forward-path transport errors.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seculator/internal/serve"
	"seculator/internal/serve/client"
)

// DefaultLoadFactor is the bounded-load overflow factor for stateless
// spread: the classic "power of bounded loads" setting that keeps the
// hottest replica within 25% of the mean before overflowing.
const DefaultLoadFactor = 1.25

// ClassUpstream is the gateway's own error class: no replica could serve
// the request (all candidates dead, or the retry budget ran out).
const ClassUpstream = "upstream"

// refusal is an answer the gateway gives itself instead of relaying a
// replica's: upstream when no replica could serve the request, and the
// admin-key and reload refusals of its own /admin surface. serve.Refuse
// writes it like every replica refusal.
type refusal struct {
	status     int
	class, msg string
}

func (e *refusal) Error() string { return e.msg }

// ErrorBody maps the refusal; only upstream carries a retry hint.
func (e *refusal) ErrorBody() (int, serve.ErrorBody) {
	body := serve.ErrorBody{Error: e.msg, Class: e.class}
	if e.class == ClassUpstream {
		body.RetryAfterMs = 1000
	}
	return e.status, body
}

// upstream refuses a request no replica could serve.
func upstream(why string) error {
	return &refusal{http.StatusBadGateway, ClassUpstream, "gateway: " + why}
}

const (
	// forwardTimeout bounds one proxied request: the replica-side cap on a
	// request's own deadline.
	forwardTimeout = 2 * time.Minute
	// retryBudget is how many alternate replicas a request may try after
	// its first pick fails.
	retryBudget = 1
)

// Options configures a Gateway. Either Config or ConfigPath must describe
// at least one replica.
type Options struct {
	// Config is the initial routing configuration. When ConfigPath is also
	// set, the file wins (it is the reload source of truth).
	Config Config
	// ConfigPath, when set, is loaded at start and re-loaded on SIGHUP /
	// POST /admin/reload.
	ConfigPath string
	// Health shapes the per-replica prober FSM.
	Health HealthConfig
	// AdminKey authenticates the gateway to the replicas' /admin/*
	// migration surface, and gates the gateway's own /admin/reload. All
	// replicas must share it (and must share SnapshotKey, or sealed
	// snapshots won't verify across replicas and every migration will
	// fail closed).
	AdminKey string
}

// replica is one backend's runtime handle. Handles persist across config
// reloads (matched by name+URL) so health state and in-flight accounting
// survive a membership change that keeps the replica.
type replica struct {
	name     string
	url      string
	hp       *prober
	admin    *client.Client
	inflight atomic.Int64
}

// routing is the immutable routing view swapped atomically on reload;
// in-flight requests keep the view they started with.
type routing struct {
	gen        uint64
	ring       *Ring
	replicas   map[string]*replica
	names      []string // sorted
	loadFactor float64
}

// Gateway is the front tier. Create with New, serve Handler, stop with
// Close.
type Gateway struct {
	opts    Options
	http    *http.Client
	metrics *Metrics
	vault   *vault
	mux     *http.ServeMux

	routing atomic.Pointer[routing]
	gen     atomic.Uint64

	reloadMu sync.Mutex // serializes Reload

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds a gateway and starts its health prober.
func New(opts Options) (*Gateway, error) {
	opts.Health.setDefaults()
	cfg := opts.Config
	if opts.ConfigPath != "" {
		loaded, err := LoadConfig(opts.ConfigPath)
		if err != nil {
			return nil, err
		}
		cfg = loaded
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Gateway{
		opts:  opts,
		http:  &http.Client{},
		vault: newVault(),
		stop:  make(chan struct{}),
	}
	g.metrics = newMetrics(g)
	g.routing.Store(g.buildRouting(cfg, nil))

	g.mux = http.NewServeMux()
	g.mux.HandleFunc("POST /v1/infer", g.counted(g.handleInfer))
	g.mux.HandleFunc("POST /v1/sessions", g.counted(g.handleSessionCreate))
	g.mux.HandleFunc("DELETE /v1/sessions/{id}", g.counted(g.handleSessionDelete))
	g.mux.HandleFunc("GET /v1/sessions/{id}/snapshot", g.counted(g.handleSnapshot))
	g.mux.HandleFunc("POST /v1/sessions/restore", g.counted(g.handleRestore))
	g.mux.HandleFunc("GET /v1/designs", g.counted(g.handleDesigns))
	g.mux.HandleFunc("GET /healthz", g.handleHealth)
	g.mux.HandleFunc("GET /metrics", g.handleMetrics)
	g.mux.HandleFunc("POST /admin/reload", g.counted(g.handleReload))

	g.wg.Add(1)
	go g.runProber()
	return g, nil
}

// buildRouting constructs a routing view, reusing handles from prev for
// replicas whose (name, URL) survive the change.
func (g *Gateway) buildRouting(cfg Config, prev *routing) *routing {
	lf := cfg.LoadFactor
	if lf == 0 {
		lf = DefaultLoadFactor
	}
	rt := &routing{
		gen:        g.gen.Add(1),
		replicas:   make(map[string]*replica, len(cfg.Replicas)),
		loadFactor: lf,
	}
	for _, rc := range cfg.Replicas {
		if prev != nil {
			if old := prev.replicas[rc.Name]; old != nil && old.url == rc.URL {
				rt.replicas[rc.Name] = old
				rt.names = append(rt.names, rc.Name)
				continue
			}
		}
		admin := client.New(rc.URL, g.http)
		admin.SetAdminKey(g.opts.AdminKey)
		rt.replicas[rc.Name] = &replica{
			name:  rc.Name,
			url:   strings.TrimRight(rc.URL, "/"),
			hp:    newProber(g.opts.Health),
			admin: admin,
		}
		rt.names = append(rt.names, rc.Name)
	}
	rt.ring = NewRing(rt.names, cfg.Vnodes)
	rt.names = rt.ring.Replicas()
	return rt
}

// Handler returns the HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Gen returns the current ring generation (monotone; bumps on reload).
func (g *Gateway) Gen() uint64 { return g.routing.Load().gen }

// Close stops the prober. It does not touch the replicas.
func (g *Gateway) Close() {
	g.closeOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// Reload swaps in a new configuration and rebalances the vault: sessions
// whose ring owner changed migrate live to their new home. In-flight
// requests finish on the routing view they started with.
func (g *Gateway) Reload(cfg Config) (moved int, err error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	g.reloadMu.Lock()
	defer g.reloadMu.Unlock()
	prev := g.routing.Load()
	g.routing.Store(g.buildRouting(cfg, prev))
	return g.rebalanceLocked(), nil
}

// ReloadFromFile re-reads ConfigPath (the SIGHUP path).
func (g *Gateway) ReloadFromFile() (int, error) {
	if g.opts.ConfigPath == "" {
		return 0, fmt.Errorf("gateway: no -config file to reload")
	}
	cfg, err := LoadConfig(g.opts.ConfigPath)
	if err != nil {
		return 0, err
	}
	return g.Reload(cfg)
}

// ---- replica selection ----

// available returns, in the order of names, the replicas whose prober
// passes ok ((*prober).Available or .AcceptingSessions).
func available(rt *routing, names []string, now time.Time, ok func(*prober, time.Time) bool) []*replica {
	out := make([]*replica, 0, len(names))
	for _, n := range names {
		if rep := rt.replicas[n]; rep != nil && ok(rep.hp, now) {
			out = append(out, rep)
		}
	}
	return out
}

// sessionTarget walks key's ring sequence for the first replica whose
// prober passes ok ((*prober).Available or .AcceptingSessions), skipping
// exclude.
func sessionTarget(rt *routing, key, exclude string, now time.Time, ok func(*prober, time.Time) bool) *replica {
	for _, n := range rt.ring.Seq(key) {
		if n == exclude {
			continue
		}
		if rep := rt.replicas[n]; rep != nil && ok(rep.hp, now) {
			return rep
		}
	}
	return nil
}

// statelessCandidates orders the available replicas for a stateless
// request: rendezvous preference on the tenant key, with bounded-load
// overflow — a candidate whose in-flight count is already past the load
// bound yields to the next, so one hot tenant key cannot bury its
// favourite replica while others idle.
func statelessCandidates(rt *routing, tenantKey string, now time.Time) []*replica {
	avail := available(rt, Rendezvous(rt.names, tenantKey), now, (*prober).Available)
	if len(avail) <= 1 {
		return avail
	}
	var total int64
	for _, rep := range avail {
		total += rep.inflight.Load()
	}
	bound := int64(rt.loadFactor*float64(total+1)/float64(len(avail))) + 1
	under := make([]*replica, 0, len(avail))
	over := make([]*replica, 0, 2)
	for _, rep := range avail {
		if rep.inflight.Load() < bound {
			under = append(under, rep)
		} else {
			over = append(over, rep)
		}
	}
	return append(under, over...)
}

// tenantKeyOf extracts the routing key of a request's tenant: the API key
// or bearer token when present, else a shared anonymous key (single-tenant
// deployments spread by load alone via the bounded-load overflow).
func tenantKeyOf(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	if a := r.Header.Get("Authorization"); a != "" {
		return a
	}
	return "anonymous"
}

// ---- forwarding ----

// forwardResult is one proxied exchange: the replica's status, raw body
// and Retry-After header, relayed (or patched) downstream.
type forwardResult struct {
	status     int
	body       []byte
	retryAfter string // the Retry-After header value; "" when absent
}

// forward proxies one request to a replica, copying the tenant auth
// headers. A non-nil error is a transport failure (connection refused,
// reset, timeout) — the HTTP-level outcome, whatever the status, comes
// back as a forwardResult. Transport failures feed the replica's health
// FSM; an ejection triggers failover of its vaulted sessions. A failure
// caused by the caller's own context (the client hung up) says nothing
// about the replica: it is returned as ctx's error and observed nowhere —
// callers check ctx.Err() before retrying or failing over. The gateway's
// own forwardTimeout expiring still counts against the replica.
func (g *Gateway) forward(caller context.Context, rep *replica, method, path string, src *http.Request, in any) (forwardResult, error) {
	var body io.Reader
	if in != nil {
		s, err := serve.EncodeJSON(in)
		if err != nil {
			return forwardResult{}, err
		}
		// The pooled body bytes must outlive the round trip (http.Do may
		// re-read them via GetBody); they recycle once the exchange is over.
		defer serve.PutJSON(s)
		body = bytes.NewReader(s.Bytes())
	}
	ctx, cancel := context.WithTimeout(caller, forwardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, rep.url+path, body)
	if err != nil {
		return forwardResult{}, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if src != nil {
		if k := src.Header.Get("X-API-Key"); k != "" {
			req.Header.Set("X-API-Key", k)
		}
		if a := src.Header.Get("Authorization"); a != "" {
			req.Header.Set("Authorization", a)
		}
	}

	rep.inflight.Add(1)
	start := time.Now()
	resp, err := g.http.Do(req)
	rep.inflight.Add(-1)
	var data []byte
	if err == nil {
		defer resp.Body.Close()
		data, err = readInto(resp.Body, 64<<20)
	}
	if err != nil {
		if cerr := caller.Err(); cerr != nil {
			return forwardResult{}, cerr
		}
		g.metrics.Forward(rep.name, 0, false)
		if rep.hp.ObserveFailure(time.Now()) {
			go g.failoverAll(rep.name)
		}
		return forwardResult{}, err
	}
	g.metrics.Forward(rep.name, time.Since(start), true)
	rep.hp.ObserveSuccess(time.Now())
	return forwardResult{status: resp.StatusCode, body: data, retryAfter: resp.Header.Get("Retry-After")}, nil
}

// relay writes a forwarded response downstream verbatim, its Retry-After
// header included: a client that reads headers, not our error body, must
// see a shedding replica's backoff hint through the gateway too.
func (g *Gateway) relay(w http.ResponseWriter, fr forwardResult) {
	g.metrics.Request(fr.status)
	w.Header().Set("Content-Type", "application/json")
	if fr.retryAfter != "" {
		w.Header().Set("Retry-After", fr.retryAfter)
	}
	w.WriteHeader(fr.status)
	_, _ = w.Write(fr.body)
}

// counted adapts a route's handler: serve.Refuse writes the refusal it
// returns, counted in requests_total{code} as relay counts the rest.
func (g *Gateway) counted(h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := h(w, r); err != nil {
			g.metrics.Request(serve.Refuse(w, err))
		}
	}
}

// health asks a replica for its /healthz, bounded by probeTimeout.
func (g *Gateway) health(rep *replica) (serve.HealthResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	return rep.admin.Health(ctx)
}

// ---- handlers ----

func (g *Gateway) handleInfer(w http.ResponseWriter, r *http.Request) error {
	var req serve.InferRequest
	if err := serve.DecodeJSON(r.Body, 8<<20, &req); err != nil {
		return err
	}
	rt := g.routing.Load()
	if req.Session != "" {
		return g.sessionInfer(w, r, rt, &req)
	}
	return g.statelessInfer(w, r, rt, &req)
}

// statelessInfer spreads seedful inference by rendezvous + bounded load,
// moving on to the next candidate within the retry budget.
func (g *Gateway) statelessInfer(w http.ResponseWriter, r *http.Request, rt *routing, req *serve.InferRequest) error {
	candidates := statelessCandidates(rt, tenantKeyOf(r), time.Now())
	if len(candidates) == 0 {
		return upstream("no available replica")
	}
	fr, rep, err := g.forwardFirst(r, candidates, "/v1/infer", req)
	if err != nil {
		return upstream(fmt.Sprintf("all replicas failed: %v", err))
	}
	g.relayInfer(w, fr, rep.name, req.ReturnSnapshot, "")
	return nil
}

// forwardFirst POSTs body to the first of candidates that answers, trying
// at most 1 + retryBudget of them. A transport failure or a 5xx moves on
// to the next; the last try's answer, whatever its status, is returned
// with the replica that gave it. Both callers may move on after a 5xx: a
// stateless inference is deterministic in its (network, seed, input), and
// a replica answers a session create with 5xx only when it made no
// session. A non-nil error means no candidate answered.
func (g *Gateway) forwardFirst(r *http.Request, candidates []*replica, path string, body any) (forwardResult, *replica, error) {
	attempts := min(1+retryBudget, len(candidates))
	var lastErr error
	for i, rep := range candidates[:attempts] {
		if i > 0 {
			g.metrics.retries.Inc()
		}
		fr, err := g.forward(r.Context(), rep, http.MethodPost, path, r, body)
		if err != nil {
			lastErr = err
			if r.Context().Err() != nil {
				break // the client is gone; the next candidate would fail the same way
			}
			continue
		}
		if fr.status >= 500 && i+1 < attempts {
			lastErr = fmt.Errorf("replica %s returned %d", rep.name, fr.status)
			continue
		}
		return fr, rep, nil
	}
	return forwardResult{}, nil, lastErr
}

// sessionInfer routes a session-bound inference to the session's home
// replica, write-through-vaulting the piggybacked snapshot. On a
// transport failure with the home demonstrably dead, it restores the
// vaulted snapshot at the next replica on the ring and retries once.
func (g *Gateway) sessionInfer(w http.ResponseWriter, r *http.Request, rt *routing, req *serve.InferRequest) error {
	id := req.Session
	now := time.Now()
	var rep *replica
	ent := g.vault.get(id)
	if ent != nil {
		rep = rt.replicas[ent.home()]
	}
	if rep == nil {
		// Unknown to the vault (predates the gateway, or its home left the
		// config): the ring owner is the best guess, and the piggybacked
		// snapshot below adopts it into the vault on success.
		rep = sessionTarget(rt, id, "", now, (*prober).Available)
	}
	if rep == nil {
		return upstream("no available replica for session")
	}

	wantSnapshot := req.ReturnSnapshot // the client's own wish
	req.ReturnSnapshot = true          // the vault's write-through hook
	fr, err := g.forward(r.Context(), rep, http.MethodPost, "/v1/infer", r, req)
	if err != nil {
		var alt *replica
		if r.Context().Err() == nil { // a client hanging up is no reason to move its session
			alt = g.sessionFailover(rt, id, rep, now)
		}
		if alt == nil {
			return upstream(fmt.Sprintf("session home %s unreachable: %v", rep.name, err))
		}
		g.metrics.retries.Inc()
		rep = alt
		fr, err = g.forward(r.Context(), rep, http.MethodPost, "/v1/infer", r, req)
		if err != nil {
			return upstream(fmt.Sprintf("failover replica %s unreachable: %v", rep.name, err))
		}
	}
	g.relayInfer(w, fr, rep.name, wantSnapshot, id)
	return nil
}

// sessionFailover decides whether a failed session forward may move to an
// alternate, and prepares the alternate by restoring the vaulted
// snapshot. It returns nil when failing over would be unsafe (the home
// may still hold live state) or impossible (no snapshot, no survivor).
func (g *Gateway) sessionFailover(rt *routing, id string, failed *replica, now time.Time) *replica {
	// One quick liveness check outside the prober cadence: restoring a vault
	// snapshot away from a replica that still holds newer state would fork
	// the session's sequence window, so the gateway fails over only when the
	// source is demonstrably gone.
	if _, err := g.health(failed); err == nil {
		return nil // transient transport blip; the home still owns the state
	}
	env := (*serve.SnapshotEnvelope)(nil)
	if ent := g.vault.get(id); ent != nil {
		env = ent.envelope()
	}
	if env == nil {
		return nil
	}
	alt := sessionTarget(rt, id, failed.name, now, (*prober).Available)
	if alt == nil {
		return nil
	}
	if !g.restoreAt(alt, env) {
		return nil
	}
	g.vault.put(id, alt.name, env)
	g.metrics.migrations.Inc(MigrateFailover)
	return alt
}

// relayInfer relays an infer response, patching a 200 body: the replica
// attribution is stamped in, the piggybacked snapshot is captured into
// the vault and stripped unless the client asked for it. Error bodies
// relay verbatim, but a session-killing error (breach eviction, unknown
// session) also drops the vault entry — the vault never outlives the
// session it shadows.
func (g *Gateway) relayInfer(w http.ResponseWriter, fr forwardResult, replicaName string, wantSnapshot bool, sessionID string) {
	if fr.status != http.StatusOK {
		if sessionID != "" {
			var eb serve.ErrorBody
			if json.Unmarshal(fr.body, &eb) == nil &&
				(eb.SessionEvicted || eb.Class == serve.ClassUnknownSession) {
				g.vault.drop(sessionID)
			}
		}
		g.relay(w, fr)
		return
	}
	var resp serve.InferResponse
	if err := json.Unmarshal(fr.body, &resp); err != nil {
		g.relay(w, fr)
		return
	}
	if sessionID != "" && resp.Snapshot != nil {
		g.vault.put(sessionID, replicaName, resp.Snapshot)
	}
	if !wantSnapshot {
		resp.Snapshot = nil
	}
	resp.Replica = replicaName
	g.metrics.Request(fr.status)
	serve.WriteJSON(w, fr.status, &resp)
}

// handleSessionCreate places a new session. The replica mints the id, so
// the gateway creates on the tenant's rendezvous choice among replicas
// accepting sessions, then moves the newborn session to its ring owner —
// keeping the "sessions live at their ring owner" steady state that makes
// later lookups and rebalances cheap. The move is the same sealed
// snapshot → restore → evict path as every other migration, so routine
// session creation continuously exercises the machinery failover depends
// on.
func (g *Gateway) handleSessionCreate(w http.ResponseWriter, r *http.Request) error {
	var req serve.SessionCreateRequest
	if r.ContentLength != 0 {
		if err := serve.DecodeJSON(r.Body, 1<<16, &req); err != nil {
			return err
		}
	}
	rt := g.routing.Load()
	now := time.Now()
	accepting := available(rt, Rendezvous(rt.names, tenantKeyOf(r)), now, (*prober).AcceptingSessions)
	if len(accepting) == 0 {
		return upstream("no replica accepting sessions")
	}
	fr, src, err := g.forwardFirst(r, accepting, "/v1/sessions", &req)
	if err != nil {
		return upstream(fmt.Sprintf("session create failed: %v", err))
	}
	var created serve.SessionCreateResponse
	if fr.status == http.StatusCreated && json.Unmarshal(fr.body, &created) == nil && created.SessionID != "" {
		g.placeSession(rt, src, created.SessionID, now)
	}
	g.relay(w, fr)
	return nil
}

// placeSession vaults a newborn session and moves it to its ring owner
// when that differs from where it was minted.
func (g *Gateway) placeSession(rt *routing, src *replica, id string, now time.Time) {
	owner := sessionTarget(rt, id, "", now, (*prober).AcceptingSessions)
	if owner != nil && owner.name != src.name {
		if env := g.migrateLive(src, owner, id, MigratePlace); env != nil {
			g.vault.put(id, owner.name, env)
			return
		}
	}
	// Already home (or the move failed; the rebalancer will retry): seed
	// the vault with the newborn state so even a pre-first-infer kill of
	// the replica loses nothing.
	ctx, cancel := context.WithTimeout(context.Background(), forwardTimeout)
	defer cancel()
	if snap, err := src.admin.AdminSnapshot(ctx, id); err == nil {
		g.vault.put(id, src.name, &snap.Snapshot)
	} else {
		g.vault.put(id, src.name, nil)
	}
}

func (g *Gateway) handleSessionDelete(w http.ResponseWriter, r *http.Request) error {
	fr, err := g.forwardHome(r)
	if err != nil {
		return err
	}
	if fr.status < 300 || fr.status == http.StatusNotFound {
		g.vault.drop(r.PathValue("id"))
	}
	g.relay(w, fr)
	return nil
}

func (g *Gateway) handleSnapshot(w http.ResponseWriter, r *http.Request) error {
	fr, err := g.forwardHome(r)
	if err != nil {
		return err
	}
	g.relay(w, fr)
	return nil
}

// forwardHome forwards a /v1/sessions/{id} request as-is to the session's
// home replica, or refuses it as upstream when no home answers.
func (g *Gateway) forwardHome(r *http.Request) (forwardResult, error) {
	rep := g.homeOf(g.routing.Load(), r.PathValue("id"))
	if rep == nil {
		return forwardResult{}, upstream("no available replica for session")
	}
	fr, err := g.forward(r.Context(), rep, r.Method, r.URL.Path, r, nil)
	if err != nil {
		return forwardResult{}, upstream(err.Error())
	}
	return fr, nil
}

// handleRestore imports a tenant's sealed snapshot. The envelope payload
// carries the session id in the clear (the seal is authentication, not
// encryption), so the gateway can route the import straight to the ring
// owner; the owner's MAC verification remains the integrity gate.
func (g *Gateway) handleRestore(w http.ResponseWriter, r *http.Request) error {
	var req serve.RestoreRequest
	if err := serve.DecodeJSON(r.Body, 1<<20, &req); err != nil {
		return err
	}
	var peek struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal(req.Snapshot.Payload, &peek)
	rt := g.routing.Load()
	now := time.Now()
	var rep *replica
	if peek.ID != "" {
		rep = sessionTarget(rt, peek.ID, "", now, (*prober).AcceptingSessions)
	}
	if rep == nil {
		if accepting := available(rt, rt.names, now, (*prober).AcceptingSessions); len(accepting) > 0 {
			rep = accepting[0]
		}
	}
	if rep == nil {
		return upstream("no replica accepting sessions")
	}
	fr, err := g.forward(r.Context(), rep, http.MethodPost, "/v1/sessions/restore", r, &req)
	if err != nil {
		return upstream(err.Error())
	}
	if fr.status == http.StatusCreated && peek.ID != "" {
		env := req.Snapshot
		g.vault.put(peek.ID, rep.name, &env)
	}
	g.relay(w, fr)
	return nil
}

func (g *Gateway) handleDesigns(w http.ResponseWriter, r *http.Request) error {
	rt := g.routing.Load()
	for _, rep := range available(rt, rt.names, time.Now(), (*prober).Available) {
		fr, err := g.forward(r.Context(), rep, http.MethodGet, "/v1/designs", r, nil)
		if err == nil {
			g.relay(w, fr)
			return nil
		}
	}
	return upstream("no available replica")
}

// homeOf resolves a session's current replica: the vault entry when the
// gateway has one, else the first available replica on the id's ring walk.
func (g *Gateway) homeOf(rt *routing, id string) *replica {
	now := time.Now()
	if ent := g.vault.get(id); ent != nil {
		if rep := rt.replicas[ent.home()]; rep != nil && rep.hp.Available(now) {
			return rep
		}
	}
	return sessionTarget(rt, id, "", now, (*prober).Available)
}

// GatewayHealth is the gateway's own GET /healthz body.
type GatewayHealth struct {
	Status    string `json:"status"` // "ok" or "degraded" (no replica available)
	Replicas  int    `json:"replicas"`
	Available int    `json:"available"`
	Sessions  int    `json:"sessions"` // vaulted sessions
	RingGen   uint64 `json:"ring_generation"`
}

func (g *Gateway) handleHealth(w http.ResponseWriter, _ *http.Request) {
	rt := g.routing.Load()
	avail := len(available(rt, rt.names, time.Now(), (*prober).Available))
	resp := GatewayHealth{
		Status: "ok", Replicas: len(rt.names), Available: avail,
		Sessions: g.vault.size(), RingGen: rt.gen,
	}
	if avail == 0 {
		resp.Status = "degraded"
	}
	serve.WriteJSON(w, http.StatusOK, &resp)
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = io.WriteString(w, g.metrics.reg.Render())
}

// ReloadResponse is the POST /admin/reload body.
type ReloadResponse struct {
	Generation uint64 `json:"generation"`
	Migrated   int    `json:"migrated"`
}

func (g *Gateway) handleReload(w http.ResponseWriter, r *http.Request) error {
	if g.opts.AdminKey != "" && !hmacEqual(r.Header.Get("X-Admin-Key"), g.opts.AdminKey) {
		return &refusal{http.StatusUnauthorized, serve.ClassUnauthorized, "gateway: admin key required"}
	}
	var moved int
	var err error
	if r.ContentLength != 0 {
		var cfg Config
		if err := serve.DecodeJSON(r.Body, 1<<20, &cfg); err != nil {
			return err
		}
		moved, err = g.Reload(cfg)
	} else {
		moved, err = g.ReloadFromFile()
	}
	if err != nil {
		return &refusal{http.StatusBadRequest, serve.ClassConfig, err.Error()}
	}
	g.metrics.Request(http.StatusOK)
	serve.WriteJSON(w, http.StatusOK, &ReloadResponse{Generation: g.Gen(), Migrated: moved})
	return nil
}

// ---- active health probing ----

func (g *Gateway) runProber() {
	defer g.wg.Done()
	t := time.NewTicker(g.opts.Health.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.probeAll()
		}
	}
}

func (g *Gateway) probeAll() {
	rt := g.routing.Load()
	var wg sync.WaitGroup
	for _, n := range rt.names {
		rep := rt.replicas[n]
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.probe(rep)
		}()
	}
	wg.Wait()
}

func (g *Gateway) probe(rep *replica) {
	h, err := g.health(rep)
	if err != nil {
		if rep.hp.ObserveFailure(time.Now()) {
			g.failoverAll(rep.name)
		}
		return
	}
	rep.hp.ObserveSuccess(time.Now())
	if rep.hp.SetDraining(h.Status == "draining") {
		g.evacuate(rep.name)
	}
}
