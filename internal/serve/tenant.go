package serve

import (
	"errors"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Tenant-admission errors; the HTTP layer maps them to 401 (unknown or
// missing API key) and 429 (token bucket empty, per-tenant queue full).
var (
	ErrUnauthorized    = errors.New("serve: unknown or missing API key")
	ErrRateLimited     = errors.New("serve: tenant rate limit exceeded")
	ErrTenantQueueFull = errors.New("serve: tenant admission queue full")
)

// AnonymousTenant is the implicit tenant of a server with no registry:
// every request shares one identity, one fair-share queue, and no rate
// limit — exactly the PR 3 behaviour, so single-tenant deployments and
// existing clients keep working unchanged.
const AnonymousTenant = "default"

// TenantConfig registers one API key with its service shape.
type TenantConfig struct {
	// Key is the API key presented as "Authorization: Bearer <key>" or
	// "X-API-Key: <key>". Required.
	Key string `json:"key"`
	// Name is the tenant's metrics/display identity (default: the key).
	Name string `json:"name,omitempty"`
	// Weight is the fair-share weight of the tenant's admission queue
	// (default 1): a weight-3 tenant drains three requests for every one of
	// a weight-1 tenant under contention.
	Weight int `json:"weight,omitempty"`
	// RateRPS is the token-bucket refill rate in requests/second; 0 means
	// no rate limit.
	RateRPS float64 `json:"rate_rps,omitempty"`
	// Burst is the bucket capacity (default max(1, ceil(2*RateRPS))).
	Burst int `json:"burst,omitempty"`
	// MaxPending bounds the tenant's admission sub-queue (default: the
	// scheduler's global MaxQueue — no extra per-tenant bound).
	MaxPending int `json:"max_pending,omitempty"`
}

func (c *TenantConfig) setDefaults() {
	if c.Name == "" {
		c.Name = c.Key
	}
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.Burst <= 0 {
		c.Burst = int(2 * c.RateRPS)
		if c.Burst < 1 {
			c.Burst = 1
		}
	}
}

// tokenBucket is the one refill-clamp-take routine, behind both the tenant
// rate limit and the breaker's probation throttle. The zero last marks a
// full bucket, so a bucket starts full. It is not synchronized: each owner
// guards its bucket with its own mutex.
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64 // capacity
	tokens float64
	last   time.Time
}

// take consumes one token at time now; when the bucket is empty it reports
// the wait until the next token instead.
func (b *tokenBucket) take(now time.Time) (ok bool, wait time.Duration) {
	if b.last.IsZero() {
		b.tokens = b.burst
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = min(b.burst, b.tokens+dt*b.rate)
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / b.rate
	return false, time.Duration(need * float64(time.Second))
}

// Tenant is one admitted identity: its config, its token bucket, and its
// breach-quarantine circuit breaker.
type Tenant struct {
	cfg TenantConfig

	mu     sync.Mutex
	bucket tokenBucket

	breaker *Breaker // nil for the anonymous tenant (quarantine off)
}

// Name returns the tenant's metrics identity.
func (t *Tenant) Name() string { return t.cfg.Name }

// Weight returns the tenant's fair-share weight.
func (t *Tenant) Weight() int { return t.cfg.Weight }

// MaxPending returns the tenant's sub-queue bound (0 = global bound only).
func (t *Tenant) MaxPending() int { return t.cfg.MaxPending }

// Breaker returns the tenant's quarantine breaker (nil when quarantine is
// off, i.e. the anonymous tenant).
func (t *Tenant) Breaker() *Breaker { return t.breaker }

// TakeToken consumes one token from the tenant's rate bucket. It returns
// ok=false with the wait until the next token when the bucket is empty.
// A tenant with no rate limit always admits.
func (t *Tenant) TakeToken(now time.Time) (ok bool, retryAfter time.Duration) {
	if t.cfg.RateRPS <= 0 {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bucket.take(now)
}

// TenantRegistry resolves API keys to tenants. An empty registry serves
// everyone as the anonymous tenant; a non-empty one requires a known key on
// every request.
type TenantRegistry struct {
	byKey     map[string]*Tenant
	names     []string // registration order, for stable /metrics rendering
	anonymous *Tenant
	now       func() time.Time
}

// NewTenantRegistry builds the registry. With no configs, the anonymous
// tenant (no auth, no rate limit, no quarantine) serves every request.
// Configured tenants each get a quarantine breaker with the given config.
func NewTenantRegistry(configs []TenantConfig, quar QuarantineConfig, now func() time.Time) *TenantRegistry {
	if now == nil {
		now = time.Now
	}
	r := &TenantRegistry{byKey: make(map[string]*Tenant), now: now}
	for _, cfg := range configs {
		if cfg.Key == "" {
			continue
		}
		cfg.setDefaults()
		if _, dup := r.byKey[cfg.Key]; dup {
			continue
		}
		t := &Tenant{
			cfg:     cfg,
			bucket:  tokenBucket{rate: cfg.RateRPS, burst: float64(cfg.Burst)},
			breaker: NewBreaker(quar),
		}
		r.byKey[cfg.Key] = t
		r.names = append(r.names, cfg.Name)
	}
	if len(r.byKey) == 0 {
		r.anonymous = &Tenant{cfg: TenantConfig{Key: "", Name: AnonymousTenant, Weight: 1, Burst: 1}}
		r.names = []string{AnonymousTenant}
	}
	return r
}

// Resolve authenticates a request: with a configured registry the API key
// must be present and known; without one, everyone is the anonymous tenant.
func (r *TenantRegistry) Resolve(req *http.Request) (*Tenant, error) {
	if r.anonymous != nil {
		return r.anonymous, nil
	}
	key := req.Header.Get("X-API-Key")
	if key == "" {
		if auth := req.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			key = strings.TrimPrefix(auth, "Bearer ")
		}
	}
	if key == "" {
		return nil, ErrUnauthorized
	}
	t, ok := r.byKey[key]
	if !ok {
		return nil, ErrUnauthorized
	}
	return t, nil
}

// Now returns the registry clock (injectable for tests).
func (r *TenantRegistry) Now() time.Time { return r.now() }

// All returns every tenant in registration order.
func (r *TenantRegistry) All() []*Tenant {
	if r.anonymous != nil {
		return []*Tenant{r.anonymous}
	}
	out := make([]*Tenant, 0, len(r.byKey))
	seen := make(map[string]bool, len(r.byKey))
	for _, t := range r.byKey {
		if !seen[t.cfg.Name] {
			seen[t.cfg.Name] = true
			out = append(out, t)
		}
	}
	// Stable order: registration order by name.
	ordered := make([]*Tenant, 0, len(out))
	for _, name := range r.names {
		for _, t := range out {
			if t.cfg.Name == name {
				ordered = append(ordered, t)
				break
			}
		}
	}
	return ordered
}
