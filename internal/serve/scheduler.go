package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"seculator/internal/parallel"
)

// The scheduler's admission-control errors; the HTTP layer maps them to
// 429 (queue full) and 503 (shutting down) with Retry-After.
var (
	ErrQueueFull    = errors.New("serve: admission queue full")
	ErrShuttingDown = errors.New("serve: shutting down")
)

// SchedulerConfig bounds the request scheduler.
type SchedulerConfig struct {
	// Workers is the batch-executor pool size (<= 0 means
	// parallel.Workers()).
	Workers int
	// MaxQueue bounds the total requests admitted but not yet finished
	// executing — waiting in a tenant sub-queue, in a forming batch or on
	// a worker; submissions beyond it fail fast with ErrQueueFull.
	MaxQueue int
	// MaxBatch caps how many compatible requests one micro-batch carries;
	// a batch reaching it dispatches immediately.
	MaxBatch int
	// Linger is how long a forming batch waits for companions before it
	// dispatches anyway. Zero dispatches every request alone.
	Linger time.Duration
}

func (c *SchedulerConfig) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = parallel.Workers()
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
}

// BatchInfo tells an executing request about the micro-batch it rode in.
type BatchInfo struct {
	Size   int           // requests in the batch
	Queued time.Duration // admission to dispatch
}

// Task is one unit of request work: it runs on a pool worker with the
// request's context and its batch's shape.
type Task func(ctx context.Context, b BatchInfo) (any, error)

// item is one admitted request. It waits in its tenant's sub-queue for a
// DRR grant, then in a forming batch for dispatch, then runs on a pool
// worker; done closes when its result is set.
type item struct {
	ctx      context.Context
	key      string
	task     Task
	enqueued time.Time

	res  any
	err  error
	info BatchInfo
	done chan struct{}
}

// tenantQueue is one tenant's FIFO sub-queue with its DRR bookkeeping.
type tenantQueue struct {
	weight     int
	maxPending int // 0 = no per-tenant bound
	items      []*item
	deficit    int
}

// batch is a forming micro-batch: granted requests sharing a compatibility
// key that dispatch together, each as its own pool task.
type batch struct {
	key   string
	items []*item
	timer *time.Timer
}

// batchPool recycles batch headers and their item-slice backing across
// dispatches — steady-state traffic forms and retires batches at request
// rate, so the slices live in a pool instead of the heap. Only the batch
// and its slice recycle; items are owned jointly by the executor and the
// submitting goroutine and stay garbage-collected.
var batchPool = sync.Pool{New: func() any { return new(batch) }}

// releaseBatch scrubs an executed batch and parks it. It serializes with
// the scheduler lock because a stale linger timer may still hold the batch
// pointer: its flush finds the batch already detached (pointer comparison
// under the same lock) and walks away, but only if the reset cannot race
// the read.
func (s *Scheduler) releaseBatch(b *batch) {
	s.mu.Lock()
	clear(b.items)
	*b = batch{items: b.items[:0]}
	s.mu.Unlock()
	batchPool.Put(b)
}

// Scheduler is the one admission queue between the HTTP handlers and the
// worker pool: weighted fair-share admission across tenants, then
// micro-batching of compatible requests.
//
// Each tenant owns a bounded FIFO sub-queue and a single dispatcher drains
// them by deficit round-robin (DRR): on every visit a tenant's deficit
// grows by its weight and that many of its requests are granted, so under
// contention tenants share capacity in weight proportion regardless of who
// floods. A grant places the request straight into the forming batch of its
// key, under the same lock: requests granted under one key within the
// linger window (or until MaxBatch) form one batch, and a dispatched batch
// submits each of its requests as its own pool task. The batch is the unit
// of what BatchInfo reports, not of execution: its requests share no state
// and nothing orders them against each other.
//
// One number bounds admitted work — queued (in a sub-queue) plus running
// (granted: in a forming batch or executing) against MaxQueue. The release
// window bounds running alone and is deliberately small — just enough to
// keep the pool busy and batches forming. Granting everything at once
// would decide execution order at enqueue time and reduce DRR to FIFO;
// holding requests in the sub-queues keeps the ordering decision with the
// fair round until the last moment.
//
// Cancellation needs no state of its own: a submitter whose context ends
// returns at once, and the request stays counted until whoever reaches it
// next drops it — the dispatcher popping it from its sub-queue (no
// deficit, no window slot, it never runs) or, once granted, the worker
// that skips it. A context's error never clears, so neither can run a
// request its submitter has given up on, and each counter has one owner.
type Scheduler struct {
	cfg    SchedulerConfig
	window int // release window: min(Workers*MaxBatch, MaxQueue), at least 1
	pool   *parallel.Pool

	mu      sync.Mutex
	cond    *sync.Cond // the dispatcher waits here for work and for window slots
	tenants map[string]*tenantQueue
	order   []*tenantQueue // DRR visiting order (first-seen)
	next    int            // rotating DRR start index
	forming map[string]*batch
	queued  int // requests in sub-queues (expired-but-unreaped included)
	running int // granted, not yet delivered
	closed  bool
	done    chan struct{} // dispatcher exited and the pool drained

	// metrics hook (nil-safe), set by the server
	onBatch func(size int)
}

// NewScheduler starts a scheduler, its dispatcher and its worker pool.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	cfg.setDefaults()
	s := &Scheduler{
		cfg:     cfg,
		window:  max(1, min(cfg.Workers*cfg.MaxBatch, cfg.MaxQueue)),
		pool:    parallel.NewPool(cfg.Workers),
		tenants: make(map[string]*tenantQueue),
		forming: make(map[string]*batch),
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	go s.grantLoop()
	return s
}

// Depth returns the number of admitted requests not yet delivered.
func (s *Scheduler) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued + s.running
}

// Submit admits a request under a tenant (nil is the anonymous tenant:
// weight 1, no sub-queue bound) and a batch compatibility key, and blocks
// until it executed or its context ended; the returned error is then
// ctx.Err() and the task never starts afterwards. Admission failures return
// immediately: ErrShuttingDown on drain, ErrQueueFull at the global bound,
// ErrTenantQueueFull when the tenant's own sub-queue is full.
func (s *Scheduler) Submit(ctx context.Context, t *Tenant, key string, task Task) (any, BatchInfo, error) {
	it := &item{ctx: ctx, key: key, task: task, enqueued: time.Now(), done: make(chan struct{})}
	id, weight, maxPending := AnonymousTenant, 1, 0
	if t != nil {
		id, weight, maxPending = t.Name(), t.Weight(), t.MaxPending()
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, BatchInfo{}, ErrShuttingDown
	}
	if s.queued+s.running >= s.cfg.MaxQueue {
		s.mu.Unlock()
		return nil, BatchInfo{}, ErrQueueFull
	}
	q := s.tenants[id]
	if q == nil {
		q = &tenantQueue{weight: weight, maxPending: maxPending}
		s.tenants[id] = q
		s.order = append(s.order, q)
	}
	if q.maxPending > 0 && len(q.items) >= q.maxPending {
		s.mu.Unlock()
		return nil, BatchInfo{}, ErrTenantQueueFull
	}
	q.items = append(q.items, it)
	s.queued++
	s.cond.Signal()
	s.mu.Unlock()

	select {
	case <-it.done:
		return it.res, it.info, it.err
	case <-ctx.Done():
		return nil, BatchInfo{}, ctx.Err()
	}
}

// grantLoop is the dispatcher: wait for queued work, then run DRR rounds
// that grant in weight proportion across the tenant sub-queues. After Close
// it exits once everything admitted has been delivered.
func (s *Scheduler) grantLoop() {
	s.mu.Lock()
	for {
		for s.queued == 0 {
			if s.closed && s.running == 0 {
				s.mu.Unlock()
				s.pool.Close()
				close(s.done)
				return
			}
			s.cond.Wait()
		}
		s.round()
	}
}

// round is one DRR pass over every tenant with pending work. Caller holds
// s.mu. Requests whose context already ended are dropped without consuming
// deficit or a window slot.
//
// When window slots run out mid-visit, the visit WAITS for a slot rather
// than moving on: the release window is the serialized output link of
// classic DRR, and a tenant must spend its whole quantum per visit for the
// weight proportion to hold. (Banking unspent deficit and moving on would
// let slot scarcity erode the ratio toward 1:1 — every visit would grant
// "whatever slots are free" regardless of weight.) The visiting order still
// rotates across rounds so no tenant permanently owns the first claim on a
// freed slot.
func (s *Scheduler) round() {
	n := len(s.order)
	start := s.next % n
	for k := 0; k < n; k++ {
		q := s.order[(start+k)%n]
		if len(q.items) == 0 {
			q.deficit = 0
			continue
		}
		q.deficit += q.weight
		for q.deficit > 0 && len(q.items) > 0 {
			for s.running >= s.window {
				s.cond.Wait()
			}
			it := q.items[0]
			q.items[0] = nil // the backing array must not pin a delivered request
			q.items = q.items[1:]
			s.queued--
			if it.ctx.Err() != nil {
				continue
			}
			q.deficit--
			s.running++
			if b := s.placeLocked(it); b != nil {
				s.mu.Unlock()
				s.dispatch(b)
				s.mu.Lock()
			}
		}
		if len(q.items) == 0 {
			q.deficit = 0
		}
	}
	s.next = (start + 1) % n
}

// placeLocked puts a granted request into the forming batch of its key and
// returns the batch, detached, when it must dispatch now: it is full,
// nothing lingers, or the scheduler is draining. Caller holds s.mu.
func (s *Scheduler) placeLocked(it *item) *batch {
	b, ok := s.forming[it.key]
	if !ok {
		b = batchPool.Get().(*batch)
		b.key = it.key
		s.forming[it.key] = b
		if s.cfg.Linger > 0 && !s.closed {
			b.timer = time.AfterFunc(s.cfg.Linger, func() { s.flush(b) })
		}
	}
	b.items = append(b.items, it)
	if len(b.items) >= s.cfg.MaxBatch || s.cfg.Linger <= 0 || s.closed {
		return s.detachLocked(b)
	}
	return nil
}

// detachLocked removes a forming batch from the map (so new grants start a
// fresh one) and stops its linger timer. Caller holds s.mu.
func (s *Scheduler) detachLocked(b *batch) *batch {
	cur, ok := s.forming[b.key]
	if !ok || cur != b {
		return nil // already detached by the timer or a full-batch dispatch
	}
	delete(s.forming, b.key)
	if b.timer != nil {
		b.timer.Stop()
	}
	return b
}

// flush is the linger-timer path: detach and dispatch.
func (s *Scheduler) flush(b *batch) {
	s.mu.Lock()
	d := s.detachLocked(b)
	s.mu.Unlock()
	if d != nil {
		s.dispatch(d)
	}
}

// dispatch hands a detached batch to the pool, one task per request in
// grant order. Expired requests are skipped and delivered their context
// error. The pool outlives every granted request (the dispatcher closes it
// only at running == 0); should Submit fail regardless, the request runs
// inline rather than being dropped.
func (s *Scheduler) dispatch(b *batch) {
	start := time.Now()
	size := 0
	for _, it := range b.items {
		if it.ctx.Err() == nil {
			size++
		}
	}
	if s.onBatch != nil && size > 0 {
		s.onBatch(size)
	}
	for _, it := range b.items {
		info := BatchInfo{Size: size, Queued: start.Sub(it.enqueued)}
		run := func() {
			if err := it.ctx.Err(); err != nil {
				it.err = err
			} else {
				it.info = info
				it.res, it.err = it.task(it.ctx, info)
			}
			// The slot frees before the submitter wakes: a caller that
			// resubmits the moment Submit returns must not find this
			// request still counted against MaxQueue.
			s.mu.Lock()
			s.running--
			s.cond.Signal()
			s.mu.Unlock()
			close(it.done)
		}
		if s.pool.Submit(run) != nil {
			run()
		}
	}
	s.releaseBatch(b)
}

// Close drains the scheduler: new submissions fail with ErrShuttingDown,
// forming batches dispatch immediately, queued requests are still granted
// and executed, and Close returns once every admitted request has been
// delivered and the pool has shut down.
func (s *Scheduler) Close() {
	s.mu.Lock()
	var pending []*batch
	if !s.closed {
		s.closed = true
		for _, b := range s.forming {
			pending = append(pending, s.detachLocked(b))
		}
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	for _, b := range pending {
		s.dispatch(b)
	}
	<-s.done
}
