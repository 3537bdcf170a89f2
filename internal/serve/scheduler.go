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
	// Workers is how many requests execute at once (<= 0 means
	// parallel.Workers()).
	Workers int
	// MaxQueue bounds the total requests admitted but not yet finished
	// executing — waiting in a tenant sub-queue or on a worker;
	// submissions beyond it fail fast with ErrQueueFull.
	MaxQueue int
	// MaxBatch is accepted and ignored — nothing batches. It is kept only
	// so the frozen benchmark/ compiles.
	MaxBatch int
	// Linger is accepted and ignored — no request waits for companions. It
	// is kept only so the frozen benchmark/ compiles.
	Linger time.Duration
}

func (c *SchedulerConfig) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = parallel.Workers()
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
}

// Task is one unit of request work: it runs on a scheduler worker with the
// request's context.
type Task func(ctx context.Context) (any, error)

// item is one admitted request. It waits in its tenant's sub-queue until a
// free worker dequeues it, then runs on that worker; done closes when its
// result is set.
type item struct {
	ctx      context.Context
	task     Task
	enqueued time.Time

	res  any
	err  error
	wait time.Duration // admission to the worker starting it
	done chan struct{}
}

// tenantQueue is one tenant's FIFO sub-queue.
type tenantQueue struct {
	weight     int
	maxPending int // 0 = no per-tenant bound
	items      []*item
}

// Scheduler is the one queue between the HTTP handlers and the workers:
// weighted fair-share admission across tenants, pulled by free workers.
//
// Each tenant owns a bounded FIFO sub-queue and a free worker takes the
// next request by deficit round-robin (DRR) dequeue: a visit cursor walks
// the tenants, the visited tenant's deficit grows by its weight when the
// cursor arrives, every request served spends one, and the cursor moves on
// when the deficit is spent or the sub-queue empties (which also resets the
// deficit — so no tenant carries any into its next visit, and the one
// visited tenant's remainder is all the scheduler keeps). Under contention tenants therefore share the workers in weight
// proportion regardless of who floods, and because nothing is granted ahead
// of a free worker the ordering decision stays with the fair round until
// the moment a request starts: there is no second queue behind this one
// where DRR could no longer reorder.
//
// One number bounds admitted work — queued (in a sub-queue) plus running
// (on a worker) against MaxQueue. A request waits in its tenant's sub-queue
// for its whole wait, so all of it counts against the tenant's MaxPending.
//
// Cancellation needs no state of its own: a submitter whose context ends
// returns at once, and the request stays counted until the worker that
// reaches it drops it at dequeue — no deficit spent, it never runs. A
// context's error never clears, so a request its submitter has given up on
// while queued cannot start, and each counter has one owner.
type Scheduler struct {
	cfg SchedulerConfig

	mu      sync.Mutex
	cond    *sync.Cond // idle workers wait here for work
	tenants map[string]*tenantQueue
	order   []*tenantQueue // DRR visiting order (first-seen)
	cursor  int            // index in order of the tenant being visited
	deficit int            // what the visited tenant may still be served this visit
	queued  int            // requests in sub-queues (expired-but-unreaped included)
	running int            // dequeued, not yet delivered
	closed  bool
	workers sync.WaitGroup
}

// NewScheduler starts a scheduler and its workers.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	cfg.setDefaults()
	s := &Scheduler{cfg: cfg, tenants: make(map[string]*tenantQueue)}
	s.cond = sync.NewCond(&s.mu)
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.work()
	}
	return s
}

// Depth returns the number of admitted requests not yet delivered.
func (s *Scheduler) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued + s.running
}

// Submit admits a request under a tenant (nil is the anonymous tenant:
// weight 1, no sub-queue bound) and blocks until it executed or its context
// ended; the returned error is then ctx.Err() and the task never starts
// afterwards. It returns the task's result, how long the request waited
// from admission until a worker started it, and the task's error.
// Admission failures return immediately: ErrShuttingDown on drain,
// ErrQueueFull at the global bound, ErrTenantQueueFull when the tenant's
// own sub-queue is full.
func (s *Scheduler) Submit(ctx context.Context, t *Tenant, task Task) (any, time.Duration, error) {
	it := &item{ctx: ctx, task: task, enqueued: time.Now(), done: make(chan struct{})}
	id, weight, maxPending := AnonymousTenant, 1, 0
	if t != nil {
		id, weight, maxPending = t.Name(), t.Weight(), t.MaxPending()
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, 0, ErrShuttingDown
	}
	if s.queued+s.running >= s.cfg.MaxQueue {
		s.mu.Unlock()
		return nil, 0, ErrQueueFull
	}
	q := s.tenants[id]
	if q == nil {
		q = &tenantQueue{weight: weight, maxPending: maxPending}
		s.tenants[id] = q
		s.order = append(s.order, q)
	}
	if q.maxPending > 0 && len(q.items) >= q.maxPending {
		s.mu.Unlock()
		return nil, 0, ErrTenantQueueFull
	}
	q.items = append(q.items, it)
	s.queued++
	s.cond.Signal()
	s.mu.Unlock()

	select {
	case <-it.done:
		return it.res, it.wait, it.err
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
}

// work is one worker: take the next request the fair round yields, run it,
// deliver it, repeat. After Close it exits once the sub-queues are empty.
func (s *Scheduler) work() {
	defer s.workers.Done()
	s.mu.Lock()
	for {
		it := s.dequeueLocked()
		if it == nil {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.cond.Wait()
			continue
		}
		s.running++
		s.mu.Unlock()
		it.wait = time.Since(it.enqueued)
		it.res, it.err = it.task(it.ctx)
		s.mu.Lock()
		// The slot frees before the submitter wakes: a caller that
		// resubmits the moment Submit returns must not find this request
		// still counted against MaxQueue.
		s.running--
		close(it.done)
	}
}

// dequeueLocked is the DRR dequeue: it returns the next live request, or
// nil when every sub-queue is empty. Requests whose context already ended
// are dropped without spending deficit. Caller holds s.mu.
func (s *Scheduler) dequeueLocked() *item {
	for s.queued > 0 {
		q := s.order[s.cursor]
		if s.deficit == 0 || len(q.items) == 0 {
			s.cursor = (s.cursor + 1) % len(s.order)
			s.deficit = s.order[s.cursor].weight
			continue
		}
		it := q.items[0]
		q.items[0] = nil // the backing array must not pin a delivered request
		q.items = q.items[1:]
		s.queued--
		live := it.ctx.Err() == nil
		if live {
			s.deficit--
		}
		if len(q.items) == 0 {
			s.deficit = 0
		}
		if live {
			return it
		}
	}
	return nil
}

// Close drains the scheduler: new submissions fail with ErrShuttingDown,
// queued requests are still dequeued and executed, and Close returns once
// every admitted request has been delivered and the workers have exited.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.workers.Wait()
}
