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
	// executing; submissions beyond it fail fast with ErrQueueFull.
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

// item is one admitted request waiting for (or in) execution.
type item struct {
	ctx      context.Context
	task     Task
	enqueued time.Time

	res  any
	err  error
	info BatchInfo
	done chan struct{}
}

// batch is a forming micro-batch: requests sharing a compatibility key
// that dispatch together, each as its own pool task.
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

// Scheduler micro-batches compatible requests onto a persistent worker
// pool. Requests submitted under the same key within the linger window (or
// until MaxBatch) form one batch; a dispatched batch submits each of its
// requests as its own pool task, so the pool size bounds execution
// concurrency while the queue bound caps admitted work. The batch is the
// unit of admission and of what BatchInfo reports, not of execution: its
// requests share no state and nothing orders them against each other.
type Scheduler struct {
	cfg  SchedulerConfig
	pool *parallel.Pool

	mu      sync.Mutex
	forming map[string]*batch
	depth   int // admitted, not yet delivered
	closed  bool

	// metrics hooks (nil-safe), set by the server
	onBatch func(size int)
}

// NewScheduler starts a scheduler and its worker pool.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	cfg.setDefaults()
	return &Scheduler{
		cfg:     cfg,
		pool:    parallel.NewPool(cfg.Workers),
		forming: make(map[string]*batch),
	}
}

// Depth returns the number of admitted requests not yet delivered.
func (s *Scheduler) Depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depth
}

// Submit admits a request under a compatibility key and blocks until its
// batch executed it or its context expired. A context expiry while queued
// abandons the slot (the executor skips it); the returned error is then
// ctx.Err(). Admission failures (ErrQueueFull, ErrShuttingDown) return
// immediately.
func (s *Scheduler) Submit(ctx context.Context, key string, task Task) (any, BatchInfo, error) {
	it := &item{ctx: ctx, task: task, enqueued: time.Now(), done: make(chan struct{})}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, BatchInfo{}, ErrShuttingDown
	}
	if s.depth >= s.cfg.MaxQueue {
		s.mu.Unlock()
		return nil, BatchInfo{}, ErrQueueFull
	}
	s.depth++
	b, ok := s.forming[key]
	if !ok {
		b = batchPool.Get().(*batch)
		b.key = key
		s.forming[key] = b
		if s.cfg.Linger > 0 {
			b.timer = time.AfterFunc(s.cfg.Linger, func() { s.flush(b) })
		}
	}
	b.items = append(b.items, it)
	full := len(b.items) >= s.cfg.MaxBatch
	var dispatch *batch
	if full || s.cfg.Linger <= 0 {
		dispatch = s.detachLocked(b)
	}
	s.mu.Unlock()
	if dispatch != nil {
		s.dispatch(dispatch)
	}

	select {
	case <-it.done:
		return it.res, it.info, it.err
	case <-ctx.Done():
		// The slot stays admitted until the executor reaches and skips it;
		// that keeps depth accounting one-owner and race-free.
		return nil, BatchInfo{}, ctx.Err()
	}
}

// detachLocked removes a forming batch from the map (so new submissions
// start a fresh one) and stops its linger timer. Caller holds s.mu.
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
// admission order. Expired requests are skipped and delivered their context
// error. If the pool is already closed (shutdown race), the request runs
// inline so no admitted request is ever dropped.
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
			// The slot frees before the submitter wakes: the fair queue
			// refills its release window (== MaxQueue) the moment Submit
			// returns, and must not find this request still counted.
			s.mu.Lock()
			s.depth--
			s.mu.Unlock()
			close(it.done)
		}
		if s.pool.Submit(run) != nil {
			run()
		}
	}
	s.releaseBatch(b)
}

// Close drains the scheduler: forming batches dispatch immediately, new
// submissions fail with ErrShuttingDown, and Close returns once every
// admitted request has been delivered.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	var pending []*batch
	for _, b := range s.forming {
		if d := s.detachLocked(b); d != nil {
			pending = append(pending, d)
		}
	}
	s.mu.Unlock()
	for _, b := range pending {
		s.dispatch(b)
	}
	s.pool.Close()
}
