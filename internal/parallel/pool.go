package parallel

import (
	"errors"
	"sync"
)

// ErrPoolClosed is returned by Pool.Submit after Close has begun: the pool
// drains what it already accepted but takes no new work.
var ErrPoolClosed = errors.New("parallel: pool closed")

// Pool is the persistent counterpart to Map/ForEach: a fixed set of worker
// goroutines consuming an unbounded FIFO of tasks. Map is built for one-shot
// experiment fan-outs that start and finish together; the executor's
// fork/join needs workers that outlive any single run.
//
// The queue is deliberately unbounded: admission control (bounding how much
// work may be outstanding) belongs to the caller, which can reject work
// before it is submitted. An in-pool bound would make Submit block.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	closed bool
	wg     sync.WaitGroup
}

// NewPool starts a pool with n workers (n <= 0 means Workers()).
func NewPool(n int) *Pool {
	if n <= 0 {
		n = Workers()
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 && p.closed {
			p.mu.Unlock()
			return
		}
		task := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		task()
	}
}

// Submit enqueues a task for the next free worker. It never blocks; after
// Close it rejects the task with ErrPoolClosed.
func (p *Pool) Submit(task func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	p.queue = append(p.queue, task)
	p.cond.Signal()
	return nil
}

// Fork runs fn(0), fn(1), …, fn(n-1) concurrently — shards 1..n-1 on pool
// workers, shard 0 inline on the calling goroutine — and returns when every
// call has completed. It is the fork-join primitive under the secure
// executor's intra-inference sharding: the caller keeps doing useful work
// instead of blocking, so a Fork degrades gracefully to plain serial
// execution when the pool is busy (or closed, in which case the remaining
// shards also run inline).
//
// A panic in any shard is captured, and the first one re-raised on the
// calling goroutine after all shards have finished — never on a pool
// worker, where it would kill the process, and never before the join,
// where the caller could unwind while shards still touch shared state.
//
// Fork must not be called from inside a pool task: a fully busy pool whose
// tasks all wait on sub-forks would deadlock.
func (p *Pool) Fork(n int, fn func(shard int)) {
	if n <= 1 {
		if n == 1 {
			fn(0)
		}
		return
	}
	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
	)
	run := func(shard int) {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicVal == nil {
					panicVal = r
				}
				panicMu.Unlock()
			}
		}()
		fn(shard)
	}
	wg.Add(n - 1)
	for s := 1; s < n; s++ {
		s := s
		task := func() {
			defer wg.Done()
			run(s)
		}
		if p.Submit(task) != nil {
			task() // pool closed: degrade to inline
		}
	}
	run(0)
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// Depth returns the number of tasks waiting for a worker (not counting
// tasks already executing).
func (p *Pool) Depth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Close stops accepting new tasks, lets the workers drain everything
// already accepted, and waits for them to exit. Safe to call twice.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
