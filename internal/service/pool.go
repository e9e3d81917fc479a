package service

import (
	"context"
	"errors"
	"sync"

	"bisectlb/internal/obs"
)

// Typed admission errors. The handler maps them to 429 (queue full /
// tenant share exhausted) and 503 (draining / deadline) responses.
var (
	// ErrQueueFull is returned when the admission queue has no room; the
	// caller should shed the request immediately (HTTP 429).
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrTenantQueueFull is returned when one tenant's share of the
	// admission queue is exhausted while the queue as a whole still has
	// room — the isolation bound that stops a hot tenant from occupying
	// every slot (HTTP 429).
	ErrTenantQueueFull = errors.New("service: tenant queue share exhausted")
	// ErrDraining is returned for work submitted after Stop began.
	ErrDraining = errors.New("service: server is draining")
)

// workerPool executes submitted functions on a fixed number of worker
// goroutines behind a bounded admission queue. RunTenant blocks the caller
// until its task finishes or the caller's context expires; tasks whose
// context is already dead when a worker picks them up are skipped, so an
// abandoned queue entry costs no compute.
//
// The queue is not one FIFO: each tenant gets its own FIFO and workers
// dequeue by deficit round robin over the tenants with queued work —
// each visit serves up to the tenant's weight in tasks before moving
// on. A tenant that queues 50 tasks ahead of another tenant's single
// task delays it by at most one weight quantum, not 50 tasks, which is
// what keeps per-tenant latency bounded when one client runs hot. Two
// admission bounds apply: the pool-wide depth, and a per-tenant share
// of it (tenantCap), so a hot tenant also cannot own every slot.
type workerPool struct {
	mu        sync.Mutex
	cond      *sync.Cond
	depth     int
	tenantCap int
	queued    int // total queued tasks across tenants
	stopped   bool
	byID      map[string]*tenantQ
	ring      []*tenantQ // tenants with queued work, round-robin order
	next      int        // ring index the next dequeue inspects
	wg        sync.WaitGroup
	reg       *obs.Registry
}

type tenantQ struct {
	id     string
	weight int // tasks served per round-robin visit (≥ 1)
	credit int // remaining quantum in the current visit
	tasks  []*poolTask
	inRing bool
}

type poolTask struct {
	ctx      context.Context
	fn       func()
	executed bool // written by the worker before close(done)
	done     chan struct{}
}

// newWorkerPool starts workers goroutines over a queue of depth slots,
// of which one tenant may hold at most tenantCap (pass depth for no
// per-tenant bound). All three arrive defaulted and in range from
// Config.withDefaults and Config.tenantQueueCap.
func newWorkerPool(workers, depth, tenantCap int, reg *obs.Registry) *workerPool {
	p := &workerPool{
		depth:     depth,
		tenantCap: tenantCap,
		byID:      make(map[string]*tenantQ),
		reg:       reg,
	}
	p.cond = sync.NewCond(&p.mu)
	reg.Gauge(mWorkers).Set(int64(workers))
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for p.queued == 0 && !p.stopped {
			p.cond.Wait()
		}
		if p.queued == 0 {
			// Stopped and fully drained (abandoned tasks included, so
			// their contexts are observed).
			p.mu.Unlock()
			return
		}
		t := p.dequeueLocked()
		p.reg.Gauge(mQueueDepth).Set(int64(p.queued))
		p.mu.Unlock()
		p.exec(t)
	}
}

// dequeueLocked pops the next task under deficit round robin. The
// caller holds p.mu and guarantees p.queued > 0, so some ring entry has
// work and the loop terminates.
func (p *workerPool) dequeueLocked() *poolTask {
	for {
		if p.next >= len(p.ring) {
			p.next = 0
		}
		tq := p.ring[p.next]
		if len(tq.tasks) == 0 {
			p.removeFromRingLocked(p.next, tq)
			continue
		}
		if tq.credit <= 0 {
			// Quantum spent: replenish and move to the next tenant.
			tq.credit = tq.weight
			p.next++
			continue
		}
		tq.credit--
		t := tq.tasks[0]
		tq.tasks[0] = nil
		tq.tasks = tq.tasks[1:]
		p.queued--
		if len(tq.tasks) == 0 {
			p.removeFromRingLocked(p.next, tq)
		}
		return t
	}
}

func (p *workerPool) removeFromRingLocked(i int, tq *tenantQ) {
	tq.inRing = false
	tq.tasks = nil // release the drained backing array
	p.ring = append(p.ring[:i], p.ring[i+1:]...)
}

func (p *workerPool) exec(t *poolTask) {
	if t.ctx.Err() == nil {
		t.fn()
		t.executed = true
	}
	close(t.done)
}

// RunTenant admits fn to tenant's queue (rejecting with ErrQueueFull
// when the pool is at capacity and ErrTenantQueueFull when the tenant's
// share is) and waits for it to execute. If ctx expires first,
// RunTenant returns ctx's error; the queued task is skipped when
// reached. weight (≥ 1) sets the tenant's round-robin quantum; the
// value carried by the tenant's first-ever submission wins.
func (p *workerPool) RunTenant(ctx context.Context, tenant string, weight int, fn func()) error {
	if weight < 1 {
		weight = 1
	}
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return ErrDraining
	}
	if p.queued >= p.depth {
		p.mu.Unlock()
		return ErrQueueFull
	}
	tq := p.byID[tenant]
	if tq == nil {
		tq = &tenantQ{id: tenant, weight: weight}
		p.byID[tenant] = tq
	}
	if len(tq.tasks) >= p.tenantCap {
		p.mu.Unlock()
		return ErrTenantQueueFull
	}
	t := &poolTask{ctx: ctx, fn: fn, done: make(chan struct{})}
	tq.tasks = append(tq.tasks, t)
	p.queued++
	if !tq.inRing {
		tq.inRing = true
		tq.credit = tq.weight
		p.ring = append(p.ring, tq)
	}
	p.reg.Gauge(mQueueDepth).Set(int64(p.queued))
	p.cond.Signal()
	p.mu.Unlock()

	select {
	case <-t.done:
		if !t.executed {
			// The worker observed our dead context and skipped the task.
			if err := ctx.Err(); err != nil {
				return err
			}
			return ErrDraining
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// queuedLen reports the number of queued (not yet dequeued) tasks.
func (p *workerPool) queuedLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}

// Stop rejects new submissions and waits for the workers to finish the
// queue. Call after the HTTP server has drained so no caller is left
// waiting on an unexecuted task.
func (p *workerPool) Stop() {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		return
	}
	p.stopped = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
