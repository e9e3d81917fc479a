package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestPoolAdmissionRejection fills every worker and queue slot, then
// checks the next submission is shed immediately with ErrQueueFull.
func TestPoolAdmissionRejection(t *testing.T) {
	p := newWorkerPool(1, 2, 2, nil)
	defer p.Stop()

	gate := make(chan struct{})
	running := make(chan struct{})
	var wg sync.WaitGroup
	// One task occupies the worker; two fill the queue.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.RunTenant(context.Background(), "", 1, func() { close(running); <-gate })
	}()
	<-running
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.RunTenant(context.Background(), "", 1, func() {})
		}()
	}
	// Wait until both fillers are actually queued.
	deadline := time.Now().Add(5 * time.Second)
	for p.queuedLen() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	err := p.RunTenant(context.Background(), "", 1, func() { t.Error("overflow task must not run") })
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow Run = %v, want ErrQueueFull", err)
	}

	close(gate)
	wg.Wait()
}

// TestPoolSaturationBoundary walks the admission queue across its exact
// boundaries: fill to depth (last slot admits), overflow by one (shed),
// drain exactly one slot (refill admits again), then drain fully and
// check the pool serves normally. The off-by-one cases here are the
// ones a `>=` vs `>` slip in the admission check would break.
func TestPoolSaturationBoundary(t *testing.T) {
	const depth = 3
	p := newWorkerPool(1, depth, depth, nil)
	defer p.Stop()

	gate := make(chan struct{})
	running := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.RunTenant(context.Background(), "", 1, func() { close(running); <-gate })
	}()
	<-running

	// Fill every queue slot; each submission up to depth must admit.
	done := make(chan error, depth+1)
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done <- p.RunTenant(context.Background(), "", 1, func() {})
		}()
		deadline := time.Now().Add(5 * time.Second)
		for p.queuedLen() < i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("slot %d never queued", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Exactly full: one more must shed.
	if err := p.RunTenant(context.Background(), "", 1, func() {}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow at depth = %v, want ErrQueueFull", err)
	}

	// Drain one task by expiring its context; its slot frees when the
	// worker skips it, and the freed slot must admit again. Cancelling
	// releases the caller immediately, but the slot itself only frees
	// once a worker reaches the abandoned entry — so first release the
	// held task and wait for the queue to shrink.
	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for p.queuedLen() >= depth {
		if time.Now().After(deadline) {
			t.Fatal("queue never drained below depth")
		}
		time.Sleep(time.Millisecond)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		done <- p.RunTenant(context.Background(), "", 1, func() {})
	}()

	wg.Wait()
	close(done)
	for err := range done {
		if err != nil {
			t.Fatalf("admitted task failed: %v", err)
		}
	}
	if got := p.queuedLen(); got != 0 {
		t.Fatalf("queued after full drain = %d, want 0", got)
	}
}

// TestPoolTenantShare checks the per-tenant admission bound: a tenant
// at its share is shed with ErrTenantQueueFull while another tenant
// still admits into the remaining pool-wide slots.
func TestPoolTenantShare(t *testing.T) {
	p := newWorkerPool(1, 4, 2, nil)
	defer p.Stop()

	gate := make(chan struct{})
	running := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.RunTenant(context.Background(), "hog", 1, func() { close(running); <-gate })
	}()
	<-running

	// The hog fills its share of the queue (2 of 4 slots).
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.RunTenant(context.Background(), "hog", 1, func() {})
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.queuedLen() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("hog tasks never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The hog's next submission is shed on its share, not the pool bound.
	if err := p.RunTenant(context.Background(), "hog", 1, func() {}); !errors.Is(err, ErrTenantQueueFull) {
		t.Fatalf("hog overflow = %v, want ErrTenantQueueFull", err)
	}
	// A polite tenant still has room.
	wg.Add(1)
	politeRan := make(chan struct{})
	go func() {
		defer wg.Done()
		if err := p.RunTenant(context.Background(), "polite", 1, func() { close(politeRan) }); err != nil {
			t.Errorf("polite tenant shed: %v", err)
		}
	}()

	close(gate)
	wg.Wait()
	<-politeRan
}

// TestPoolWeightedFairDequeue holds the single worker, queues a burst
// for tenant A and a single task for tenant B, and checks B's task is
// not stuck behind A's whole burst — the round-robin guarantee that
// bounds a polite tenant's queueing delay by one quantum, not by the
// hog's backlog.
func TestPoolWeightedFairDequeue(t *testing.T) {
	p := newWorkerPool(1, 16, 16, nil)
	defer p.Stop()

	gate := make(chan struct{})
	running := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.RunTenant(context.Background(), "a", 1, func() { close(running); <-gate })
	}()
	<-running

	var mu sync.Mutex
	var order []string
	queued := 0
	enqueue := func(tenant, label string) {
		queued++
		want := queued
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.RunTenant(context.Background(), tenant, 1, func() {
				mu.Lock()
				order = append(order, label)
				mu.Unlock()
			})
		}()
		// Wait for this submission to land before the next, so arrival
		// order (and therefore intra-tenant FIFO order) is deterministic.
		deadline := time.Now().Add(5 * time.Second)
		for p.queuedLen() < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s never queued", label)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Deterministic arrival order: A's burst first, then B's single task.
	for i := 0; i < 4; i++ {
		enqueue("a", fmt.Sprintf("a%d", i))
	}
	enqueue("b", "b0")

	close(gate)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(order) != 5 {
		t.Fatalf("executed %d tasks, want 5 (%v)", len(order), order)
	}
	pos := map[string]int{}
	for i, l := range order {
		pos[l] = i
	}
	// With weight-1 quanta, B's task must run after at most one more A
	// task, never behind the whole burst.
	if pos["b0"] > 2 {
		t.Fatalf("b0 executed at position %d of %v — starved behind the a-burst", pos["b0"], order)
	}
}

// TestPoolDeadlineWhileQueued checks a task whose context expires in the
// queue returns DeadlineExceeded to its caller and is skipped (never
// executed) by the worker.
func TestPoolDeadlineWhileQueued(t *testing.T) {
	p := newWorkerPool(1, 2, 2, nil)
	defer p.Stop()

	gate := make(chan struct{})
	running := make(chan struct{})
	go p.RunTenant(context.Background(), "", 1, func() { close(running); <-gate })
	<-running

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	executed := make(chan struct{}, 1)
	err := p.RunTenant(ctx, "", 1, func() { executed <- struct{}{} })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run = %v, want DeadlineExceeded", err)
	}

	close(gate)
	p.Stop() // waits for the worker to drain the abandoned task
	select {
	case <-executed:
		t.Fatal("expired task was executed")
	default:
	}
}

// TestPoolRunsQueuedWork is the happy path: more tasks than workers all
// complete.
func TestPoolRunsQueuedWork(t *testing.T) {
	p := newWorkerPool(2, 8, 8, nil)
	defer p.Stop()
	var mu sync.Mutex
	ran := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.RunTenant(context.Background(), "", 1, func() {
				mu.Lock()
				ran++
				mu.Unlock()
			}); err != nil {
				t.Errorf("Run: %v", err)
			}
		}()
	}
	wg.Wait()
	if ran != 8 {
		t.Fatalf("ran = %d, want 8", ran)
	}
}

// TestPoolStopRejectsNewWork checks submissions after Stop get the typed
// draining error.
func TestPoolStopRejectsNewWork(t *testing.T) {
	p := newWorkerPool(1, 1, 1, nil)
	p.Stop()
	if err := p.RunTenant(context.Background(), "", 1, func() {}); !errors.Is(err, ErrDraining) {
		t.Fatalf("Run after Stop = %v, want ErrDraining", err)
	}
}

// TestPoolStopDrainsQueue checks tasks queued before Stop still execute:
// Stop is a drain, not an abort.
func TestPoolStopDrainsQueue(t *testing.T) {
	p := newWorkerPool(1, 8, 8, nil)
	gate := make(chan struct{})
	running := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.RunTenant(context.Background(), "", 1, func() { close(running); <-gate })
	}()
	<-running
	var mu sync.Mutex
	ran := 0
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.RunTenant(context.Background(), "", 1, func() {
				mu.Lock()
				ran++
				mu.Unlock()
			})
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.queuedLen() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("tasks never queued")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	p.Stop()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if ran != 4 {
		t.Fatalf("ran = %d, want 4 (Stop must drain the queue)", ran)
	}
}
