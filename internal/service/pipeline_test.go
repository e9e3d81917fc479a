package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// holdFirst returns a PreCompute hook that holds the first pool-executed
// computation until release is called and lets every later one through,
// plus a channel closed once the first computation has entered the hook.
func holdFirst() (hook func(), entered <-chan struct{}, release func()) {
	var calls atomic.Int64
	in := make(chan struct{})
	gate := make(chan struct{})
	hook = func() {
		if calls.Add(1) == 1 {
			close(in)
			<-gate
		}
	}
	return hook, in, sync.OnceFunc(func() { close(gate) })
}

// postStatus POSTs body to url+path and returns the status code, or 0
// when the request fails; unlike the test helpers that decode the
// response, it is safe to call off the test goroutine.
func postStatus(url, path, body string) int {
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// pipelineServer starts a server whose first computation is held.
func pipelineServer(t *testing.T, workers int) (*Server, string, <-chan struct{}, func()) {
	t.Helper()
	hook, entered, release := holdFirst()
	srv := New(Config{Workers: workers, Hooks: Hooks{PreCompute: hook}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		release()
		ts.Close()
		srv.Shutdown(context.Background())
	})
	return srv, ts.URL, entered, release
}

// TestBatchJoinsInflightBalance: a batch item sharing its key with an
// in-flight /v1/balance goes through the same get-or-fill, so the key is
// planned once.
func TestBatchJoinsInflightBalance(t *testing.T) {
	srv, url, entered, release := pipelineServer(t, 2)
	body := fmt.Sprintf(uniformReq, 21, 64, "BA")
	codes := make(chan int, 2)
	go func() { codes <- postStatus(url, "/v1/balance", body) }()
	<-entered
	go func() { codes <- postStatus(url, "/v1/balance:batch", `{"items":[`+body+`]}`) }()
	waitFor(t, "batch decoded", func() bool { return srv.Registry().Counter(mBatchRequests).Value() == 1 })
	release()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("status %d, want 200", code)
		}
	}
	if n := srv.Registry().Counter(mPlansComputed).Value(); n != 1 {
		t.Fatalf("plans_computed = %d, want 1: the batch planned a key already in flight", n)
	}
}

// TestRebalanceColdPriorPlannedOnce: a rebalance whose prior is not
// cached, racing a /v1/balance for the prior's key, resolves the prior
// through that balance's flight instead of planning it a second time.
func TestRebalanceColdPriorPlannedOnce(t *testing.T) {
	srv, url, entered, release := pipelineServer(t, 2)
	codes := make(chan int, 2)
	go func() { codes <- postStatus(url, "/v1/balance", fmt.Sprintf(uniformReq, 7, 64, "HF")) }()
	<-entered
	go func() { codes <- postStatus(url, "/v1/rebalance", rebalanceBody(64, "", nil)) }()
	// Misses: the balance's key, the rebalance's drift key, then its prior.
	waitFor(t, "rebalance looked up its prior", func() bool {
		return srv.Registry().Counter(mCacheMisses).Value() >= 3
	})
	release()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("status %d, want 200", code)
		}
	}
	if n := srv.Registry().Counter(mPlansComputed).Value(); n != 1 {
		t.Fatalf("plans_computed = %d, want 1: the prior was planned twice", n)
	}
}

// TestRebalancePriorTakesNoWorkerWhileWaiting is the single-worker form:
// the rebalance's prior fill is queued behind a held computation and a
// /v1/balance for the prior's key joins it. The rebalance must finish
// well inside its deadline — a rebalance that took the only worker and
// then waited on a prior flight still queued behind it would stall until
// the deadline — and the prior must be planned once.
func TestRebalancePriorTakesNoWorkerWhileWaiting(t *testing.T) {
	srv, url, entered, release := pipelineServer(t, 1)
	var wg sync.WaitGroup
	codes := make(chan int, 3)
	post := func(fn func() int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- fn()
		}()
	}
	post(func() int { // holds the only worker
		return postStatus(url, "/v1/balance", fmt.Sprintf(uniformReq, 99, 64, "HF"))
	})
	<-entered
	const deadlineMS = 5000
	var rebalanceTook time.Duration
	post(func() int {
		body := rebalanceBody(64, "", nil)
		body = body[:len(body)-1] + fmt.Sprintf(`,"deadline_ms":%d}`, deadlineMS)
		start := time.Now()
		code := postStatus(url, "/v1/rebalance", body)
		rebalanceTook = time.Since(start)
		return code
	})
	waitFor(t, "rebalance queued", func() bool { return srv.pool.queuedLen() >= 1 })
	post(func() int { return postStatus(url, "/v1/balance", fmt.Sprintf(uniformReq, 7, 64, "HF")) })
	// Misses: the held request's key, the drift key, and the prior's key
	// (looked up by the balance, by the rebalance, or by both).
	waitFor(t, "prior key missed", func() bool { return srv.Registry().Counter(mCacheMisses).Value() >= 3 })
	release()
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("status %d, want 200", code)
		}
	}
	if rebalanceTook >= deadlineMS*time.Millisecond/2 {
		t.Fatalf("rebalance took %v of its %dms deadline", rebalanceTook, deadlineMS)
	}
	// The held request's plan and the prior, each once.
	if n := srv.Registry().Counter(mPlansComputed).Value(); n != 2 {
		t.Fatalf("plans_computed = %d, want 2 (held request + prior)", n)
	}
}
