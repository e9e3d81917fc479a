package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bisectlb/internal/obs"
	"bisectlb/internal/service"
)

// conns is the number of client connections (and open-loop workers):
// the benchmark box has two cores, and one process drives the load.
const conns = 2

// server is an lbserve instance running in-process behind a loopback
// listener, as lbload -inprocess runs it, plus the client that drives it.
type server struct {
	srv     *service.Server
	httpSrv *http.Server
	done    chan struct{}
	base    string
	client  *http.Client
	// handlerNs, when tracing, maps a request id to the time its
	// ServeHTTP took (see traceHandler).
	mu        sync.Mutex
	tracing   atomic.Bool
	handlerNs map[uint64]int64
}

func startServer(slow slowdown) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	s := &server{
		srv:       service.New(service.Config{}),
		done:      make(chan struct{}),
		base:      "http://" + ln.Addr().String(),
		handlerNs: map[uint64]int64{},
	}
	s.httpSrv = &http.Server{Handler: s.traceHandler(slow.wrap(s.srv.Handler()))}
	go func() {
		defer close(s.done)
		s.httpSrv.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	s.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	return s, nil
}

// traceHandler times ServeHTTP for requests that carry an id header
// while tracing is on; the client subtracts it from the round trip.
func (s *server) traceHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.tracing.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		if id, err := strconv.ParseUint(r.Header.Get("X-Perfbench-Id"), 10, 64); err == nil {
			s.mu.Lock()
			s.handlerNs[id] = int64(d)
			s.mu.Unlock()
		}
	})
}

func (s *server) takeHandlerNs(id uint64) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.handlerNs[id]
	delete(s.handlerNs, id)
	return v, ok
}

func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.httpSrv.Shutdown(ctx)
	<-s.done
	s.srv.Shutdown(ctx)
	s.client.CloseIdleConnections()
}

// post sends one request and reads the whole response into buf.
func (s *server) post(path string, body []byte, buf *bytes.Buffer, id uint64) (int, error) {
	req, err := http.NewRequest(http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != 0 {
		req.Header.Set("X-Perfbench-Id", strconv.FormatUint(id, 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func (s *server) metricz() (obs.Snapshot, error) {
	var sn obs.Snapshot
	resp, err := s.client.Get(s.base + "/metricz")
	if err != nil {
		return sn, err
	}
	defer resp.Body.Close()
	return sn, json.NewDecoder(resp.Body).Decode(&sn)
}

// checkPlan verifies one served plan: parts ≤ N, part weights summing
// to the total, Max and Ratio consistent with the parts, and the ratio
// within the guarantee certificate when α was declared.
func checkPlan(p *service.Plan, n int) error {
	if p.N != n || len(p.Parts) == 0 || len(p.Parts) > n {
		return fmt.Errorf("plan has %d parts for n=%d (plan n=%d)", len(p.Parts), n, p.N)
	}
	var sum, max float64
	for _, pt := range p.Parts {
		sum += pt.Weight
		if pt.Weight > max {
			max = pt.Weight
		}
	}
	if !near(sum, p.Total) || !near(max, p.Max) {
		return fmt.Errorf("part weights sum %v / max %v, plan says %v / %v", sum, max, p.Total, p.Max)
	}
	if !near(p.Ratio, p.Max/(p.Total/float64(n))) {
		return fmt.Errorf("ratio %v inconsistent with max/(W/N)", p.Ratio)
	}
	if p.Guarantee > 0 && p.Ratio > p.Guarantee+1e-9 {
		return fmt.Errorf("ratio %v exceeds guarantee %v", p.Ratio, p.Guarantee)
	}
	if p.Signature == "" {
		return fmt.Errorf("plan has no signature")
	}
	return nil
}

// checkRebalance verifies a rebalanced plan against its certificate.
// Noop and full-replan plans are ordinary plans. A patched plan may hold
// more parts than N because parts share processor groups: there the
// groups' processors must sum to N and Max is the heaviest group load.
// Either way the ratio must stay within the band RebalanceInfo reports
// whenever no oversize part survived, the case the band is promised for.
func checkRebalance(p *service.Plan, n int) error {
	info := p.Rebalance
	if info == nil {
		return fmt.Errorf("rebalance response carries no certificate")
	}
	if info.Oversize == 0 && p.Ratio > info.Band+1e-9 {
		return fmt.Errorf("rebalanced ratio %v exceeds band %v", p.Ratio, info.Band)
	}
	if len(info.GroupProcs) == 0 {
		q := *p
		q.Guarantee = 0 // a rebalanced plan answers to the band
		return checkPlan(&q, n)
	}
	procs := 0
	for _, g := range info.GroupProcs {
		procs += g
	}
	if procs != n || p.N != n {
		return fmt.Errorf("patched plan groups own %d processors for n=%d", procs, n)
	}
	loads := make([]float64, len(info.GroupProcs))
	var sum float64
	for _, pt := range p.Parts {
		if pt.Group < 0 || pt.Group >= len(loads) {
			return fmt.Errorf("part %x names group %d of %d", pt.ID, pt.Group, len(loads))
		}
		loads[pt.Group] += pt.Weight
		sum += pt.Weight
	}
	var max float64
	for _, l := range loads {
		if l > max {
			max = l
		}
	}
	if !near(sum, p.Total) || !near(max, p.Max) || !near(p.Ratio, p.Max/(p.Total/float64(n))) {
		return fmt.Errorf("patched plan sums %v / max group %v / ratio %v disagree with %v / %v", sum, max, p.Ratio, p.Total, p.Max)
	}
	return nil
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

// ratioSum accumulates ratio_mean over the plans a phase produced.
type ratioSum struct {
	mu  sync.Mutex
	sum float64
	n   int
}

func (r *ratioSum) add(v float64) {
	r.mu.Lock()
	r.sum += v
	r.n++
	r.mu.Unlock()
}

func (r *ratioSum) mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// closedLoop runs op on each of conns workers back to back until d has
// passed. It returns the completed operation count and the median over
// windows of the given width of completions per second.
func closedLoop(d, width time.Duration, op func(buf *bytes.Buffer) int) (int, float64) {
	var wg sync.WaitGroup
	start := time.Now()
	done := newWindowed(start, width)
	stopAt := start.Add(d)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(stopAt) {
				for k := op(&buf); k > 0; k-- {
					done.add(time.Now())
				}
			}
		}()
	}
	wg.Wait()
	return done.count(), done.rate(time.Now())
}

// openResult is the outcome of one open-loop phase.
type openResult struct {
	sent    int
	late    samples // dispatch time − due time
	backlog int     // operations still queued when dispatch ended
}

// openLoop issues operations on a fixed schedule at rate per second for
// d, handing each to one of conns workers with its due time; op times
// its request from that due time, so a stall counts against every
// request it delays.
func openLoop(rate float64, d time.Duration, op func(due time.Time, buf *bytes.Buffer)) (*openResult, error) {
	total := int(rate * d.Seconds())
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / rate)
	// start precedes the timer, so no expiry comes before its due time.
	start := time.Now()
	tick, err := newTicker(interval)
	if err != nil {
		return nil, err
	}
	defer tick.stop()
	// Up to one second of backlog may queue before the dispatcher itself
	// blocks; by then the phase has failed its latency limit anyway.
	queue := make(chan time.Time, int(rate)+1)
	res := &openResult{sent: total}
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for due := range queue {
				op(due, &buf)
			}
		}()
	}
	defer func() {
		close(queue)
		wg.Wait()
	}()
	for i := 0; i < total; {
		n, err := tick.wait()
		if err != nil {
			return nil, fmt.Errorf("open-loop ticker: %w", err)
		}
		for ; n > 0 && i < total; n-- {
			i++
			due := start.Add(time.Duration(i) * interval)
			queue <- due
			res.late.add(time.Since(due))
		}
	}
	res.backlog = len(queue)
	return res, nil
}

// ladder is a workload's fixed capacity ladder and its p99 limit.
type ladder struct {
	rungs []float64
	limit time.Duration
}

func geometricLadder(lo float64, steps int, limit time.Duration) ladder {
	l := ladder{limit: limit}
	for i, r := 0, lo; i < steps; i, r = i+1, r*1.25 {
		l.rungs = append(l.rungs, r)
	}
	return l
}

// capacity binary-searches the ladder for the highest rung whose
// open-loop probe keeps p99 within the limit, fails nothing and ends
// without a growing backlog. probe runs one rung and returns its
// latencies and failure count.
func (l ladder) capacity(probeTime time.Duration, probe func(rate float64, d time.Duration) (*samples, int64, *openResult, error)) (float64, error) {
	lo, hi := -1, len(l.rungs)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		lat, failed, res, err := probe(l.rungs[mid], probeTime)
		if err != nil {
			return 0, err
		}
		ok := failed == 0 && lat.count() > 0 && lat.quantile(0.99) <= float64(l.limit) &&
			res.backlog <= 2+res.sent/50
		if ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo < 0 {
		return 0, nil
	}
	return l.rungs[lo], nil
}

// metriczDelta turns two /metricz snapshots around a phase into the
// service-layer metrics. /v1/rebalance looks its prior plan up in the
// cache once per computed patch; those internal lookups are taken out
// so the hit ratio counts served responses only.
func (r *run) metriczDelta(a, b obs.Snapshot) {
	c := func(name string) float64 { return float64(b.Counters[name] - a.Counters[name]) }
	hist := func(name string) (float64, float64) {
		return float64(b.Histograms[name].Sum - a.Histograms[name].Sum),
			float64(b.Histograms[name].Count - a.Histograms[name].Count)
	}
	patches := c("service.rebalance.noop") + c("service.rebalance.patched") + c("service.rebalance.full_replans")
	priorComputed := c("service.rebalance.prior_computed")
	hits := c("service.cache_hits") - (patches - priorComputed)
	misses := c("service.cache_misses") - priorComputed
	if served := hits + misses; served > 0 {
		r.set("service.cache_hit_ratio", hits/served, int(served))
	}
	if balanceMisses := misses - patches; balanceMisses > 0 {
		r.set("service.plans_computed_per_miss", c("service.plans_computed")/balanceMisses, int(balanceMisses))
	}
	compSum, compN := hist("service.compute_ns")
	latSum, latN := hist("service.latency_ns")
	compMean := 0.0
	if compN > 0 {
		compMean = compSum / compN
		r.set("service.compute_mean_us", us(compMean), int(compN))
	}
	if latN > 0 {
		// Every computed request is also a latency sample, so the
		// difference of means is the mean time spent outside planning.
		r.set("service.noncompute_mean_us", us(latSum/latN-compMean*compN/latN), int(latN))
	}
	r.set("service.singleflight_coalesced", c("service.singleflight_coalesced"), 1)
	r.set("service.planner_pool.drops", c("service.planner_pool.drops"), 1)
	var rejected float64
	for name := range b.Counters {
		if strings.HasPrefix(name, "service.rejected_") {
			rejected += c(name)
		}
	}
	r.set("service.rejected", rejected, 1)
	if ps, pn := hist("service.rebalance.patch_ns"); pn > 0 {
		r.set("service.rebalance.patch_mean_us", us(ps/pn), int(pn))
	}
	if patches > 0 {
		r.set("service.rebalance.patched_share", c("service.rebalance.patched")/patches, int(patches))
	}
}

// repeatedSetup runs setup k times and records the median as setup_s,
// keeping the last instance and releasing the others.
func repeatedSetup[T any](r *run, k int, setup func() (T, error), release func(T)) (T, error) {
	var times []float64
	var cur T
	for i := 0; i < k; i++ {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return cur, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < k-1 {
			release(v)
		}
		cur = v
	}
	r.set("setup_s", median(times), k)
	return cur, nil
}
