package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"bisectlb"
	"bisectlb/internal/service"
)

// Serve-miss: every /v1/balance has a key no earlier request used, so
// nothing is served from cache. Flat-family plans are each followed by a
// /v1/rebalance that patches them; interface-family plans run the
// problem constructors and bisectors through the service.

const (
	missNominalRate = 140 // open-loop operations per second
	// missWindow is the closed-loop throughput window.
	missWindow = 2500 * time.Millisecond
)

// missState is the running server and the per-run bookkeeping of the
// signature-stability check.
type missState struct {
	s    *server
	seed uint64
	next atomic.Int64
	// first records the served signature and part digest of the first
	// operations, re-requested at the end of the run.
	mu    sync.Mutex
	first map[int]string
}

const repeatChecked = 32

func setupMiss(r *run) (*missState, error) {
	s, err := startServer(r.slow)
	if err != nil {
		return nil, err
	}
	m := &missState{s: s, seed: r.seed, first: map[int]string{}}
	// Warm connections and pools on operations far past any index a run
	// reaches, so the measured sequence's keys stay unseen.
	var buf bytes.Buffer
	for i := 0; i < 64; i++ {
		op := missOpAt(r.seed, 1<<30+i)
		if code, err := s.post("/v1/balance", mustJSON(op.req), &buf, 0); err != nil || code != http.StatusOK {
			s.stop()
			return nil, fmt.Errorf("warming serve-miss: status %d: %v %s", code, err, buf.Bytes())
		}
	}
	return m, nil
}

func planDigest(p *service.Plan) string {
	var b []byte
	b = fmt.Appendf(b, "%s|", p.Signature)
	for _, pt := range p.Parts {
		b = fmt.Appendf(b, "%x:%g:%d,", pt.ID, pt.Weight, pt.Procs)
	}
	return digestOf([][]byte{b})
}

// missTimes receives one operation's latencies; nil fields are not
// recorded.
type missTimes struct {
	balance, rebalance *samples
	ratios             *ratioSum
	// ids, when set, tags each request so the traced handler can time it;
	// transport receives round trip − handler time.
	ids       *atomic.Uint64
	transport *samples
}

// do runs operation i: the balance request, its check, and for flat
// families the follow-up rebalance and its check. due is when the
// operation was scheduled. It returns the number of 200 responses.
func (m *missState) do(r *run, i int, buf *bytes.Buffer, due time.Time, t missTimes) int {
	op := missOpAt(m.seed, i)
	var resp service.BalanceResponse
	if !m.post(r, "/v1/balance", mustJSON(op.req), buf, &resp, t) {
		return 0
	}
	if t.balance != nil {
		t.balance.add(time.Since(due))
	}
	if err := checkPlan(&resp.Plan, op.req.N); err != nil {
		r.fail("serve-miss op %d (%s %s n=%d): %v", i, op.req.Spec.Family, op.req.Algorithm, op.req.N, err)
		return 1
	}
	if t.ratios != nil {
		t.ratios.add(resp.Ratio)
	}
	if i < repeatChecked {
		m.mu.Lock()
		m.first[i] = planDigest(&resp.Plan)
		m.mu.Unlock()
	}
	if len(op.drift) == 0 {
		return 1
	}
	start := time.Now()
	var rb service.RebalanceResponse
	if !m.post(r, "/v1/rebalance", mustJSON(rebalanceFor(op, &resp.Plan)), buf, &rb, t) {
		return 1
	}
	if t.rebalance != nil {
		t.rebalance.add(time.Since(start))
	}
	if err := checkRebalance(&rb.Plan, op.req.N); err != nil {
		r.fail("serve-miss rebalance %d: %v", i, err)
	} else if t.ratios != nil {
		t.ratios.add(rb.Ratio)
	}
	return 2
}

func (m *missState) post(r *run, path string, body []byte, buf *bytes.Buffer, out any, t missTimes) bool {
	r.attempted.Add(1)
	var id uint64
	if t.ids != nil {
		id = t.ids.Add(1)
	}
	start := time.Now()
	code, err := m.s.post(path, body, buf, id)
	rtt := time.Since(start)
	if err != nil || code != http.StatusOK {
		r.fail("%s: status %d: %v %.200s", path, code, err, buf.Bytes())
		return false
	}
	if id != 0 {
		if hn, ok := m.s.takeHandlerNs(id); ok {
			t.transport.add(rtt - time.Duration(hn))
		}
	}
	if err := decodeJSON(buf.Bytes(), out); err != nil {
		r.fail("%s: %v", path, err)
		return false
	}
	return true
}

// checkRepeats re-requests the first operations' balances and checks
// that each plan, signature included, is exactly what was served first.
func (m *missState) checkRepeats(r *run) {
	var buf bytes.Buffer
	checked, replanned := 0, 0
	for i := 0; i < repeatChecked; i++ {
		want, ok := m.first[i]
		if !ok {
			continue
		}
		var resp service.BalanceResponse
		if !m.post(r, "/v1/balance", mustJSON(missOpAt(m.seed, i).req), &buf, &resp, missTimes{}) {
			continue
		}
		checked++
		if !resp.Cached {
			replanned++
		}
		if got := planDigest(&resp.Plan); got != want {
			r.fail("serve-miss op %d: repeated plan differs from the first (signature %s)", i, resp.Signature)
		}
	}
	fmt.Fprintf(r.log, "repeats: %d plans requested again, %d of them planned afresh after eviction\n", checked, replanned)
}

func runServeMiss(r *run) error {
	m, err := repeatedSetup(r, 15, func() (*missState, error) { return setupMiss(r) }, func(m *missState) { m.s.stop() })
	if err != nil {
		return err
	}
	defer m.s.stop()
	fmt.Fprintf(r.log, "inputs: serve-miss sequence digest %s (first 4096 operations)\n", inputDigest(r.workload, r.seed, nil))
	nextOp := func() int { return int(m.next.Add(1) - 1) }

	var ratios ratioSum
	var rtt samples
	p0 := readProc()
	n, thrUntraced := closedLoop(r.phase(r.closedShare()), missWindow, func(buf *bytes.Buffer) int {
		return m.do(r, nextOp(), buf, time.Now(), missTimes{balance: &rtt, ratios: &ratios})
	})
	p1 := readProc()
	r.set("throughput_rps", thrUntraced, n)
	r.set("rtt_p50_us", us(rtt.quantile(0.5)), rtt.count())
	r.set("ratio_mean", ratios.mean(), ratios.n)
	if n > 0 {
		r.set("cpu_us_per_op", p0.cpuPerOp(p1, n), n)
		r.set("alloc_bytes_per_op", float64(p1.allocBytes-p0.allocBytes)/float64(n), int(n))
	}
	// The repeats go out when the run ends. An untraced run's loop has
	// by then sent far more keys than the plan cache holds, so they are
	// planned afresh; the log line counts how many were.
	defer m.checkRepeats(r)
	if !r.trace {
		return nil
	}

	before, err := m.s.metricz()
	if err != nil {
		return err
	}
	// Percentiles pool the whole phase: 2100 balance and 1050 rebalance
	// samples at 30 seconds a run, 21 and 10 of them beyond the p99.
	var lat, rlat samples
	res, err := openLoop(missNominalRate, r.phase(openShare), func(due time.Time, buf *bytes.Buffer) {
		m.do(r, nextOp(), buf, due, missTimes{balance: &lat, rebalance: &rlat})
	})
	if err != nil {
		return err
	}
	p2 := readProc()
	after, err := m.s.metricz()
	if err != nil {
		return err
	}
	r.set("latency_p50_us", us(lat.quantile(0.50)), lat.count())
	r.set("latency_p99_us", us(lat.quantile(0.99)), lat.count())
	r.set("rebalance_p50_us", us(rlat.quantile(0.50)), rlat.count())
	r.set("rebalance_p99_us", us(rlat.quantile(0.99)), rlat.count())
	r.set("gen.late_p99_us", us(res.late.quantile(0.99)), res.late.count())
	r.set("gc.cpu_share", p0.gcShare(p2), 1)
	r.metriczDelta(before, after)

	var transport samples
	var ids atomic.Uint64
	m.s.tracing.Store(true)
	nT, thrTraced := closedLoop(r.phase(r.closedShare()), missWindow, func(buf *bytes.Buffer) int {
		return m.do(r, nextOp(), buf, time.Now(), missTimes{ids: &ids, transport: &transport})
	})
	m.s.tracing.Store(false)
	r.set("transport_us", us(transport.quantile(0.5)), transport.count())
	r.set("trace.overhead_pct", 100*(thrUntraced/thrTraced-1), nT)

	lad := geometricLadder(100, 16, 25*time.Millisecond)
	capacity, err := lad.capacity(r.phase(0.05), func(rate float64, d time.Duration) (*samples, int64, *openResult, error) {
		var l samples
		f0 := r.failed.Load()
		res, err := openLoop(rate, d, func(due time.Time, buf *bytes.Buffer) {
			m.do(r, nextOp(), buf, due, missTimes{balance: &l})
		})
		return &l, r.failed.Load() - f0, res, err
	})
	if err != nil {
		return err
	}
	r.set("capacity_rps", capacity, 1)

	// Direct ServeHTTP on fresh balance bodies; their responses feed the
	// codec probe.
	var bodies, responses [][]byte
	for i := 0; i < 256; i++ {
		body := mustJSON(missOpAt(r.seed, nextOp()).req)
		rec := httptest.NewRecorder()
		m.s.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/balance", bytes.NewReader(body)))
		bodies = append(bodies, body)
		responses = append(responses, rec.Body.Bytes())
	}
	fresh := make([][]byte, 0, 8192)
	for i := 0; i < cap(fresh); i++ {
		fresh = append(fresh, mustJSON(missOpAt(r.seed, nextOp()).req))
	}
	probeHandler(r, m.s.srv.Handler(), fresh, r.phase(0.1))
	probeCodec(r, bodies, responses)

	// Replay the first 512 operations' specs through the facade.
	var flat []service.BalanceRequest
	var drifts [][]driftPick
	var agg layerAgg
	var build samples
	for i := 0; i < 512; i++ {
		op := missOpAt(r.seed, i)
		if len(op.drift) > 0 {
			flat = append(flat, op.req)
			drifts = append(drifts, op.drift)
			continue
		}
		start := time.Now()
		p, err := buildInterface(op.req.Spec)
		build.add(time.Since(start))
		alg, aerr := bisectlb.ParseAlgorithm(op.req.Algorithm)
		r.attempted.Add(1)
		if err != nil || aerr != nil {
			r.fail("interface replay inputs: %v %v", err, aerr)
			continue
		}
		res, err := agg.plan(p, op.req.Spec.Family, op.req.N, bisectlb.Config{Algorithm: alg}, r.slow)
		if err != nil || len(res.Parts) > op.req.N {
			r.fail("interface replay %s: %v", op.req.Spec.Family, err)
		}
	}
	probeFlatReplay(r, flat, drifts, &build)
	r.set("core.plan_us.interface", us(agg.interfacePlan.quantile(0.5)), agg.interfacePlan.count())
	r.set("spec.build_us", us(build.quantile(0.5)), build.count())
	agg.report(r)
	return nil
}
