package main

import (
	"bytes"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"bisectlb/internal/service"
)

// Serve-hit: POST /v1/balance over a warmed pool of 64 bodies, so decode,
// canonical key, cache lookup, response encode and net/http do all the
// work and the planner does none.

const (
	hitNominalRate = 2000 // open-loop requests per second
	// hitWindow is the closed-loop throughput window.
	hitWindow = time.Second / 2
)

// hitState is the warmed pool: each body, the exact bytes its cached
// response must repeat, and its plan's ratio.
type hitState struct {
	s      *server
	pool   []service.BalanceRequest
	bodies [][]byte
	want   [][]byte
	ratios []float64
}

func setupHit(r *run) (*hitState, error) {
	s, err := startServer(r.slow)
	if err != nil {
		return nil, err
	}
	h := &hitState{s: s, pool: hitPool(r.seed)}
	var buf bytes.Buffer
	for _, req := range h.pool {
		body := mustJSON(req)
		// The first request computes the plan, the second is served from
		// cache; every later response must repeat the second byte for byte.
		for i := 0; i < 2; i++ {
			code, err := s.post("/v1/balance", body, &buf, 0)
			if err != nil || code != http.StatusOK {
				s.stop()
				return nil, fmt.Errorf("warming %s: status %d: %v %s", body, code, err, buf.Bytes())
			}
		}
		var resp service.BalanceResponse
		if err := decodeJSON(buf.Bytes(), &resp); err != nil {
			s.stop()
			return nil, err
		}
		if err := checkPlan(&resp.Plan, req.N); err != nil || !resp.Cached {
			s.stop()
			return nil, fmt.Errorf("warm plan for %s fails its check (cached=%v): %v", body, resp.Cached, err)
		}
		h.bodies = append(h.bodies, body)
		h.want = append(h.want, append([]byte(nil), buf.Bytes()...))
		h.ratios = append(h.ratios, resp.Ratio)
	}
	return h, nil
}

// do serves pool body i and checks that the response repeats the
// warmed plan exactly (the plan signature is stable across repeats).
func (h *hitState) do(r *run, i int, buf *bytes.Buffer, id uint64) bool {
	i %= len(h.bodies)
	r.attempted.Add(1)
	code, err := h.s.post("/v1/balance", h.bodies[i], buf, id)
	if err != nil || code != http.StatusOK {
		r.fail("serve-hit body %d: status %d: %v", i, code, err)
		return false
	}
	if !bytes.Equal(buf.Bytes(), h.want[i]) {
		r.fail("serve-hit body %d: response differs from the warmed plan", i)
		return false
	}
	return true
}

func runServeHit(r *run) error {
	h, err := repeatedSetup(r, 15, func() (*hitState, error) { return setupHit(r) }, func(h *hitState) { h.s.stop() })
	if err != nil {
		return err
	}
	defer h.s.stop()
	fmt.Fprintf(r.log, "inputs: serve-hit pool of %d bodies, digest %s\n", len(h.bodies), inputDigest(r.workload, r.seed, nil))

	var next atomic.Int64
	var ratios ratioSum
	var rtt samples
	closedOp := func(buf *bytes.Buffer) int {
		i := int(next.Add(1))
		start := time.Now()
		if !h.do(r, i, buf, 0) {
			return 0
		}
		rtt.add(time.Since(start))
		ratios.add(h.ratios[i%len(h.ratios)])
		return 1
	}
	p0 := readProc()
	n, thrUntraced := closedLoop(r.phase(r.closedShare()), hitWindow, closedOp)
	p1 := readProc()
	r.set("throughput_rps", thrUntraced, n)
	r.set("rtt_p50_us", us(rtt.quantile(0.5)), rtt.count())
	r.set("ratio_mean", ratios.mean(), ratios.n)
	if n > 0 {
		r.set("cpu_us_per_op", p0.cpuPerOp(p1, n), n)
		r.set("alloc_bytes_per_op", float64(p1.allocBytes-p0.allocBytes)/float64(n), int(n))
	}
	if !r.trace {
		return nil
	}

	// Traced run: the open loop at the nominal rate, then the same closed
	// loop with ServeHTTP timed in place, the capacity ladder and the
	// layer probes.
	before, err := h.s.metricz()
	if err != nil {
		return err
	}
	// Percentiles pool the whole phase: 30000 samples at 30 seconds a
	// run, 300 of them beyond the p99.
	var lat samples
	res, err := openLoop(hitNominalRate, r.phase(openShare), func(due time.Time, buf *bytes.Buffer) {
		if h.do(r, int(next.Add(1)), buf, 0) {
			lat.add(time.Since(due))
		}
	})
	if err != nil {
		return err
	}
	p2 := readProc()
	after, err := h.s.metricz()
	if err != nil {
		return err
	}
	r.set("latency_p50_us", us(lat.quantile(0.50)), lat.count())
	r.set("latency_p99_us", us(lat.quantile(0.99)), lat.count())
	r.set("gen.late_p99_us", us(res.late.quantile(0.99)), res.late.count())
	r.set("gc.cpu_share", p0.gcShare(p2), 1)
	r.metriczDelta(before, after)

	// ServeHTTP timed in place: transport = round trip − handler per
	// request, and the throughput difference against the untimed loop
	// above is the tracing overhead.
	var transport samples
	var ids atomic.Uint64
	h.s.tracing.Store(true)
	nT, thrTraced := closedLoop(r.phase(r.closedShare()), hitWindow, func(buf *bytes.Buffer) int {
		id := ids.Add(1)
		start := time.Now()
		if !h.do(r, int(next.Add(1)), buf, id) {
			return 0
		}
		rtt := time.Since(start)
		if hn, ok := h.s.takeHandlerNs(id); ok {
			transport.add(rtt - time.Duration(hn))
		}
		return 1
	})
	h.s.tracing.Store(false)
	r.set("transport_us", us(transport.quantile(0.5)), transport.count())
	r.set("trace.overhead_pct", 100*(thrUntraced/thrTraced-1), nT)

	lad := geometricLadder(1000, 16, 2*time.Millisecond)
	capacity, err := lad.capacity(r.phase(0.05), func(rate float64, d time.Duration) (*samples, int64, *openResult, error) {
		var l samples
		f0 := r.failed.Load()
		res, err := openLoop(rate, d, func(due time.Time, buf *bytes.Buffer) {
			if h.do(r, int(next.Add(1)), buf, 0) {
				l.add(time.Since(due))
			}
		})
		return &l, r.failed.Load() - f0, res, err
	})
	if err != nil {
		return err
	}
	r.set("capacity_rps", capacity, 1)

	probeHandler(r, h.s.srv.Handler(), h.bodies, r.phase(0.1))
	probeCodec(r, h.bodies, h.want)
	var build samples
	probeFlatReplay(r, h.pool, nil, &build)
	r.set("spec.build_us", us(build.quantile(0.5)), build.count())
	return nil
}
