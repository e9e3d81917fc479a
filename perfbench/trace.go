package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"bisectlb"
	"bisectlb/internal/bisect"
	"bisectlb/internal/service"
)

// Per-layer probes. Each times calls into one layer's public functions
// from this file — ServeHTTP with no network, encoding/json on the
// service's wire types, the planning facade, and a timing decorator
// around bisect.Problem — on the workload's own inputs.

func decodeJSON(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("decode response %.120q: %w", b, err)
	}
	return nil
}

// probeHandler calls ServeHTTP directly for d, cycling through bodies,
// and records handler time and allocations per request. The allocations
// of building each request and recorder are measured apart and taken
// out.
func probeHandler(r *run, h http.Handler, bodies [][]byte, d time.Duration) {
	newCall := func(body []byte) (*http.Request, *httptest.ResponseRecorder) {
		req := httptest.NewRequest(http.MethodPost, "/v1/balance", bytes.NewReader(body))
		return req, httptest.NewRecorder()
	}
	const rounds = 256
	p0 := readProc()
	for i := 0; i < rounds; i++ {
		newCall(bodies[i%len(bodies)])
	}
	scaffold := float64(readProc().mallocs-p0.mallocs) / rounds

	var lat samples
	calls := 0
	p1 := readProc()
	for stop := time.Now().Add(d); time.Now().Before(stop); calls++ {
		req, rec := newCall(bodies[calls%len(bodies)])
		start := time.Now()
		h.ServeHTTP(rec, req)
		lat.add(time.Since(start))
		r.attempted.Add(1)
		if rec.Code != http.StatusOK {
			r.fail("direct ServeHTTP: status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	p2 := readProc()
	r.set("service.handler_us", us(lat.quantile(0.5)), lat.count())
	if calls > 0 {
		allocs := float64(p2.mallocs-p1.mallocs)/float64(calls) - scaffold
		r.set("service.allocs_per_req", allocs, calls)
	}
}

// probeCodec times encoding/json on the service's request and response
// types over the workload's bodies and served responses.
func probeCodec(r *run, bodies, responses [][]byte) {
	var dec, enc samples
	for rep := 0; rep < 8; rep++ {
		for _, b := range bodies {
			var req service.BalanceRequest
			start := time.Now()
			err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
			dec.add(time.Since(start))
			if err != nil {
				r.fail("codec decode: %v", err)
			}
		}
		for _, b := range responses {
			var resp service.BalanceResponse
			if err := decodeJSON(b, &resp); err != nil {
				r.fail("codec: %v", err)
				continue
			}
			var out bytes.Buffer
			start := time.Now()
			err := json.NewEncoder(&out).Encode(resp)
			enc.add(time.Since(start))
			if err != nil {
				r.fail("codec encode: %v", err)
			}
		}
	}
	r.set("codec.decode_us", us(dec.quantile(0.5)), dec.count())
	r.set("codec.encode_us", us(enc.quantile(0.5)), enc.count())
}

// flatInputs maps a flat-family request onto the allocation-free facade.
func flatInputs(req service.BalanceRequest) (bisectlb.FlatNode, bisectlb.Kernel, error) {
	switch req.Spec.Family {
	case "uniform":
		return bisectlb.NewSyntheticFlat(req.Spec.Weight, req.Spec.Lo, req.Spec.Hi, req.Spec.Seed)
	case "list":
		return bisectlb.NewListFlat(req.Spec.Elems, req.Spec.SplitAlpha, req.Spec.Seed)
	}
	return bisectlb.FlatNode{}, nil, fmt.Errorf("family %q has no flat form", req.Spec.Family)
}

// probeFlatReplay replays flat specs through BalanceInto, and, where a
// drift is given, patches the plan with DeltaPlanner.PatchInto exactly
// as the served rebalance would.
func probeFlatReplay(r *run, reqs []service.BalanceRequest, drifts [][]driftPick, build *samples) {
	var plan, patch samples
	pl := bisectlb.NewPlanner(0)
	dp := bisectlb.NewDeltaPlanner(0)
	var fp bisectlb.Plan
	var pp bisectlb.PatchedPlan
	for i, req := range reqs {
		start := time.Now()
		root, k, err := flatInputs(req)
		build.add(time.Since(start))
		alg, aerr := bisectlb.ParseAlgorithm(req.Algorithm)
		r.attempted.Add(1)
		if err != nil || aerr != nil {
			r.fail("flat replay inputs: %v %v", err, aerr)
			continue
		}
		pl.SetBucketQueue(req.N >= 1<<12) // the service's routing rule
		start = time.Now()
		err = bisectlb.BalanceInto(&fp, pl, k, root, req.N, bisectlb.Config{Algorithm: alg, Alpha: req.Alpha, Kappa: req.Kappa})
		plan.add(time.Since(start))
		if err != nil || len(fp.Parts) == 0 || len(fp.Parts) > req.N {
			r.fail("flat replay %s n=%d: %v", req.Algorithm, req.N, err)
			continue
		}
		if drifts == nil || len(drifts[i]) == 0 {
			continue
		}
		var deltas []bisectlb.WeightDelta
		for _, d := range drifts[i] {
			deltas = append(deltas, bisectlb.WeightDelta{ID: fp.Parts[d.index%len(fp.Parts)].Node.ID, Factor: d.factor})
		}
		dp.SetBucketQueue(req.N >= 1<<12)
		r.attempted.Add(1)
		start = time.Now()
		_, _, err = dp.PatchInto(&pp, k, root, &fp, deltas, bisectlb.PatchOptions{Alpha: req.Alpha, Kappa: 1})
		patch.add(time.Since(start))
		if err != nil {
			r.fail("patch replay: %v", err)
		}
	}
	r.set("core.plan_us.flat", us(plan.quantile(0.5)), plan.count())
	if patch.count() > 0 {
		r.set("core.patch_us", us(patch.quantile(0.5)), patch.count())
	}
}

// buildInterface builds a served interface-family spec through the
// same facade constructors the service uses.
func buildInterface(spec service.ProblemSpec) (bisectlb.Problem, error) {
	switch spec.Family {
	case "graph":
		return bisectlb.NewGraphProblem(spec.Seed)
	case "spatial":
		return bisectlb.NewSpatialProblem(spec.Seed)
	case "fem":
		return bisectlb.DefaultFEMTreeProblem(spec.Seed), nil
	case "quadrature":
		return bisectlb.NewQuadratureProblem(bisectlb.QuadratureMedianSplit, spec.Seed)
	case "searchtree":
		return bisectlb.DefaultSearchTreeProblem(spec.Seed), nil
	}
	return nil, fmt.Errorf("family %q is not an interface family", spec.Family)
}

// bisectTimer accumulates the bisector spans of one plan: the time spent
// inside CanBisect/Bisect of every problem in the tree, the bisection
// count, and α̂ of each performed bisection. Planning is sequential, so
// the spans nest inside the plan span without overlapping.
type bisectTimer struct {
	ns    int64
	calls int
	rec   *bisect.AlphaRecorder
	slow  slowdown
}

func (t *bisectTimer) span(start time.Time) {
	if t.slow.on("bisector") {
		t.slow.stretch(start)
	}
	t.ns += int64(time.Since(start))
}

// timedProblem decorates a bisect.Problem with bisectTimer spans; its
// children are decorated too, so the whole bisection tree is timed.
type timedProblem struct {
	p     bisect.Problem
	t     *bisectTimer
	level int
}

func (q *timedProblem) Weight() float64 { return q.p.Weight() }
func (q *timedProblem) ID() uint64      { return q.p.ID() }

func (q *timedProblem) CanBisect() bool {
	start := time.Now()
	ok := q.p.CanBisect()
	q.t.span(start)
	return ok
}

func (q *timedProblem) Bisect() (bisect.Problem, bisect.Problem) {
	start := time.Now()
	a, b := q.p.Bisect()
	q.t.span(start)
	q.t.calls++
	q.t.rec.Record(q.level, q.p.Weight(), a.Weight(), b.Weight())
	return &timedProblem{a, q.t, q.level + 1}, &timedProblem{b, q.t, q.level + 1}
}

// layerAgg collects the decorated plans of one phase per family.
type layerAgg struct {
	graphPlans, spatialPlans int
	graphBisectNs, spatialNs int64
	graphBisections          int
	graphAllocBytes          uint64
	graphSelfNs              int64
	graphAlpha, spatialAlpha bisect.AlphaRecorder
	interfacePlan            samples
}

// plan runs one decorated Balance call and books its spans by family.
func (a *layerAgg) plan(p bisectlb.Problem, family string, n int, cfg bisectlb.Config, slow slowdown) (*bisectlb.Result, error) {
	t := &bisectTimer{slow: slow} // a nil recorder records nothing
	switch family {
	case "graph":
		t.rec = &a.graphAlpha
	case "spatial":
		t.rec = &a.spatialAlpha
	}
	var m0 runtime.MemStats
	if family == "graph" {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	res, err := bisectlb.Balance(&timedProblem{p: p, t: t}, n, cfg)
	span := time.Since(start)
	a.interfacePlan.add(span)
	switch family {
	case "graph":
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		a.graphPlans++
		a.graphBisectNs += t.ns
		a.graphBisections += t.calls
		a.graphSelfNs += int64(span) - t.ns
		a.graphAllocBytes += m1.TotalAlloc - m0.TotalAlloc
	case "spatial":
		a.spatialPlans++
		a.spatialNs += t.ns
	}
	return res, err
}

// report sets the bisector-layer metrics from the collected spans.
func (a *layerAgg) report(r *run) {
	if a.graphPlans > 0 {
		g := float64(a.graphPlans)
		r.set("graph.bisect_s", float64(a.graphBisectNs)/g/1e9, a.graphPlans)
		r.set("graph.bisections", float64(a.graphBisections)/g, a.graphPlans)
		r.set("graph.alloc_mb_per_plan", float64(a.graphAllocBytes)/g/(1<<20), a.graphPlans)
		r.set("core.planner_self_ms", float64(a.graphSelfNs)/g/1e6, a.graphPlans)
		r.set("bisect.alpha_min.graph", a.graphAlpha.Min(), a.graphAlpha.Count())
	}
	if a.spatialPlans > 0 {
		r.set("spatial.bisect_ms", float64(a.spatialNs)/float64(a.spatialPlans)/1e6, a.spatialPlans)
		r.set("bisect.alpha_min.spatial", a.spatialAlpha.Min(), a.spatialAlpha.Count())
	}
}
