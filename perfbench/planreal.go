package main

import (
	"fmt"
	"time"

	"bisectlb"
	"bisectlb/internal/bisect"
	"bisectlb/internal/graph"
	"bisectlb/internal/spatial"
	"bisectlb/internal/verify"
)

// Plan-real: sequential bisectlb.Balance calls over a seed-generated
// roster of larger graphs and load matrices. No HTTP: the multilevel and
// cut-line bisectors dominate.

// newRosterProblem wraps a roster instance as a fresh root problem (the
// bisectors cache their split per problem value, so every plan starts
// from a new one). rec receives every performed bisection.
func newRosterProblem(e rosterEntry, rec *bisect.AlphaRecorder) (bisectlb.Problem, error) {
	if e.family == "graph" {
		return graph.New(e.h, graph.Config{Seed: e.seed, Recorder: rec})
	}
	return spatial.New(e.m, spatial.Config{Seed: e.seed, Recorder: rec})
}

// checkReal verifies one roster plan: parts ≤ N, weights summing to the
// instance total, the ratio within the measured-α̂ bound, and the same
// partition as the instance's first plan in this run.
func checkReal(e rosterEntry, res *bisectlb.Result, ahat float64, first map[string]string) error {
	if res == nil || len(res.Parts) == 0 || len(res.Parts) > e.n {
		return fmt.Errorf("%s: bad part count", e.name)
	}
	var sum, max float64
	var b []byte
	for _, pt := range res.Parts {
		w := pt.Problem.Weight()
		sum += w
		if w > max {
			max = w
		}
		b = fmt.Appendf(b, "%x:%g:%d,", pt.Problem.ID(), w, pt.Procs)
	}
	var total float64
	if e.h != nil {
		total = float64(e.h.TotalWeight())
	} else {
		total = float64(e.m.TotalLoad())
	}
	if sum != total || !near(res.Ratio, max/(total/float64(e.n))) {
		return fmt.Errorf("%s: part weights sum %v of total %v, ratio %v", e.name, sum, total, res.Ratio)
	}
	bound, err := verify.MeasuredGuaranteeBound(res.Algorithm, ahat, e.n)
	if err != nil {
		return fmt.Errorf("%s: measured bound: %w", e.name, err)
	}
	if res.Ratio > bound+1e-9 {
		return fmt.Errorf("%s: ratio %v exceeds measured-α̂ bound %v (α̂=%v)", e.name, res.Ratio, bound, ahat)
	}
	d := digestOf([][]byte{b})
	if prev, ok := first[e.name]; ok && prev != d {
		return fmt.Errorf("%s: partition differs from this run's first plan", e.name)
	}
	first[e.name] = d
	return nil
}

func runPlanReal(r *run) error {
	roster, err := repeatedSetup(r, 9, func() ([]rosterEntry, error) { return buildRoster(r.seed) }, func([]rosterEntry) {})
	if err != nil {
		return err
	}
	fmt.Fprintf(r.log, "inputs: plan-real roster of %d instances, digest %s\n", len(roster), inputDigest(r.workload, r.seed, roster))

	first := map[string]string{}
	perInst := map[string]*samples{}
	for _, e := range roster {
		perInst[e.name] = &samples{}
	}
	var all, build samples
	var ratios ratioSum
	// Per round: each family's wall time, the whole roster's, the
	// roster's plans per second and the process CPU time per plan.
	var graphWall, spatialWall, roundWall, roundRate, roundCPU []float64

	plans := 0
	p0 := readProc()
	start := time.Now()
	stop := start.Add(r.phase(r.pick(1, 0.5)))
	for round := 0; time.Now().Before(stop) || round == 0; round++ {
		var gw, sw time.Duration
		done := 0
		c0 := processCPUNs()
		for _, e := range roster {
			var rec bisect.AlphaRecorder
			t0 := time.Now()
			p, err := newRosterProblem(e, &rec)
			build.add(time.Since(t0))
			if err != nil {
				return err
			}
			if r.slow.on("bisector") {
				// Only under test: the bisector stretched in the least
				// wrapper that can time it.
				p = &timedProblem{p: p, t: &bisectTimer{slow: r.slow}}
			}
			r.attempted.Add(1)
			t0 = time.Now()
			res, err := bisectlb.Balance(p, e.n, bisectlb.Config{Algorithm: e.alg})
			d := time.Since(t0)
			plans++
			if err != nil {
				r.fail("%s: %v", e.name, err)
				continue
			}
			if err := checkReal(e, res, rec.Min(), first); err != nil {
				r.fail("%v", err)
				continue
			}
			done++
			all.add(d)
			perInst[e.name].add(d)
			ratios.add(res.Ratio)
			if e.family == "graph" {
				gw += d
			} else {
				sw += d
			}
		}
		graphWall = append(graphWall, gw.Seconds())
		spatialWall = append(spatialWall, sw.Seconds()*1e3)
		roundWall = append(roundWall, (gw + sw).Seconds())
		roundRate = append(roundRate, float64(done)/(gw+sw).Seconds())
		roundCPU = append(roundCPU, us(float64(processCPUNs()-c0)/float64(len(roster))))
	}
	p1 := readProc()
	r.set("throughput_rps", median(roundRate), plans)
	r.set("rtt_p50_us", median(roundWall)*1e6, len(roundWall))
	r.set("latency_p50_us", us(all.quantile(0.50)), all.count())
	r.set("latency_p99_us", us(all.quantile(0.99)), all.count())
	r.set("ratio_mean", ratios.mean(), ratios.n)
	r.set("cpu_us_per_op", median(roundCPU), len(roundCPU))
	r.set("alloc_bytes_per_op", float64(p1.allocBytes-p0.allocBytes)/float64(plans), plans)
	r.set("gc.cpu_share", p0.gcShare(p1), 1)
	r.set("plan_wall_s.graph", median(graphWall), len(graphWall))
	r.set("plan_wall_ms.spatial", median(spatialWall), len(spatialWall))
	for name, s := range perInst {
		r.set("plan_ms."+name, s.quantile(0.5)/1e6, s.count())
	}
	r.set("core.plan_us.interface", us(all.quantile(0.5)), all.count())
	r.set("spec.build_us", us(build.quantile(0.5)), build.count())
	if !r.trace {
		return nil
	}

	// Traced rounds: every problem decorated with bisector spans. Their
	// wall time against the untraced rounds above is the tracing overhead.
	var agg layerAgg
	var traced []float64
	stop = time.Now().Add(r.phase(0.5))
	for round := 0; time.Now().Before(stop) || round == 0; round++ {
		t0 := time.Now()
		for _, e := range roster {
			p, err := newRosterProblem(e, nil)
			if err != nil {
				return err
			}
			cfg := bisectlb.Config{Algorithm: e.alg}
			r.attempted.Add(1)
			if _, err := agg.plan(p, e.family, e.n, cfg, r.slow); err != nil {
				r.fail("traced %s: %v", e.name, err)
			}
		}
		traced = append(traced, time.Since(t0).Seconds())
	}
	r.set("trace.overhead_pct", 100*(median(traced)/median(roundWall)-1), len(traced))
	agg.report(r)
	return nil
}
