package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"bisectlb"
	"bisectlb/internal/graph"
	"bisectlb/internal/service"
	"bisectlb/internal/spatial"
	"bisectlb/internal/xrand"
)

// Workload inputs are pure functions of the seed: the same seed gives
// byte-identical request bodies and roster instances, and each sequence
// is printed as a digest so two builds can be shown to see the same
// inputs.

var (
	flatAlgs  = []string{"HF", "BA", "PHF", "BA-HF"}
	ifaceAlgs = []string{"HF", "BA"}
)

// flatRequest builds a uniform or list /v1/balance body with a declared
// α, so the response's guarantee certificate applies. List element
// counts stay ≥ 256·n so indivisible single elements never decide the
// ratio.
func flatRequest(rng *xrand.Source, family, alg string, n int) service.BalanceRequest {
	req := service.BalanceRequest{N: n, Algorithm: alg}
	switch family {
	case "uniform":
		req.Spec = service.ProblemSpec{Family: "uniform", Weight: 1, Lo: 0.1, Hi: 0.5, Seed: rng.Uint64() >> 11}
		req.Alpha = 0.1
	case "list":
		req.Spec = service.ProblemSpec{Family: "list", Elems: 256*n + rng.Intn(256*n), SplitAlpha: 0.2, Seed: rng.Uint64() >> 11}
		req.Alpha = 0.2
	}
	return req
}

// hitPool is the serve-hit body pool: uniform/list × four algorithms ×
// N ∈ {16, 64, 256, 1024}, two seeds each — 64 bodies, all warmed.
func hitPool(seed uint64) []service.BalanceRequest {
	rng := xrand.New(xrand.Mix(seed, 0x417))
	var pool []service.BalanceRequest
	for _, fam := range []string{"uniform", "list"} {
		for _, alg := range flatAlgs {
			for _, n := range []int{16, 64, 256, 1024} {
				for rep := 0; rep < 2; rep++ {
					pool = append(pool, flatRequest(rng, fam, alg, n))
				}
			}
		}
	}
	return pool
}

// missOp is one serve-miss operation: a /v1/balance request with a key
// no earlier operation used, and for flat families the drift its
// follow-up /v1/rebalance applies to the served plan.
type missOp struct {
	req service.BalanceRequest
	// drift is empty for the interface families (no rebalance follows).
	drift []driftPick
}

// driftPick names a part by its index in the served plan (parts come in
// ascending ID order) and the factor its load drifts by.
type driftPick struct {
	index  int
	factor float64
}

var interfaceFamilies = []string{"graph", "spatial", "fem", "quadrature", "searchtree"}

// missOpAt returns operation i of the serve-miss sequence. Even indices
// are flat (uniform/list × four algorithms × N ∈ {64..4096}, α
// declared), odd ones interface families × {HF, BA} × N ∈ {16, 64, 256}.
// Each half cycles through its combinations in a fixed order, so every
// seed runs the same mix and only instances and drifts vary. Seeds embed
// i, so every key is unique within a run.
func missOpAt(seed uint64, i int) missOp {
	rng := xrand.New(xrand.Mix(seed, uint64(i)+0x5eed))
	unique := uint64(i)<<20 | rng.Uint64()&(1<<20-1)
	c := i / 2
	if i%2 == 0 {
		fam := []string{"uniform", "list"}[c%2]
		alg := flatAlgs[c/2%len(flatAlgs)]
		n := []int{64, 256, 1024, 4096}[c/8%4]
		op := missOp{req: flatRequest(rng, fam, alg, n)}
		op.req.Spec.Seed = unique
		k := 1 + rng.Intn(8)
		for j := 0; j < k; j++ {
			// The fractional tail makes each drift vector, and so each
			// rebalance key, unique to this operation.
			f := 2 + 2*rng.Float64() + float64(i%1000003)*1e-12
			op.drift = append(op.drift, driftPick{index: rng.Intn(1 << 30), factor: f})
		}
		return op
	}
	req := service.BalanceRequest{
		Spec:      service.ProblemSpec{Family: interfaceFamilies[c%len(interfaceFamilies)], Seed: unique},
		Algorithm: ifaceAlgs[c/len(interfaceFamilies)%2],
		N:         []int{16, 64, 256}[c/(2*len(interfaceFamilies))%3],
	}
	if req.Spec.Family == "quadrature" {
		req.Spec.Split = "median"
	}
	return missOp{req: req}
}

// rebalanceFor builds the follow-up /v1/rebalance body for a served
// flat plan.
func rebalanceFor(op missOp, plan *service.Plan) service.RebalanceRequest {
	rr := service.RebalanceRequest{
		Spec: op.req.Spec, N: op.req.N, Algorithm: op.req.Algorithm,
		Alpha: op.req.Alpha, Kappa: op.req.Kappa, PriorSignature: plan.Signature,
	}
	for _, d := range op.drift {
		rr.Deltas = append(rr.Deltas, service.DriftDelta{ID: plan.Parts[d.index%len(plan.Parts)].ID, Factor: d.factor})
	}
	return rr
}

// rosterEntry is one plan-real instance: a generated graph or load
// matrix, the algorithm and processor count it is planned with.
type rosterEntry struct {
	name   string
	family string // "graph" or "spatial"
	alg    bisectlb.Algorithm
	n      int
	h      *graph.Hypergraph
	m      *spatial.Matrix
	seed   uint64
}

// buildRoster generates the plan-real instances from the seed.
func buildRoster(seed uint64) ([]rosterEntry, error) {
	rng := xrand.New(xrand.Mix(seed, 0x7ea1))
	s := func() uint64 { return rng.Uint64()>>11 | 1 }
	var out []rosterEntry
	add := func(name, fam string, alg bisectlb.Algorithm, n int, h *graph.Hypergraph, m *spatial.Matrix, seed uint64, err error) error {
		if err != nil {
			return fmt.Errorf("roster %s: %w", name, err)
		}
		out = append(out, rosterEntry{name: name, family: fam, alg: alg, n: n, h: h, m: m, seed: seed})
		return nil
	}
	g1, g2, g3, m1, m2 := s(), s(), s(), s(), s()
	h, err := graph.GridGraph(128, 128, 4, g1)
	if err := add("grid128", "graph", bisectlb.BAAlgorithm, 256, h, nil, g1, err); err != nil {
		return nil, err
	}
	h, err = graph.RingGraph(4096, 512, 4, g2)
	if err := add("ring4096", "graph", bisectlb.HFAlgorithm, 256, h, nil, g2, err); err != nil {
		return nil, err
	}
	h, err = graph.RandomHypergraph(5000, 3750, 6, 4, g3)
	if err := add("hgr5000", "graph", bisectlb.HFAlgorithm, 64, h, nil, g3, err); err != nil {
		return nil, err
	}
	m, err := spatial.BlobMatrix(2048, 2048, 8, 1000, m1)
	if err := add("blob2048", "spatial", bisectlb.HFAlgorithm, 1024, nil, m, m1, err); err != nil {
		return nil, err
	}
	m, err = spatial.RidgeMatrix(1024, 1024, 1000, m2)
	if err := add("ridge1024", "spatial", bisectlb.BAAlgorithm, 256, nil, m, m2, err); err != nil {
		return nil, err
	}
	return out, nil
}

// digestOf is a short SHA-256 over a sequence of byte strings.
func digestOf(parts [][]byte) string {
	sum := sha256.New()
	for _, p := range parts {
		sum.Write([]byte(strconv.Itoa(len(p))))
		sum.Write(p)
	}
	return hex.EncodeToString(sum.Sum(nil))[:16]
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain request structs are marshalled
	}
	return b
}

// inputDigest prints the identity of a workload's inputs: the full
// serve-hit pool, the first 4096 serve-miss operations, or the roster's
// instance parameters and weights.
func inputDigest(workload string, seed uint64, roster []rosterEntry) string {
	var parts [][]byte
	switch workload {
	case "serve-hit":
		for _, r := range hitPool(seed) {
			parts = append(parts, mustJSON(r))
		}
	case "serve-miss":
		for i := 0; i < 4096; i++ {
			op := missOpAt(seed, i)
			parts = append(parts, mustJSON(op.req), []byte(fmt.Sprint(op.drift)))
		}
	case "plan-real":
		for _, e := range roster {
			var w float64
			if e.h != nil {
				w = float64(e.h.TotalWeight())
			} else {
				w = float64(e.m.TotalLoad())
			}
			parts = append(parts, []byte(fmt.Sprintf("%s/%v/%d/%d/%g", e.name, e.alg, e.n, e.seed, w)))
		}
	}
	return digestOf(parts)
}
