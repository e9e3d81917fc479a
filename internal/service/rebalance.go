package service

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"bisectlb"
	"bisectlb/internal/obs"
)

// This file serves POST /v1/rebalance: incremental replanning over a
// previously served plan (DESIGN.md §15). The request names the same
// spec/n/algorithm identity as /v1/balance plus a drift vector of
// per-part weight factors; the server patches the prior plan instead of
// replanning from scratch, falling back to a bit-identical fresh plan
// when the drift is too large for a patch to pay off.

// DriftDelta is one entry of a rebalance drift vector: the part's
// observed load is Factor times its planned weight.
type DriftDelta struct {
	ID     uint64  `json:"id"`
	Factor float64 `json:"factor"`
}

// RebalanceRequest is the body of POST /v1/rebalance. The spec fields
// identify the prior plan exactly as a /v1/balance request would; Deltas
// carries the observed drift. PriorSignature, when set, must match the
// signature /v1/balance reported for the prior plan — a cheap guard
// against patching a different plan than the client measured.
type RebalanceRequest struct {
	Spec       ProblemSpec `json:"spec"`
	N          int         `json:"n"`
	Algorithm  string      `json:"algorithm,omitempty"`
	Alpha      float64     `json:"alpha"`
	Kappa      float64     `json:"kappa,omitempty"`
	DeadlineMS int64       `json:"deadline_ms,omitempty"`
	Tenant     string      `json:"tenant,omitempty"`

	PriorSignature string       `json:"prior_signature,omitempty"`
	Deltas         []DriftDelta `json:"deltas,omitempty"`
}

// base maps the identity fields onto a BalanceRequest, the canonical
// form spec.go knows how to key and plan.go knows how to compute.
func (r *RebalanceRequest) base() BalanceRequest {
	return BalanceRequest{
		Spec:      r.Spec,
		N:         r.N,
		Algorithm: r.Algorithm,
		Alpha:     r.Alpha,
		Kappa:     r.Kappa,
		Tenant:    r.Tenant,
	}
}

// validate holds the patch path's own rules, which the check stage runs
// after the identity fields pass as a balance request's. Rebalancing
// requires the flat planning substrate (the patch re-bisects subtrees
// through the kernel), so only the flat families qualify, and the
// α-band drift rule needs a declared α even for the α-oblivious
// algorithms.
func (r *RebalanceRequest) validate() error {
	switch r.Spec.Family {
	case "uniform", "fixed", "list":
	default:
		return fmt.Errorf("family %q has no flat kernel; /v1/rebalance supports uniform, fixed and list", r.Spec.Family)
	}
	if !(r.Alpha > 0 && r.Alpha <= 0.5) {
		return fmt.Errorf("rebalance needs a declared α in (0, 1/2] for the drift band, got %g", r.Alpha)
	}
	for i, d := range r.Deltas {
		if !(d.Factor > 0) || d.Factor > 1e12 {
			return fmt.Errorf("deltas[%d]: factor must be in (0, 1e12], got %g", i, d.Factor)
		}
	}
	return nil
}

// driftKeySuffix appends the canonical drift identity to a base cache
// key: "|drift=" plus a short digest of the sorted, last-wins-deduped
// delta vector. Two requests whose drifts differ only in delta order or
// superseded duplicates share one cache entry.
func driftKeySuffix(b []byte, deltas []DriftDelta) []byte {
	dedup := make([]DriftDelta, 0, len(deltas))
	for _, d := range deltas { // last wins, matching PatchInto
		found := false
		for j := range dedup {
			if dedup[j].ID == d.ID {
				dedup[j].Factor = d.Factor
				found = true
				break
			}
		}
		if !found {
			dedup = append(dedup, d)
		}
	}
	sort.Slice(dedup, func(i, j int) bool { return dedup[i].ID < dedup[j].ID })
	var enc []byte
	for _, d := range dedup {
		enc = strconv.AppendUint(enc, d.ID, 16)
		enc = append(enc, ':')
		enc = strconv.AppendFloat(enc, d.Factor, 'g', -1, 64)
		enc = append(enc, ';')
	}
	b = append(b, "|drift="...)
	return strconv.AppendUint(b, fnv64a(enc), 16)
}

// isDriftKey reports whether a cache key names a rebalance result: the
// drift digest follows the balance identity, and the marker never occurs
// in a balance key.
func isDriftKey(key string) bool { return strings.Contains(key, "|drift=") }

// deltaScratch pools a DeltaPlanner with its PatchedPlan buffer, the
// rebalance analogue of plannerScratch.
type deltaScratch struct {
	dp *bisectlb.DeltaPlanner
	pp bisectlb.PatchedPlan
}

var deltaPool = sync.Pool{New: func() any { return &deltaScratch{dp: bisectlb.NewDeltaPlanner(0)} }}

// maxPooledDeltaFootprint bounds a pooled delta scratch's retained
// buffers, mirroring maxPooledFootprint for the planner pool.
const maxPooledDeltaFootprint = 16 << 20

func putDeltaScratch(reg *obs.Registry, sc *deltaScratch) {
	sc.dp.SetParallel(nil) // never retain a borrowed parallel planner
	recycle(reg, &deltaPool, sc, cap(sc.pp.Plan.Parts) > maxPooledPartsCap || sc.dp.Footprint() > maxPooledDeltaFootprint)
}

// RebalanceInfo is the patch certificate attached to a rebalanced plan:
// what the patch did and the bound its ratio is checked against.
type RebalanceInfo struct {
	// Outcome is "noop", "patched" or "full_replan".
	Outcome string `json:"outcome"`
	// Band is the drift band B = max(guarantee bound, 2): a part is dirty
	// when its drifted per-processor load exceeds B × the drifted mean,
	// and a patched plan's ratio is bounded by B whenever no oversize
	// part survives (DESIGN.md §15).
	Band float64 `json:"band"`
	// Dirty counts parts outside the band; DirtyWeightFrac is their share
	// of the drifted total weight (≥ the full-replan threshold forces a
	// fresh plan).
	Dirty           int     `json:"dirty"`
	DirtyWeightFrac float64 `json:"dirty_weight_frac"`
	// Splits counts the bisections the patch performed — the work a fresh
	// plan would have multiplied.
	Splits int `json:"splits"`
	// Oversize counts repair fragments and indivisible leaves still above
	// the band; when zero, ratio ≤ Band holds.
	Oversize int `json:"oversize"`
	// GroupProcs, for patched outcomes, gives each group's processor
	// count; parts carry their group index. Absent for noop and
	// full_replan outcomes (every part is its own group there).
	GroupProcs []int `json:"group_procs,omitempty"`
	// PriorComputed is true when the prior plan was not in the cache and
	// had to be recomputed before patching.
	PriorComputed bool `json:"prior_computed"`
}

// RebalanceResponse is the body of a 200 rebalance response: the
// rebalanced plan, certificate attached, with the same serving metadata
// as a balance response.
type RebalanceResponse = BalanceResponse

func (s *Server) handleRebalance(w http.ResponseWriter, r *http.Request) {
	s.reg.Counter(mRebalanceRequests).Inc()
	start := time.Now()
	var req RebalanceRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	base, alg, err := s.checkRebalance(&req)
	if err != nil {
		s.fail(w, err)
		return
	}
	// Canonical identities: the prior plan's key (what /v1/balance would
	// cache) and the drift key extending it with the delta digest.
	baseKey := base.cacheKey()
	if sig := signature(baseKey); req.PriorSignature != "" && req.PriorSignature != sig {
		s.fail(w, badRequest("prior_mismatch", fmt.Sprintf(
			"prior_signature %q does not match this spec's plan signature %q", req.PriorSignature, sig)))
		return
	}
	driftKey := func(b []byte) []byte { return driftKeySuffix(append(b, baseKey...), req.Deltas) }
	s.serveOne(w, r, start, req.Tenant, req.DeadlineMS, driftKey, func(key string) *fill {
		return s.rebalanceFill(&req, &base, alg, baseKey, key)
	})
}

// checkRebalance is the check stage for a rebalance body, on the HTTP
// path and the peer fill alike: the identity fields are checked as a
// balance request's plus the patch path's own rules, and the family and
// algorithm must have a flat form to patch. It returns the normalized
// identity as a balance request.
func (s *Server) checkRebalance(req *RebalanceRequest) (BalanceRequest, bisectlb.Algorithm, error) {
	base := req.base()
	alg, err := s.check(&base, req.validate)
	if err != nil {
		return base, alg, err
	}
	req.Spec, req.Algorithm = base.Spec, base.Algorithm
	if _, _, ok := flatInputs(&base, alg); !ok {
		return base, alg, badRequest("rebalance_unsupported",
			fmt.Sprintf("algorithm %q has no flat patch path", req.Algorithm))
	}
	return base, alg, nil
}

// rebalanceFill fills a drift key with the patch. A drift key hashes to
// its own ring owner, so a routed miss ships the whole rebalance request
// there (ClusterFill routes drift keys back to this fill). The prior is
// resolved in the prepare step, before the patch takes a worker.
func (s *Server) rebalanceFill(req *RebalanceRequest, base *BalanceRequest, alg bisectlb.Algorithm, baseKey, key string) *fill {
	var (
		prior         *Plan
		priorComputed bool
	)
	return &fill{
		key:  key,
		body: req,
		prepare: func(ctx context.Context, tn *tenantState) (err error) {
			prior, priorComputed, err = s.resolvePrior(ctx, tn, base, alg, baseKey)
			return err
		},
		compute: func() (*Plan, error) {
			return s.patch(req, base, alg, prior, priorComputed, signature(key))
		},
	}
}

// resolvePrior returns the prior plan a rebalance patches, in its flat
// form, and whether it had to be filled rather than read from the cache.
// It goes through the same get-or-fill as /v1/balance on the base key,
// so a rebalance and a balance racing on a cold prior plan it once. The
// fill never routes: a plan fetched from a peer has no flat form (the
// attachment does not survive JSON), so a prior whose base key another
// node owns is recomputed here — counted, because it erases the patch's
// latency advantage. It runs before the patch takes a worker, so a
// rebalance never holds a worker while it waits on a flight of its prior
// that is still queued behind it.
func (s *Server) resolvePrior(ctx context.Context, tn *tenantState, base *BalanceRequest, alg bisectlb.Algorithm, baseKey string) (*Plan, bool, error) {
	if p, ok := s.cache.Get(baseKey); ok && p.flat != nil {
		return p, false, nil
	}
	s.reg.Counter(mRebalancePriorComputed).Inc()
	f := s.planFill(base, alg, baseKey)
	f.flat = true
	for {
		p, _, shared, err := s.getOrFill(ctx, tn, f)
		if err != nil {
			return nil, true, err
		}
		if p.flat != nil {
			return p, true, nil
		}
		if !shared {
			return nil, true, fmt.Errorf("service: family %q produced no flat plan to patch", base.Spec.Family)
		}
		// Coalesced onto a peer fetch of the same key, whose plan has no
		// flat form: fill again.
	}
}

// patch patches the flat prior plan against the drift vector. Runs on a
// worker; get-or-fill caches the result under the drift key.
func (s *Server) patch(req *RebalanceRequest, base *BalanceRequest, alg bisectlb.Algorithm, prior *Plan, priorComputed bool, sig string) (*Plan, error) {
	root, k, _ := flatInputs(base, alg) // checkRebalance admits only requests that have them

	deltas := make([]bisectlb.WeightDelta, len(req.Deltas))
	for i, d := range req.Deltas {
		deltas[i] = bisectlb.WeightDelta{ID: d.ID, Factor: d.Factor}
	}
	opt := bisectlb.PatchOptions{Alpha: base.Alpha, Kappa: base.Kappa}

	useBucket := req.N >= bucketQueueNCutoff
	sc := deltaPool.Get().(*deltaScratch)
	defer putDeltaScratch(s.reg, sc)
	sc.dp.SetBucketQueue(useBucket)
	if req.N >= parallelNCutoff {
		psc := newParallelScratch(s.reg, useBucket)
		defer putParallelScratch(s.reg, psc)
		sc.dp.SetParallel(psc.pp)
	}

	start := time.Now()
	_, stats, err := sc.dp.PatchInto(&sc.pp, k, root, prior.flat, deltas, opt)
	if err != nil {
		return nil, err
	}
	s.reg.Histogram(mRebalancePatchNs).ObserveSince(start)

	info := &RebalanceInfo{
		Outcome:       stats.Outcome.String(),
		Band:          stats.Band,
		Dirty:         stats.Dirty,
		Splits:        stats.Splits,
		Oversize:      stats.Oversize + stats.OversizeLeaves,
		PriorComputed: priorComputed,
	}
	if stats.DriftedTotal > 0 {
		info.DirtyWeightFrac = stats.DirtyWeight / stats.DriftedTotal
	}

	var out *Plan
	switch stats.Outcome {
	case bisectlb.PatchNoop:
		s.reg.Counter(mRebalanceNoop).Inc()
		// The prior plan is still within the band: serve it unchanged
		// (parts shared by reference — served plans are immutable) under
		// the drift signature.
		noop := *prior
		noop.flat = nil
		noop.Signature = sig
		out = &noop
	case bisectlb.PatchFullReplan:
		s.reg.Counter(mRebalanceFullReplans).Inc()
		out = servePlan(&sc.pp.Plan, base, alg, sig)
	default:
		s.reg.Counter(mRebalancePatched).Inc()
		out = servePlan(&sc.pp.Plan, base, alg, sig)
		out.Algorithm = sc.pp.Plan.Algorithm // keep the "+patch" display name
		info.GroupProcs = make([]int, len(sc.pp.GroupProcs))
		for i, p := range sc.pp.GroupProcs {
			info.GroupProcs[i] = int(p)
		}
		for i := range out.Parts {
			out.Parts[i].Group = int(sc.pp.Group[i])
		}
	}
	out.Rebalance = info
	return out, nil
}
