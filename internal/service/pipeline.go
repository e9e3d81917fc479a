package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"bisectlb"
)

// This file is the one request pipeline every plan request runs
// through (DESIGN.md §9). Its stages, in order:
//
//	decode       method and drain checks, then a capped strict JSON decode
//	check        normalize, validate, the MaxN bound, the algorithm parse
//	key          canonical key and cache lookup
//	admit        tenant token, then the SLO draw — misses only
//	get-or-fill  singleflight, then owner routing or one local pool turn
//	encode       the JSON response
//
// The entry points are thin adapters over these stages. /v1/balance is
// the pipeline with computePlan; /v1/rebalance keys on the drift key and
// fills with the patch (rebalance.go); /v1/balance:batch checks and keys
// each item, admits once, then sends its distinct misses through
// get-or-fill one at a time (batch.go); ClusterFill, the owner side of a
// proxied miss, is decode, check and the fill without routing
// (cluster.go).

// requestError is a typed rejection raised by a pipeline stage: the HTTP
// status, the error code, the counter it charges (none when empty) and
// the client message.
type requestError struct {
	status       int
	code, metric string
	msg          string
}

func (e *requestError) Error() string { return e.msg }

func badRequest(code, msg string) *requestError {
	return &requestError{http.StatusBadRequest, code, mBadRequest, msg}
}

// track wraps a plan endpoint with the bookkeeping every request
// shares: the request counter, the inflight gauge and the latency
// histogram.
func (s *Server) track(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.reg.Counter(mRequests).Inc()
		s.reg.Gauge(mInflight).Add(1)
		defer s.reg.Gauge(mInflight).Add(-1)
		defer s.reg.Histogram(mLatencyNs).ObserveSince(time.Now())
		h(w, r)
	}
}

// decode is the decode stage: POST only, refuse new work while draining,
// then decode the body into v under the MaxBodyBytes cap, rejecting
// unknown fields.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	if r.Method != http.MethodPost {
		return &requestError{http.StatusMethodNotAllowed, "method_not_allowed", "", "POST only"}
	}
	if s.draining.Load() {
		return &requestError{http.StatusServiceUnavailable, "draining", mRejectedDraining, "server is draining"}
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("bad_request", "invalid JSON: "+err.Error())
	}
	return nil
}

// check is the check stage, shared by every entry point and both peer
// fills: normalize the request, validate it (plus the endpoint's own
// rules in extra, when set), bound n by MaxN and parse the algorithm.
func (s *Server) check(req *BalanceRequest, extra func() error) (bisectlb.Algorithm, error) {
	req.normalize()
	err := req.validate()
	if err == nil && extra != nil {
		err = extra()
	}
	if err != nil {
		return 0, badRequest("bad_spec", err.Error())
	}
	if req.N > s.cfg.MaxN {
		return 0, badRequest("n_too_large",
			fmt.Sprintf("n=%d exceeds the server's max_n limit %d", req.N, s.cfg.MaxN))
	}
	alg, err := bisectlb.ParseAlgorithm(req.Algorithm)
	if err != nil {
		return 0, badRequest("unknown_algorithm", err.Error())
	}
	return alg, nil
}

// tenant resolves the request's tenant and counts the request against
// it.
func (s *Server) tenant(r *http.Request, bodyTenant string) *tenantState {
	tn := s.tenants.state(tenantID(r, s.cfg.TenantHeader, bodyTenant))
	tn.requests.Inc()
	return tn
}

// admit is the admit stage. Only the compute path is subject to
// overload protection: a cache hit costs no worker, so shedding it would
// only burn goodput.
func (s *Server) admit(tn *tenantState, start time.Time) error {
	if !s.tenants.allowToken(tn, start) {
		tn.shed.Inc()
		return &requestError{http.StatusTooManyRequests, "tenant_rate_limited", mRejectedTenant,
			fmt.Sprintf("tenant %q exceeded its compute rate", tn.id)}
	}
	if !s.adm.allow(start) {
		tn.shed.Inc()
		return &requestError{http.StatusTooManyRequests, "slo_shed", mRejectedShed,
			"service is over its latency SLO; load is being shed"}
	}
	return nil
}

// withDeadline bounds queue and compute time by the request's
// deadline_ms, or by the server default when it is 0.
func (s *Server) withDeadline(ctx context.Context, ms int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	return context.WithTimeout(ctx, d)
}

// fill is one get-or-fill: the key to fill and how to produce its plan.
type fill struct {
	key string
	// route sends a miss on a remotely-owned key to its ring owner,
	// shipping body. Peer fills and the rebalance prior never route.
	route bool
	body  any
	// flat accepts only a plan that carries its flat form: the
	// rebalance prior, which the patch needs.
	flat bool
	// prepare, when set, runs before the pool turn of a local fill.
	prepare func(ctx context.Context, tn *tenantState) error
	// compute produces the plan on a worker.
	compute func() (*Plan, error)
}

// planFill fills key with a fresh plan for req.
func (s *Server) planFill(req *BalanceRequest, alg bisectlb.Algorithm, key string) *fill {
	return &fill{key: key, body: req, compute: func() (*Plan, error) {
		return computePlan(req, alg, signature(key), s.reg)
	}}
}

// getOrFill is the get-or-fill stage and the only place a plan is
// computed or fetched. Concurrent fills of one key coalesce in the
// singleflight group. The leader first re-checks the cache, since a
// flight that finished after this request's lookup has already left
// its plan there. It then proxies the miss to the key's ring owner, so
// the per-node singleflight composes into one planner execution per key
// cluster-wide, or takes one turn of the local pool; an unreachable
// owner fails over to the local pool. What it computes or fetches it
// caches. The cache state it reports ("miss", "peer-hit", "peer-miss")
// is the leader's: followers report a plain coalesced miss.
func (s *Server) getOrFill(ctx context.Context, tn *tenantState, f *fill) (*Plan, string, bool, error) {
	hash, remote := fnv64a(f.key), false
	if pc := s.cluster; f.route && pc != nil {
		_, self := pc.Owner(hash)
		if self {
			pc.Touch(f.key, hash)
		}
		remote = !self
	}
	state := "miss"
	plan, shared, err := s.sf.Do(ctx, f.key, func() (*Plan, error) {
		if p, ok := s.cache.Peek(f.key); ok && (!f.flat || p.flat != nil) {
			return p, nil
		}
		if remote {
			if p, cached, err := s.fetch(ctx, f, hash); err == nil {
				state = "peer-miss"
				if cached {
					state = "peer-hit"
				}
				return p, nil
			}
			s.reg.Counter(mClusterFailover).Inc()
		}
		return s.computeLocal(ctx, tn, f)
	})
	if shared {
		s.reg.Counter(mCoalesced).Inc()
	}
	return plan, state, shared, err
}

// fetch asks the key's owner for the plan and installs it in the local
// cache, so repeat hits on this node stay local.
func (s *Server) fetch(ctx context.Context, f *fill, hash uint64) (*Plan, bool, error) {
	body, err := json.Marshal(f.body)
	if err != nil {
		return nil, false, err
	}
	raw, cached, err := s.cluster.Fetch(ctx, f.key, hash, body)
	if err != nil {
		return nil, false, err
	}
	var p Plan
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, false, fmt.Errorf("service: owner returned an undecodable plan for %q: %w", f.key, err)
	}
	s.reg.Counter(mClusterProxied).Inc()
	s.cache.Put(f.key, &p)
	s.reg.Counter(mClusterPeerPlans).Inc()
	return &p, cached, nil
}

// computeLocal runs the fill's prepare step, then computes the plan in
// one turn of the worker pool under the tenant's queue (the anonymous
// one for peer fills) and caches it.
func (s *Server) computeLocal(ctx context.Context, tn *tenantState, f *fill) (*Plan, error) {
	if f.prepare != nil {
		if err := f.prepare(ctx, tn); err != nil {
			return nil, err
		}
	}
	id, weight := "", 1
	if tn != nil {
		id, weight = tn.id, tn.weight
	}
	var (
		p    *Plan
		cerr error
	)
	err := s.pool.RunTenant(ctx, id, weight, func() {
		if s.cfg.Hooks.PreCompute != nil {
			s.cfg.Hooks.PreCompute()
		}
		p, cerr = f.compute()
		if cerr == nil {
			s.cache.Put(f.key, p)
		}
	})
	if err != nil {
		return nil, err
	}
	return p, cerr
}

// serveOne runs a single-plan request from the key stage on. appendKey
// writes the canonical key into a pooled buffer that goes back to the
// pool once looked up, so the common cache-hit path allocates neither
// the key string nor the signature (the cached plan carries its
// signature). The tenant id is deliberately not part of the key: plans
// are tenant-independent facts, so tenants share each other's warm
// cache. A hit is encoded straight away; a miss is admitted and filled
// under the request's deadline.
func (s *Server) serveOne(w http.ResponseWriter, r *http.Request, start time.Time, tenant string, deadlineMS int64,
	appendKey func([]byte) []byte, newFill func(key string) *fill) {
	tn := s.tenant(r, tenant)
	kb := s.keyBufs.Get().(*[]byte)
	*kb = appendKey((*kb)[:0])
	plan, hit := s.cache.GetBytes(*kb)
	key := ""
	if !hit {
		key = string(*kb)
	}
	s.keyBufs.Put(kb)
	if hit {
		s.respond(w, tn, start, BalanceResponse{Plan: *plan, Cached: true}, "hit")
		return
	}
	if err := s.admit(tn, start); err != nil {
		s.fail(w, err)
		return
	}
	ctx, cancel := s.withDeadline(r.Context(), deadlineMS)
	defer cancel()
	f := newFill(key)
	f.route = true
	plan, state, shared, err := s.getOrFill(ctx, tn, f)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.respond(w, tn, start, BalanceResponse{Plan: *plan, Cached: state == "peer-hit", Coalesced: shared}, state)
}

func (s *Server) handleBalance(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req BalanceRequest
	if err := s.decode(w, r, &req); err != nil {
		s.fail(w, err)
		return
	}
	alg, err := s.check(&req, nil)
	if err != nil {
		s.fail(w, err)
		return
	}
	s.serveOne(w, r, start, req.Tenant, req.DeadlineMS, req.appendKey, func(key string) *fill {
		return s.planFill(&req, alg, key)
	})
}

// classifyComputeError maps a stage, admission, deadline, facade or
// patch error to the HTTP status, error code, rejection counter and
// client message used for it everywhere: single and rebalance requests
// reject with it, batch items embed it.
func classifyComputeError(err error) (status int, code, metric, msg string) {
	var re *requestError
	switch {
	case errors.As(err, &re):
		return re.status, re.code, re.metric, re.msg
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full", mRejectedQueueFull, err.Error()
	case errors.Is(err, ErrTenantQueueFull):
		return http.StatusTooManyRequests, "tenant_queue_full", mRejectedTenantQ, err.Error()
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining", mRejectedDraining, err.Error()
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable, "deadline_exceeded", mDeadlineExceeded,
			"request deadline expired before the plan was computed"
	case errors.Is(err, bisectlb.ErrAlphaRequired):
		return http.StatusBadRequest, "alpha_required", mBadRequest, err.Error()
	case errors.Is(err, bisectlb.ErrBadAlpha):
		return http.StatusBadRequest, "bad_alpha", mBadRequest, err.Error()
	case errors.Is(err, bisectlb.ErrBadKappa):
		return http.StatusBadRequest, "bad_kappa", mBadRequest, err.Error()
	case errors.Is(err, bisectlb.ErrBadN):
		return http.StatusBadRequest, "bad_n", mBadRequest, err.Error()
	case errors.Is(err, bisectlb.ErrNilProblem), errors.Is(err, bisectlb.ErrUnknownAlgorithm):
		return http.StatusBadRequest, "bad_request", mBadRequest, err.Error()
	case errors.Is(err, bisectlb.ErrUnknownPart):
		return http.StatusBadRequest, "unknown_part", mBadRequest, err.Error()
	case errors.Is(err, bisectlb.ErrBadFactor):
		return http.StatusBadRequest, "bad_delta", mBadRequest, err.Error()
	case errors.Is(err, bisectlb.ErrPlanMismatch):
		return http.StatusInternalServerError, "internal", mInternalErrors, err.Error()
	default:
		return http.StatusInternalServerError, "internal", mInternalErrors,
			fmt.Sprintf("balance failed: %v", err)
	}
}

// errorBody is the typed rejection envelope of every non-200 response;
// a failed batch item embeds the same code and message.
type errorBody struct {
	Error BatchItemError `json:"error"`
}

// fail encodes err as a typed rejection and charges its counter.
func (s *Server) fail(w http.ResponseWriter, err error) {
	status, code, metric, msg := classifyComputeError(err)
	if metric != "" {
		s.reg.Counter(metric).Inc()
	}
	body := errorBody{Error: BatchItemError{Code: code, Message: msg}}
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests {
		// Every 429 tells the client when to come back, derived from the
		// shed state and queue backlog (admission.go retryAfterSecs).
		secs := retryAfterSecs(s.adm.admitFrac(), s.pool.queuedLen(), s.cfg.Workers)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// respond is the encode stage of a 200: the response body, and the
// X-Lbserve-Cache state when the endpoint reports one. The request's
// latency then feeds the SLO controller's steering histogram and the
// tenant's.
func (s *Server) respond(w http.ResponseWriter, tn *tenantState, start time.Time, resp any, cacheState string) {
	s.reg.Counter(mOK).Inc()
	w.Header().Set("Content-Type", "application/json")
	if cacheState != "" {
		w.Header().Set("X-Lbserve-Cache", cacheState)
	}
	json.NewEncoder(w).Encode(resp)
	lat := int64(time.Since(start))
	s.reg.Histogram(mAdmittedLatencyNs).Observe(lat)
	tn.ok.Inc()
	tn.latency.Observe(lat)
}
