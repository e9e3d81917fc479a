package service

import (
	"net/http"
	"time"
)

// POST /v1/balance:batch plans many specs in one request. It is a
// fan-out over the request pipeline (pipeline.go), not a second serve
// path: the batch is decoded once, each item is checked and keyed on its
// own (one cache lookup per item), identical items are deduped within
// the batch, and the batch pays one tenant token and one SLO draw. Its
// distinct misses then go through get-or-fill one at a time, in
// first-seen order, so each coalesces with identical in-flight requests
// and, in cluster mode, is planned at its key's ring owner — a key is
// planned once whichever endpoint asks for it. The batch holds at most
// one queue slot at a time; callers that want plans computed in
// parallel should issue separate requests.
//
// Failure semantics are per item: a malformed spec or a facade rejection
// marks only that item with the same error code a single request would
// have received, while the rest of the batch proceeds. Only batch-level
// problems — bad JSON, an empty or oversized batch, admission rejection
// (token, SLO shed, a full queue), draining, the batch deadline
// expiring — fail the whole request.

// BatchRequest is the body of POST /v1/balance:batch.
type BatchRequest struct {
	// Items are planned independently; order is preserved in the response.
	Items []BalanceRequest `json:"items"`
	// DeadlineMS caps the whole batch's time in queue + compute; 0 uses
	// the server default. Per-item deadline_ms fields are ignored —
	// admission is batch-level.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Tenant identifies the caller when the tenant header is absent.
	// Admission is batch-level, so per-item tenant fields are ignored.
	Tenant string `json:"tenant,omitempty"`
}

// BatchItemError mirrors the single-request error envelope for one item.
type BatchItemError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// BatchItem is the outcome for one request of a batch: exactly one of
// Plan or Error is set.
type BatchItem struct {
	Plan *Plan `json:"plan,omitempty"`
	// Cached is true when the plan came from the plan cache.
	Cached bool `json:"cached,omitempty"`
	// Deduped is true when the plan was computed once for an identical
	// earlier item of this batch.
	Deduped bool            `json:"deduped,omitempty"`
	Error   *BatchItemError `json:"error,omitempty"`
}

// BatchResponse is the body of a 200 batch response.
type BatchResponse struct {
	Items []BatchItem `json:"items"`
	// Computed counts the distinct misses filled for this batch (planned
	// here, coalesced onto an identical in-flight plan, or planned by the
	// key's owner); CacheHits counts items served from a plan cache,
	// this node's or the owner's, and Deduped counts items that reused an
	// earlier item's plan.
	Computed  int `json:"computed"`
	CacheHits int `json:"cache_hits"`
	Deduped   int `json:"deduped"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req BatchRequest
	err := s.decode(w, r, &req)
	switch {
	case err != nil:
	case len(req.Items) == 0:
		err = badRequest("empty_batch", "batch has no items")
	case len(req.Items) > s.cfg.MaxBatchItems:
		err = badRequest("batch_too_large", "batch exceeds the server's max_batch_items limit")
	case req.DeadlineMS < 0:
		err = badRequest("bad_request", "deadline_ms must be ≥ 0")
	}
	if err != nil {
		s.fail(w, err)
		return
	}
	s.reg.Counter(mBatchRequests).Inc()
	s.reg.Counter(mBatchItems).Add(int64(len(req.Items)))
	tn := s.tenant(r, req.Tenant)

	resp := BatchResponse{Items: make([]BatchItem, len(req.Items))}
	// miss holds one fill per distinct uncached key, in first-seen order,
	// with the items it serves; missIdx maps a key to its position in
	// miss so later identical items attach to the earlier fill.
	type missEntry struct {
		f     *fill
		items []int
	}
	var miss []*missEntry
	missIdx := make(map[string]int)

	kb := s.keyBufs.Get().(*[]byte)
	keyBytes := (*kb)[:0]
	for i := range req.Items {
		item := &req.Items[i]
		alg, err := s.check(item, nil)
		if err != nil {
			resp.Items[i].Error = s.itemError(err)
			continue
		}
		keyBytes = item.appendKey(keyBytes[:0])
		if plan, ok := s.cache.GetBytes(keyBytes); ok {
			resp.Items[i] = BatchItem{Plan: plan, Cached: true}
			resp.CacheHits++
			continue
		}
		key := string(keyBytes)
		if j, ok := missIdx[key]; ok {
			miss[j].items = append(miss[j].items, i)
			continue
		}
		missIdx[key] = len(miss)
		f := s.planFill(item, alg, key)
		f.route = true
		miss = append(miss, &missEntry{f: f, items: []int{i}})
	}
	*kb = keyBytes
	s.keyBufs.Put(kb)

	if len(miss) > 0 {
		if err := s.admit(tn, start); err != nil {
			s.fail(w, err)
			return
		}
		ctx, cancel := s.withDeadline(r.Context(), req.DeadlineMS)
		defer cancel()
		for _, m := range miss {
			plan, state, _, err := s.getOrFill(ctx, tn, m.f)
			if err != nil {
				// Admission, drain and deadline failures are batch-level:
				// no partial results exist worth returning.
				if status, _, _, _ := classifyComputeError(err); status == http.StatusTooManyRequests ||
					status == http.StatusServiceUnavailable {
					s.fail(w, err)
					return
				}
				ie := s.itemError(err)
				for _, i := range m.items {
					resp.Items[i].Error = ie
				}
				continue
			}
			if state == "peer-hit" {
				resp.CacheHits++
			} else {
				resp.Computed++
			}
			for j, i := range m.items {
				resp.Items[i] = BatchItem{Plan: plan, Cached: state == "peer-hit", Deduped: j > 0}
				if j > 0 {
					resp.Deduped++
				}
			}
		}
		if resp.Deduped > 0 {
			s.reg.Counter(mBatchDeduped).Add(int64(resp.Deduped))
		}
	}
	s.respond(w, tn, start, resp, "")
}

// itemError embeds a rejection in one batch item, charging its counter
// as a single request would.
func (s *Server) itemError(err error) *BatchItemError {
	_, code, metric, msg := classifyComputeError(err)
	s.reg.Counter(metric).Inc()
	return &BatchItemError{Code: code, Message: msg}
}
