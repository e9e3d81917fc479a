package service

import (
	"context"
	"encoding/json"
	"fmt"
)

// PeerCluster is the slice of a cluster node the serving path needs:
// ownership routing, the remote fetch, hot-key accounting and the
// health view. *cluster.Node implements it; the interface exists so
// service does not import cluster (cluster already calls back into
// service through Config callbacks, and a cycle would force a merge of
// two layers that test independently).
type PeerCluster interface {
	// Owner returns the owning peer address for a key hash and whether
	// it is this node.
	Owner(hash uint64) (addr string, self bool)
	// Fetch asks the owner for the plan, shipping the canonical request
	// body so the owner can compute on a miss. The bool reports a
	// cluster-wide cache hit.
	Fetch(ctx context.Context, key string, hash uint64, body []byte) (plan []byte, cached bool, err error)
	// Touch records a hit on an owned key for hot-key replication.
	Touch(key string, hash uint64)
	// Healthz returns the peer/ring view for /healthz.
	Healthz() map[string]any
}

// SetCluster attaches the server to a cluster node. It must be called
// before the server starts serving (the field is read without locking
// on the request path). A nil cluster (the default) serves standalone.
func (s *Server) SetCluster(pc PeerCluster) { s.cluster = pc }

// ClusterFill is the owner-side fill handed to cluster.Config.Fill:
// serve the plan for key from the local cache, or run the shipped
// request body through the pipeline's decode, check and get-or-fill
// stages, without routing — so a storm of proxied misses for one key
// still runs the planner once, and peer traffic respects the pool's
// admission bounds.
func (s *Server) ClusterFill(ctx context.Context, key string, body []byte) ([]byte, bool, error) {
	if p, ok := s.cache.Get(key); ok {
		raw, err := json.Marshal(p)
		return raw, true, err
	}
	var f *fill
	// Drift keys carry a rebalance body, not a balance body: route them
	// to the patch (decoding them as a BalanceRequest would silently drop
	// the deltas and cache a fresh plan under the drift key).
	if isDriftKey(key) {
		var req RebalanceRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, false, fmt.Errorf("service: peer rebalance body: %w", err)
		}
		base, alg, err := s.checkRebalance(&req)
		if err != nil {
			return nil, false, err
		}
		f = s.rebalanceFill(&req, &base, alg, base.cacheKey(), key)
	} else {
		var req BalanceRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return nil, false, fmt.Errorf("service: peer fill body: %w", err)
		}
		alg, err := s.check(&req, nil)
		if err != nil {
			return nil, false, err
		}
		f = s.planFill(&req, alg, key)
	}
	plan, _, _, err := s.getOrFill(ctx, nil, f)
	if err != nil {
		return nil, false, err
	}
	raw, err := json.Marshal(plan)
	return raw, false, err
}

// ClusterStore installs a plan replicated from a peer (cluster hot-key
// replication) into the local cache. Undecodable payloads are rejected.
func (s *Server) ClusterStore(key string, plan []byte) bool {
	if key == "" {
		return false
	}
	var p Plan
	if err := json.Unmarshal(plan, &p); err != nil {
		return false
	}
	s.cache.Put(key, &p)
	return true
}

// ClusterLoad reads a cache entry back for replication, without
// promoting it or touching the hit/miss counters (a replication read is
// not client traffic).
func (s *Server) ClusterLoad(key string) ([]byte, bool) {
	p, ok := s.cache.Peek(key)
	if !ok {
		return nil, false
	}
	raw, err := json.Marshal(p)
	if err != nil {
		return nil, false
	}
	return raw, true
}
