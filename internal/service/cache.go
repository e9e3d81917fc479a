package service

import (
	"container/list"
	"sync"

	"bisectlb/internal/obs"
)

// planCache is a sharded LRU over canonical request keys. Sharding keeps
// lock hold times short under concurrent load: a key hashes to one shard
// and only that shard's mutex is taken. Plans are immutable, so Get hands
// out shared pointers.
type planCache struct {
	shards []cacheShard
	mask   uint64
	reg    *obs.Registry
}

type cacheShard struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
}

type cacheEntry struct {
	key  string
	plan *Plan
}

// newPlanCache builds a cache of roughly capacity entries spread over
// shards (rounded up to a power of two). capacity < 1 returns nil — the
// handler treats a nil cache as "caching disabled".
func newPlanCache(capacity, shards int, reg *obs.Registry) *planCache {
	if capacity < 1 {
		return nil
	}
	if shards < 1 {
		shards = 16
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	if n > capacity {
		n = 1
	}
	perShard := (capacity + n - 1) / n
	c := &planCache{shards: make([]cacheShard, n), mask: uint64(n - 1), reg: reg}
	for i := range c.shards {
		c.shards[i] = cacheShard{cap: perShard, ll: list.New(), m: make(map[string]*list.Element)}
	}
	return c
}

// Get returns the cached plan for key, promoting it to most recently
// used. Nil-safe: a nil cache always misses.
func (c *planCache) Get(key string) (*Plan, bool) { return get(c, key, true) }

// GetBytes is Get for a byte-slice key, avoiding the string conversion on
// the handler hot path: the map index m[string(key)] compiles to a
// zero-copy lookup, so a cache hit allocates nothing.
func (c *planCache) GetBytes(key []byte) (*Plan, bool) { return get(c, key, true) }

// Peek returns the cached plan for key without promoting it or counting
// a hit/miss — for observers (replication, snapshots, the fill leader's
// re-check) whose reads are not client traffic. Nil-safe.
func (c *planCache) Peek(key string) (*Plan, bool) { return get(c, key, false) }

// get is the one lookup behind Get, GetBytes and Peek. Shards are
// selected by inline FNV-1a: the hash/fnv package allocates a hasher per
// call, which a per-request lookup path cannot afford.
func get[K string | []byte](c *planCache, key K, traffic bool) (*Plan, bool) {
	if c == nil {
		return nil, false
	}
	s := &c.shards[fnv64a(key)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[string(key)]
	if traffic {
		if !ok {
			c.reg.Counter(mCacheMisses).Inc()
			return nil, false
		}
		s.ll.MoveToFront(el)
		c.reg.Counter(mCacheHits).Inc()
	}
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).plan, true
}

// Put inserts or refreshes a plan, evicting the shard's least recently
// used entry when full. Nil-safe no-op.
func (c *planCache) Put(key string, plan *Plan) {
	if c == nil {
		return
	}
	s := &c.shards[fnv64a(key)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		el.Value.(*cacheEntry).plan = plan
		s.ll.MoveToFront(el)
		return
	}
	s.m[key] = s.ll.PushFront(&cacheEntry{key: key, plan: plan})
	if s.ll.Len() > s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.m, oldest.Value.(*cacheEntry).key)
		c.reg.Counter(mCacheEvictions).Inc()
	}
}

// Len returns the total number of cached plans. Nil-safe.
func (c *planCache) Len() int {
	if c == nil {
		return 0
	}
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.ll.Len()
		s.mu.Unlock()
	}
	return total
}
