// Package service is the network serving surface over the bisectlb
// facade: a stdlib-only HTTP/JSON daemon that turns problem specs into
// partition plans with their guarantee bounds.
//
// The paper frames its algorithms as the kernel of a load-balancing
// service invoked repeatedly as workloads drift; this package supplies
// the systems half of that framing. Every request canonicalises to a
// deterministic key (problem specs are pure functions of their
// parameters), which feeds a sharded LRU plan cache and singleflight
// coalescing of concurrent identical requests. Admission control is a
// bounded worker pool behind a bounded queue with typed 429/503
// rejections and per-request deadlines, and SIGTERM triggers a graceful
// drain: stop accepting, finish in-flight work, flush metrics.
//
// Endpoints, all three plan endpoints adapters over one request
// pipeline (pipeline.go):
//
//	POST /v1/balance        — problem spec + N + algorithm → partition plan
//	POST /v1/balance:batch  — many specs per request (batch.go)
//	POST /v1/rebalance      — patch a served plan under drift (rebalance.go)
//	GET  /healthz           — liveness and drain state
//	GET  /metricz           — the obs registry (service.* namespace) as JSON
//
// The serving hot path is engineered around DESIGN.md §10: request keys
// are canonicalised into pooled buffers (spec.go appendKey), signatures
// and cache shards use inline FNV-1a rather than hash/fnv's allocating
// hasher, cache hits are looked up by byte slice without materialising a
// key string, and cache misses for the synthetic families plan through
// the allocation-free flat planner (plan.go, core.Planner) pulled from a
// sync.Pool. A cache hit allocates nothing beyond the response encoding.
package service
