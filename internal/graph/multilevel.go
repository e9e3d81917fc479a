package graph

import (
	"sort"

	"bisectlb/internal/xrand"
)

// Multilevel tuning constants. The values follow the usual
// coarsen → initial-partition → refine shape (PMondriaan, Metis): stop
// coarsening once the graph is small enough for a direct greedy
// bisection, give up when matching stalls, and run a bounded number of
// refinement passes per level so the bisector's cost stays linear-ish.
const (
	// coarseStop is the vertex count below which coarsening stops and the
	// initial bisection runs directly.
	coarseStop = 24
	// minShrink is the minimum relative vertex-count reduction a
	// coarsening round must achieve to continue (stall guard).
	minShrink = 0.05
	// fmPasses bounds the refinement passes per uncoarsening level.
	fmPasses = 2
)

// bisectSides computes a deterministic two-way partition of h honoring
// the balance band [total−hiCap, hiCap] on both side weights while
// greedily minimising the cut net weight: heavy-connection matching
// coarsens the hypergraph, a weight-sorted greedy (LPT) bisection seeds
// the coarsest level, and boundary FM refinement improves the cut at
// every uncoarsening step without ever leaving the band. The returned
// slice maps each vertex to side 0 or 1. The same (h, hiCap, seed)
// always yields the same sides.
func bisectSides(h *Hypergraph, hiCap int64, seed uint64) []uint8 {
	// mergeCap bounds coarse vertex weights so the LPT bound
	// floor(W/2) + wmax_coarse stays ≤ hiCap whenever the fine graph was
	// feasible; never below the fine wmax, which already exists anyway.
	mergeCap := hiCap - h.total/2
	if mergeCap < h.wmax {
		mergeCap = h.wmax
	}

	type level struct {
		h    *Hypergraph
		cmap []int32 // fine vertex -> coarse vertex of the NEXT level
	}
	levels := []level{{h: h}}
	cur := h
	rng := xrand.New(xrand.Mix(seed, 0xC0A53))
	for cur.NumVertices() > coarseStop {
		cmap, cnv := heavyConnectionMatch(cur, mergeCap, rng)
		if cnv >= cur.NumVertices() || float64(cur.NumVertices()-cnv) < minShrink*float64(cur.NumVertices()) {
			break
		}
		coarse := contract(cur, cmap, cnv)
		levels[len(levels)-1].cmap = cmap
		levels = append(levels, level{h: coarse})
		cur = coarse
	}

	sc := newFMScratch(h.NumVertices(), h.NumNets())
	side := initialLPT(cur, hiCap)
	refine(cur, side, hiCap, sc)
	for i := len(levels) - 2; i >= 0; i-- {
		fine := levels[i]
		fineSide := make([]uint8, fine.h.NumVertices())
		for v := range fineSide {
			fineSide[v] = side[fine.cmap[v]]
		}
		side = fineSide
		refine(fine.h, side, hiCap, sc)
	}
	return side
}

// heavyConnectionMatch greedily matches each vertex with its most
// heavily connected unmatched neighbour (connection weight = Σ weights
// of shared nets), subject to the combined weight staying ≤ mergeCap.
// Vertices are visited in a seeded random order — the standard trick to
// decorrelate matchings across bisection levels — drawn from rng, which
// the caller seeds deterministically. Returns the fine→coarse map and
// the coarse vertex count; coarse indices are assigned in fine-index
// order of each group's first member, keeping contraction deterministic.
func heavyConnectionMatch(h *Hypergraph, mergeCap int64, rng *xrand.Source) ([]int32, int) {
	nv := h.NumVertices()
	order := make([]int32, nv)
	for i := range order {
		order[i] = int32(i)
	}
	// Fisher–Yates with the deterministic source.
	for i := nv - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	mate := make([]int32, nv)
	for i := range mate {
		mate[i] = -1
	}
	conn := make([]int64, nv)
	touched := make([]int32, 0, 32)
	for _, v := range order {
		if mate[v] != -1 {
			continue
		}
		// Accumulate connection weight to each neighbour via shared nets.
		touched = touched[:0]
		for _, n := range h.pins[h.xpins[v]:h.xpins[v+1]] {
			for _, u := range h.nets[h.xnets[n]:h.xnets[n+1]] {
				if u == v {
					continue
				}
				if conn[u] == 0 {
					touched = append(touched, u)
				}
				conn[u] += h.nwgt[n]
			}
		}
		best := int32(-1)
		var bestConn int64
		for _, u := range touched {
			if mate[u] == -1 && h.vwgt[v]+h.vwgt[u] <= mergeCap {
				if conn[u] > bestConn || (conn[u] == bestConn && (best == -1 || u < best)) {
					best, bestConn = u, conn[u]
				}
			}
			conn[u] = 0
		}
		if best != -1 {
			mate[v], mate[best] = best, v
		}
	}
	// Assign coarse indices by the smallest fine index of each pair.
	cmap := make([]int32, nv)
	for i := range cmap {
		cmap[i] = -1
	}
	cnv := 0
	for v := 0; v < nv; v++ {
		if cmap[v] != -1 {
			continue
		}
		cmap[v] = int32(cnv)
		if m := mate[v]; m != -1 {
			cmap[m] = int32(cnv)
		}
		cnv++
	}
	return cmap, cnv
}

// contract builds the coarse hypergraph: vertex weights sum over groups,
// net pins map through cmap with duplicates removed, and nets left with
// fewer than two distinct coarse pins vanish (they can never be cut).
// The parent is valid, so the coarse CSR is written directly, without
// FromNets' re-validation.
func contract(h *Hypergraph, cmap []int32, cnv int) *Hypergraph {
	c := &Hypergraph{
		vwgt:  make([]int64, cnv),
		nwgt:  make([]int64, 0, h.NumNets()),
		xnets: make([]int32, 1, h.NumNets()+1),
		nets:  make([]int32, 0, h.NumPins()),
	}
	for v, cv := range cmap {
		c.vwgt[cv] += h.vwgt[v]
	}
	seen := make([]int32, cnv) // seen[c] = net index + 1 that last used c
	for n := 0; n < h.NumNets(); n++ {
		start := len(c.nets)
		for _, v := range h.nets[h.xnets[n]:h.xnets[n+1]] {
			if cv := cmap[v]; seen[cv] != int32(n)+1 {
				seen[cv] = int32(n) + 1
				c.nets = append(c.nets, cv)
			}
		}
		if len(c.nets)-start < 2 {
			c.nets = c.nets[:start]
			continue
		}
		c.nwgt = append(c.nwgt, h.nwgt[n])
		c.xnets = append(c.xnets, int32(len(c.nets)))
	}
	c.finish()
	return c
}

// initialLPT seeds the coarsest bisection: vertices sorted by weight
// descending (index ascending on ties) are assigned greedily to the
// lighter side. For two bins this keeps the heavier side at most
// floor(W/2) + wmax_coarse, which the coarsening mergeCap ties back to
// hiCap whenever the fine problem was feasible.
func initialLPT(h *Hypergraph, hiCap int64) []uint8 {
	nv := h.NumVertices()
	order := make([]int32, nv)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if h.vwgt[a] != h.vwgt[b] {
			return h.vwgt[a] > h.vwgt[b]
		}
		return a < b
	})
	side := make([]uint8, nv)
	var w0, w1 int64
	for _, v := range order {
		if w1 < w0 {
			side[v] = 1
			w1 += h.vwgt[v]
		} else {
			side[v] = 0
			w0 += h.vwgt[v]
		}
	}
	// Defensive repair: if the greedy seed somehow exceeds the cap (only
	// possible when the caller admitted an infeasible instance), shift the
	// lightest vertices of the heavy side over until within band or stuck.
	repair(h, side, hiCap)
	return side
}

// repair moves lightest-first vertices off an over-cap side. It is a
// no-op for feasible instances; Problem.CanBisect re-checks the band
// after bisection, so a stuck repair surfaces as an indivisible leaf,
// never as a silent contract breach.
func repair(h *Hypergraph, side []uint8, hiCap int64) {
	var w [2]int64
	for v, s := range side {
		w[s] += h.vwgt[v]
	}
	for from := 0; from < 2; from++ {
		if w[from] <= hiCap {
			continue
		}
		order := make([]int32, 0, len(side))
		for v := range side {
			if side[v] == uint8(from) {
				order = append(order, int32(v))
			}
		}
		sort.Slice(order, func(i, j int) bool {
			a, b := order[i], order[j]
			if h.vwgt[a] != h.vwgt[b] {
				return h.vwgt[a] < h.vwgt[b]
			}
			return a < b
		})
		to := 1 - from
		for _, v := range order {
			if w[from] <= hiCap {
				break
			}
			if w[to]+h.vwgt[v] > hiCap {
				continue
			}
			side[v] = uint8(to)
			w[from] -= h.vwgt[v]
			w[to] += h.vwgt[v]
		}
	}
}

// gainEntry is one move candidate in a side's heap. It is stale once
// its vertex is locked or its gain has changed since the push (ver no
// longer matches); a vertex changes side only by moving, which locks it.
type gainEntry struct {
	gain int64
	v    int32
	ver  uint32
}

// before is the move order: larger gain first, smaller index on ties.
func (a gainEntry) before(b gainEntry) bool {
	return a.gain > b.gain || (a.gain == b.gain && a.v < b.v)
}

// gainHeap is a binary max-heap of gainEntry in move order.
type gainHeap []gainEntry

func (q *gainHeap) push(e gainEntry) {
	*q = append(*q, e)
	h := *q
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *gainHeap) pop() gainEntry {
	h := *q
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}

// fmScratch is refine's working memory, sized once for the finest level
// of a bisectSides call and reused at every level.
type fmScratch struct {
	cnt    [][2]int32 // per net: pins on side 0 and side 1
	gain   []int64    // per vertex: cut-weight decrease if it moved now
	ver    []uint32   // per vertex: bumped whenever gain changes
	locked []bool
	heap   [2]gainHeap // per side: candidates to move off that side
	skip   []gainEntry // band-breaking tops set aside during one selection
}

func newFMScratch(nv, nn int) *fmScratch {
	return &fmScratch{
		cnt:    make([][2]int32, nn),
		gain:   make([]int64, nv),
		ver:    make([]uint32, nv),
		locked: make([]bool, nv),
		heap:   [2]gainHeap{make(gainHeap, 0, nv), make(gainHeap, 0, nv)},
	}
}

// refine runs bounded greedy boundary-FM passes: repeatedly move the
// unlocked vertex with the largest positive cut gain (smallest index on
// ties) whose move keeps both sides inside the band, locking each moved
// vertex for the rest of the pass. A positive gain implies a cut net, so
// only boundary vertices ever move. Only strictly improving moves are
// taken, so the cut decreases monotonically and the loop terminates.
//
// Gains are maintained, not rescanned: each pass computes every gain
// once, and a move recomputes only the pins of the moved vertex's nets.
// Candidates wait in one lazy max-heap per side; stale entries are
// dropped when they surface, and band-breaking tops are set aside and
// pushed back after the selection.
func refine(h *Hypergraph, side []uint8, hiCap int64, sc *fmScratch) {
	nv := h.NumVertices()
	nn := h.NumNets()
	if nv == 0 || nn == 0 {
		return
	}
	cnt, gain, ver, locked := sc.cnt[:nn], sc.gain[:nv], sc.ver[:nv], sc.locked[:nv]
	gainOf := func(v int32) int64 {
		s := side[v]
		var g int64
		for _, n := range h.pins[h.xpins[v]:h.xpins[v+1]] {
			if cnt[n][s] == 1 {
				g += h.nwgt[n] // net leaves the cut
			}
			if cnt[n][1-s] == 0 {
				g -= h.nwgt[n] // net enters the cut
			}
		}
		return g
	}
	for pass := 0; pass < fmPasses; pass++ {
		clear(cnt)
		var w [2]int64
		for v := 0; v < nv; v++ {
			w[side[v]] += h.vwgt[v]
		}
		for n := 0; n < nn; n++ {
			for _, v := range h.nets[h.xnets[n]:h.xnets[n+1]] {
				cnt[n][side[v]]++
			}
		}
		sc.heap[0], sc.heap[1] = sc.heap[0][:0], sc.heap[1][:0]
		for v := int32(0); v < int32(nv); v++ {
			locked[v], ver[v] = false, 0
			if gain[v] = gainOf(v); gain[v] > 0 {
				sc.heap[side[v]].push(gainEntry{gain[v], v, 0})
			}
		}
		improved := false
		for {
			// A move off side s keeps both sides in band iff the vertex
			// fits the room left on the other side: w[s]−vw ≥ total−hiCap
			// and w[1−s]+vw ≤ hiCap are the same inequality.
			var cand [2]gainEntry
			for s := range sc.heap {
				room := hiCap - w[1-s]
				if room < 1 {
					continue // vertex weights are ≥ 1
				}
				q := &sc.heap[s]
				for len(*q) > 0 {
					e := (*q)[0]
					if locked[e.v] || e.ver != ver[e.v] {
						q.pop()
					} else if h.vwgt[e.v] > room {
						sc.skip = append(sc.skip, q.pop())
					} else {
						cand[s] = e
						break
					}
				}
				for _, e := range sc.skip {
					q.push(e)
				}
				sc.skip = sc.skip[:0]
			}
			best := cand[0] // an empty candidate has gain 0 and loses
			if cand[1].before(best) {
				best = cand[1]
			}
			if best.gain == 0 {
				break
			}
			b := best.v
			s := side[b]
			for _, n := range h.pins[h.xpins[b]:h.xpins[b+1]] {
				cnt[n][s]--
				cnt[n][1-s]++
			}
			w[s] -= h.vwgt[b]
			w[1-s] += h.vwgt[b]
			side[b] = 1 - s
			locked[b] = true
			improved = true
			for _, n := range h.pins[h.xpins[b]:h.xpins[b+1]] {
				for _, u := range h.nets[h.xnets[n]:h.xnets[n+1]] {
					if locked[u] {
						continue
					}
					if g := gainOf(u); g != gain[u] {
						gain[u] = g
						ver[u]++
						if g > 0 {
							sc.heap[side[u]].push(gainEntry{g, u, ver[u]})
						}
					}
				}
			}
		}
		if !improved {
			break
		}
	}
}

// CutWeight returns the total weight of nets with pins on both sides of
// the given assignment — the quality measure the refinement minimises.
func CutWeight(h *Hypergraph, side []uint8) int64 {
	var cut int64
	for n := 0; n < h.NumNets(); n++ {
		var c [2]int32
		for _, v := range h.nets[h.xnets[n]:h.xnets[n+1]] {
			c[side[v]]++
		}
		if c[0] > 0 && c[1] > 0 {
			cut += h.nwgt[n]
		}
	}
	return cut
}
