package graph

import (
	"testing"
	"testing/quick"

	"bisectlb/internal/xrand"
)

// refineReference is the rescanning boundary-FM rule refine must
// reproduce move for move: every move rescans all cut nets and recomputes
// the gain of each of their pins, taking the unlocked band-keeping vertex
// with the largest positive gain, smallest index on ties.
func refineReference(h *Hypergraph, side []uint8, hiCap int64) {
	nv := h.NumVertices()
	nn := h.NumNets()
	if nv == 0 || nn == 0 {
		return
	}
	lo := h.total - hiCap
	cnt := make([][2]int32, nn)
	var w [2]int64
	recount := func() {
		for n := range cnt {
			cnt[n] = [2]int32{}
		}
		w = [2]int64{}
		for v := 0; v < nv; v++ {
			w[side[v]] += h.vwgt[v]
		}
		for n := 0; n < nn; n++ {
			for _, v := range h.nets[h.xnets[n]:h.xnets[n+1]] {
				cnt[n][side[v]]++
			}
		}
	}
	gain := func(v int32) int64 {
		s := side[v]
		var g int64
		for _, n := range h.pins[h.xpins[v]:h.xpins[v+1]] {
			if cnt[n][s] == 1 {
				g += h.nwgt[n]
			}
			if cnt[n][1-s] == 0 {
				g -= h.nwgt[n]
			}
		}
		return g
	}
	locked := make([]bool, nv)
	for pass := 0; pass < fmPasses; pass++ {
		recount()
		for i := range locked {
			locked[i] = false
		}
		improved := false
		for moves := 0; moves < nv; moves++ {
			best := int32(-1)
			var bestGain int64
			for n := 0; n < nn; n++ {
				if cnt[n][0] == 0 || cnt[n][1] == 0 {
					continue
				}
				for _, v := range h.nets[h.xnets[n]:h.xnets[n+1]] {
					if locked[v] {
						continue
					}
					s := side[v]
					if w[s]-h.vwgt[v] < lo || w[1-s]+h.vwgt[v] > hiCap {
						continue
					}
					if g := gain(v); g > bestGain || (g == bestGain && g > 0 && (best == -1 || v < best)) {
						best, bestGain = v, g
					}
				}
			}
			if best == -1 || bestGain <= 0 {
				break
			}
			s := side[best]
			for _, n := range h.pins[h.xpins[best]:h.xpins[best+1]] {
				cnt[n][s]--
				cnt[n][1-s]++
			}
			w[s] -= h.vwgt[best]
			w[1-s] += h.vwgt[best]
			side[best] = 1 - s
			locked[best] = true
			improved = true
		}
		if !improved {
			break
		}
	}
}

// randomInstance draws a weighted hypergraph with 1- to 6-pin nets, a
// random side vector and a tight cap in [W/2 − wmax, W/2 + 2·wmax], so
// the band often blocks the best move and sometimes a whole side.
func randomInstance(seed uint64) (*Hypergraph, []uint8, int64, error) {
	rng := xrand.New(seed)
	nv := 2 + rng.Intn(200)
	spread := 1 + uint64(rng.Intn(12))
	vw := make([]int64, nv)
	for v := range vw {
		vw[v] = 1 + int64(rng.Uint64()%spread)
	}
	nets := rng.Intn(3 * nv)
	netPins := make([][]int32, 0, nets)
	nw := make([]int64, 0, nets)
	seen := make([]int, nv)
	for n := 1; n <= nets; n++ {
		k := 1 + rng.Intn(min(6, nv))
		pins := make([]int32, 0, k)
		for len(pins) < k {
			if v := rng.Intn(nv); seen[v] != n {
				seen[v] = n
				pins = append(pins, int32(v))
			}
		}
		netPins = append(netPins, pins)
		nw = append(nw, 1+int64(rng.Intn(9)))
	}
	h, err := FromNets(nv, vw, netPins, nw)
	if err != nil {
		return nil, nil, 0, err
	}
	side := make([]uint8, nv)
	for v := range side {
		side[v] = uint8(rng.Intn(2))
	}
	hiCap := h.total/2 - h.wmax + int64(rng.Intn(int(3*h.wmax)+1))
	return h, side, hiCap, nil
}

// TestQuickRefineMatchesReference checks that the gain-maintained
// refine makes exactly the moves of the rescanning rule.
func TestQuickRefineMatchesReference(t *testing.T) {
	f := func(seed uint64) bool {
		h, side, hiCap, err := randomInstance(seed)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want := append([]uint8(nil), side...)
		refineReference(h, want, hiCap)
		refine(h, side, hiCap, newFMScratch(h.NumVertices(), h.NumNets()))
		for v := range side {
			if side[v] != want[v] {
				t.Logf("seed %d: vertex %d on side %d, reference %d", seed, v, side[v], want[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
