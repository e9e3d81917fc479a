package graph

import (
	"hash/fnv"
	"math"
	"testing"

	"bisectlb/internal/xrand"
)

// hubGrid builds a unit-weight rows×cols mesh plus `hubs` heavy vertices,
// each tied by heavy nets to spokes seeded mesh vertices. With a tight
// cap the hubs top the gain order yet usually cannot cross without
// breaking the band, so refinement must pass over them and come back.
func hubGrid(rows, cols, hubs, spokes int, hubWeight int64, seed uint64) (*Hypergraph, error) {
	nv := rows*cols + hubs
	vw := make([]int64, nv)
	for i := range vw {
		vw[i] = 1
	}
	var netPins [][]int32
	var nw []int64
	at := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				netPins = append(netPins, []int32{at(r, c), at(r, c+1)})
				nw = append(nw, 1)
			}
			if r+1 < rows {
				netPins = append(netPins, []int32{at(r, c), at(r+1, c)})
				nw = append(nw, 1)
			}
		}
	}
	rng := xrand.New(xrand.Mix(seed, 0x4B5))
	for k := 0; k < hubs; k++ {
		hub := int32(rows*cols + k)
		vw[hub] = hubWeight
		for s := 0; s < spokes; s++ {
			netPins = append(netPins, []int32{hub, int32(rng.Intn(rows * cols))})
			nw = append(nw, 7)
		}
	}
	return FromNets(nv, vw, netPins, nw)
}

// TestGoldenBisectSides pins the FNV-64 digest of bisectSides on
// instances large enough to coarsen through several levels, so a change
// to a single refinement move, to coarsening or to contraction shows up.
// The digests are those of the rescanning refinement rule that
// refineReference keeps.
func TestGoldenBisectSides(t *testing.T) {
	epsCap := func(h *Hypergraph) int64 {
		return int64(math.Floor((1 + DefaultEps) * float64(h.total) / 2))
	}
	tightCap := func(h *Hypergraph) int64 { return h.total/2 + h.wmax }
	cases := []struct {
		name  string
		build func() (*Hypergraph, error)
		cap   func(*Hypergraph) int64
		seed  uint64
		want  uint64
	}{
		{"grid64", func() (*Hypergraph, error) { return GridGraph(64, 64, 4, 7) }, epsCap, 11, 0x09b0e970b2c4c086},
		{"ring2048", func() (*Hypergraph, error) { return RingGraph(2048, 256, 4, 8) }, epsCap, 12, 0xc0352e21bc45a86f},
		{"hgr3000", func() (*Hypergraph, error) { return RandomHypergraph(3000, 2200, 6, 4, 9) }, epsCap, 13, 0x52c1d25db231dcd8},
		{"hubgrid", func() (*Hypergraph, error) { return hubGrid(40, 40, 24, 30, 40, 10) }, tightCap, 14, 0xc8c1fd9ec691de9c},
		{"onepin", func() (*Hypergraph, error) {
			// Chains of 2-pin nets interleaved with 1-pin nets on every vertex.
			const nv = 1500
			var netPins [][]int32
			var nw []int64
			for v := int32(0); v < nv; v++ {
				netPins = append(netPins, []int32{v})
				nw = append(nw, 3)
				if v+1 < nv {
					netPins = append(netPins, []int32{v, v + 1})
					nw = append(nw, 1+int64(v%5))
				}
				if v+37 < nv && v%3 == 0 {
					netPins = append(netPins, []int32{v, v + 37, (v*11 + 5) % nv})
					nw = append(nw, 2)
				}
			}
			return FromNets(nv, genWeights(nv, 3, 15), netPins, nw)
		}, epsCap, 15, 0xf49b029849047a8a},
	}
	for _, tc := range cases {
		h, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		side := bisectSides(h, tc.cap(h), tc.seed)
		f := fnv.New64a()
		f.Write(side)
		t.Logf("%s: nv=%d cut=%d digest=%#x", tc.name, h.NumVertices(), CutWeight(h, side), f.Sum64())
		if got := f.Sum64(); got != tc.want {
			t.Errorf("%s: digest %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
