package graph

import (
	"math"
	"testing"
)

// sideSink keeps the benchmarked bisections from being optimised away.
var sideSink []uint8

// BenchmarkBisectSides times one root bisection of each graph shape of
// the perfbench plan-real roster at the default balance slack.
func BenchmarkBisectSides(b *testing.B) {
	shapes := []struct {
		name  string
		build func() (*Hypergraph, error)
	}{
		{"grid128", func() (*Hypergraph, error) { return GridGraph(128, 128, 4, 1) }},
		{"ring4096", func() (*Hypergraph, error) { return RingGraph(4096, 512, 4, 2) }},
		{"hgr5000", func() (*Hypergraph, error) { return RandomHypergraph(5000, 3750, 6, 4, 3) }},
	}
	for _, s := range shapes {
		h, err := s.build()
		if err != nil {
			b.Fatal(err)
		}
		hiCap := int64(math.Floor((1 + DefaultEps) * float64(h.total) / 2))
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sideSink = bisectSides(h, hiCap, 1)
			}
		})
	}
}
