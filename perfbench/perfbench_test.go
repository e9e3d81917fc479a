package main

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// manifest is the part of BENCHMARK.json the benchmark itself depends on.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMetricTablesMatchManifest(t *testing.T) {
	m := loadManifest(t)
	var e2e []metricDef
	for _, d := range m.EndToEnd {
		e2e = append(e2e, d.metricDef)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, benchmark reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json = %v, benchmark reports %v", m.PerLayer, perLayer)
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, benchmark has %d", len(m.Workloads), len(workloads))
	}
	for _, w := range m.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}

func TestRegressedRule(t *testing.T) {
	base := []float64{100, 101, 99}
	if regressed(base, []float64{105, 104, 106}, "lower", 0.1) {
		t.Error("a 5% rise flagged under a 10% bound")
	}
	if !regressed(base, []float64{115, 114, 116}, "lower", 0.1) {
		t.Error("a 15% rise not flagged under a 10% bound")
	}
	if !regressed(base, []float64{85, 86, 84}, "higher", 0.1) {
		t.Error("a 15% drop of a higher-is-better metric not flagged")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

func TestWorseInPairsRule(t *testing.T) {
	parent := []float64{100, 110, 90, 105, 95, 100, 108, 92, 101, 99}
	slower := make([]float64, len(parent))
	mixed := make([]float64, len(parent))
	for i, v := range parent {
		slower[i] = v * 1.15
		mixed[i] = v * (1 + 0.15*float64(i%2*2-1))
	}
	if !worseInPairs(parent, slower, "lower") {
		t.Error("a change 15% slower in every pair is not flagged")
	}
	if worseInPairs(parent, mixed, "lower") {
		t.Error("a change that loses half the pairs is flagged")
	}
	if worseInPairs(parent, parent, "higher") {
		t.Error("identical runs are flagged")
	}
}

// measure runs one workload in-process and returns its end-to-end
// metrics.
func measure(t *testing.T, workload string, seed uint64, seconds float64, slow slowdown) map[string]float64 {
	t.Helper()
	r := &run{workload: workload, seed: seed, seconds: seconds, slow: slow,
		log: bufio.NewWriter(io.Discard), metrics: map[string]value{}}
	if err := execute(r, workloads[workload]); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if f := r.failed.Load(); f != 0 {
		t.Fatalf("%s: %d failed operations", workload, f)
	}
	out := map[string]float64{}
	for name, v := range r.metrics {
		out[name] = v.v
	}
	return out
}

// TestSlowLayerIsFlagged proves the comparison can fail: a layer
// slowed 1.5× must be flagged as a regression on the workload that runs
// through it, and nothing may be flagged on a workload that never calls
// it. Parent and change run in alternating pairs on the same seed, the
// parent through the same wrapper at factor 1, so drift in the
// machine's speed falls on both sides.
//
// Two rules are applied to each end-to-end metric. On the affected
// workload both the paired rule (worseInPairs) and the bound rule
// (regressed, with the bounds of BENCHMARK.json) must flag it; on the
// bypassed one both must stay silent. The stretch busy-waits, so it
// costs CPU time as a slower layer would: a 1.5× handler raises
// serve-hit's cpu_us_per_op by about a third, a 1.5× bisector
// plan-real's by about a half.
func TestSlowLayerIsFlagged(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark for about ten minutes")
	}
	m := loadManifest(t)
	cases := []struct {
		layer              string
		affected, bypassed string
	}{
		{"handler", "serve-hit", "plan-real"},
		{"bisector", "plan-real", "serve-hit"},
	}
	const pairs, seconds = 10, 5.0
	for _, c := range cases {
		base := slowdown{layer: c.layer, factor: 1}
		slow := slowdown{layer: c.layer, factor: 1.5}
		for _, wl := range []string{c.affected, c.bypassed} {
			parent, change := map[string][]float64{}, map[string][]float64{}
			for i := 0; i < pairs; i++ {
				seed := uint64(100 + i)
				sides := []struct {
					s   slowdown
					out map[string][]float64
				}{{base, parent}, {slow, change}}
				if i%2 == 1 {
					sides[0], sides[1] = sides[1], sides[0]
				}
				for _, side := range sides {
					for name, v := range measure(t, wl, seed, seconds, side.s) {
						side.out[name] = append(side.out[name], v)
					}
				}
			}
			var byPairs, byBound []string
			for _, d := range m.EndToEnd {
				if d.Name == "setup_s" || d.Name == "peak_rss_mb" {
					continue // neither runs through a slowed layer
				}
				before, after := median(parent[d.Name]), median(change[d.Name])
				t.Logf("%s slowed, %s: %s %.4g → %.4g (%+.1f%%, bound %.0f%%)",
					c.layer, wl, d.Name, before, after, 100*(after/before-1), 100*d.Bound)
				if worseInPairs(parent[d.Name], change[d.Name], d.Better) {
					byPairs = append(byPairs, d.Name)
				}
				if regressed(parent[d.Name], change[d.Name], d.Better, d.Bound) {
					byBound = append(byBound, d.Name)
				}
			}
			t.Logf("%s slowed 1.5×, %s: flagged by pairs %v, by bound %v", c.layer, wl, byPairs, byBound)
			switch {
			case wl == c.affected && len(byPairs) == 0:
				t.Errorf("%s slowed 1.5× is not flagged on %s by the paired rule", c.layer, wl)
			case wl == c.affected && len(byBound) == 0:
				t.Errorf("%s slowed 1.5× is not flagged on %s by the bound rule", c.layer, wl)
			case wl == c.bypassed && len(byPairs)+len(byBound) != 0:
				t.Errorf("%s slowed 1.5× is flagged on %s, which never calls it: pairs %v, bound %v", c.layer, wl, byPairs, byBound)
			}
		}
	}
}
