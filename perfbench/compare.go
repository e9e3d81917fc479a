package main

import "sort"

// regressed applies the benchmark's comparison rule to one end-to-end
// metric of one workload: the change regresses when its median over runs
// is worse than the parent's median by more than bound, a share of the
// parent's median.
func regressed(parent, change []float64, better string, bound float64) bool {
	p, c := median(parent), median(change)
	if better == "higher" {
		return c < p*(1-bound)
	}
	return c > p*(1+bound)
}

// worseInPairs applies the paired rule for a small, shared machine to
// alternating runs: parent[i] and change[i] ran back to back on the same
// inputs. The change is worse when it loses at least nine tenths of the
// pairs (ties count for neither side) and its median is worse than the
// parent's by more than the spread between the parent's own runs, Q3 − Q1.
func worseInPairs(parent, change []float64, better string) bool {
	lost := 0
	for i := range parent {
		if (better == "higher" && change[i] < parent[i]) || (better == "lower" && change[i] > parent[i]) {
			lost++
		}
	}
	q1, q3 := quartiles(parent)
	gap := median(change) - median(parent)
	if better == "higher" {
		gap = -gap
	}
	return 10*lost >= 9*len(parent) && gap > q3-q1
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(v, n=4)
// computes them (the exclusive method). v needs at least two values.
func quartiles(v []float64) (float64, float64) {
	d := append([]float64(nil), v...)
	sort.Float64s(d)
	q := func(i int) float64 {
		m := len(d) + 1
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}
