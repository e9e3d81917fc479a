package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// samples collects raw durations; every percentile the benchmark reports
// is computed from these, never from a bucketed histogram.
type samples struct {
	mu sync.Mutex
	ns []int64
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ns = append(s.ns, int64(d))
	s.mu.Unlock()
}

func (s *samples) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ns)
}

// quantile returns the nearest-rank q-quantile in nanoseconds (0 when
// empty).
func (s *samples) quantile(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantileNs(s.ns, q)
}

func quantileNs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	c := append([]int64(nil), ns...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	rank := int(math.Ceil(q*float64(len(c)))) - 1
	if rank < 0 {
		rank = 0
	}
	return float64(c[rank])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}

func us(ns float64) float64 { return ns / 1e3 }

// windowed counts a phase's events in consecutive time windows and
// reports the median over windows of the event rate, so a burst of
// interference from outside the benchmark moves one window, not the
// result.
type windowed struct {
	start  time.Time
	width  time.Duration
	mu     sync.Mutex
	counts []int
}

func newWindowed(start time.Time, width time.Duration) *windowed {
	return &windowed{start: start, width: width}
}

// add counts one event at instant at.
func (w *windowed) add(at time.Time) {
	i := int(at.Sub(w.start) / w.width)
	w.mu.Lock()
	for len(w.counts) <= i {
		w.counts = append(w.counts, 0)
	}
	w.counts[i]++
	w.mu.Unlock()
}

// count is the number of events over all windows.
func (w *windowed) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := 0
	for _, c := range w.counts {
		n += c
	}
	return n
}

// rate is the median events per second over the windows that closed
// before end, or the plain rate when the phase was shorter than one
// window.
func (w *windowed) rate(end time.Time) float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var per []float64
	total := 0
	for i, c := range w.counts {
		total += c
		if w.start.Add(time.Duration(i+1) * w.width).After(end) {
			continue
		}
		per = append(per, float64(c)/w.width.Seconds())
	}
	if len(per) == 0 {
		return float64(total) / end.Sub(w.start).Seconds()
	}
	return median(per)
}
