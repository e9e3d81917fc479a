package main

import (
	"net/http"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// procStats is a snapshot of the whole process's allocation and CPU
// counters; the difference of two snapshots covers one phase. cpuNs is
// the user and system time the kernel charged to the process, in
// scheduler ticks, so it is exact only over many of them; a stretch in
// which the host does not run the VM's virtual CPUs lengthens wall time
// far more than it. gcCPU and totalCPU are the Go runtime's own
// estimates, which count every P as running all the time.
type procStats struct {
	allocBytes, mallocs uint64
	cpuNs               int64
	gcCPU, totalCPU     float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), cpuSamples...)
	metrics.Read(s)
	return procStats{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, cpuNs: processCPUNs(),
		gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64()}
}

// processCPUNs is the CPU time, user and system, of every thread of the
// process so far.
func processCPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// cpuPerOp is the process CPU time in microseconds per operation
// between two snapshots.
func (a procStats) cpuPerOp(b procStats, ops int) float64 {
	if ops <= 0 {
		return 0
	}
	return us(float64(b.cpuNs-a.cpuNs) / float64(ops))
}

func (a procStats) gcShare(b procStats) float64 {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		return (b.gcCPU - a.gcCPU) / d
	}
	return 0
}

// slowdown deliberately stretches one layer by factor by busy-waiting
// after each call for (factor−1) × the call's own duration. It exists
// so the benchmark's tests can show that a slower layer is flagged as a
// regression on the workloads that use it and on no other. A factor of
// 1 runs the same wrapper without stretching, so both sides of the
// comparison take the same path.
type slowdown struct {
	layer  string // "handler" or "bisector"
	factor float64
}

func (s slowdown) on(layer string) bool { return s.layer == layer }

// stretch spins until (factor−1) × elapsed more has passed since start.
func (s slowdown) stretch(start time.Time) {
	d := time.Since(start)
	until := time.Now().Add(time.Duration((s.factor - 1) * float64(d)))
	for time.Now().Before(until) {
	}
}

// wrap applies the handler slowdown to the served handler.
func (s slowdown) wrap(h http.Handler) http.Handler {
	if !s.on("handler") {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		s.stretch(start)
	})
}
