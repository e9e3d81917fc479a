// Command perfbench is the repository benchmark: it drives lbserve over
// loopback HTTP and the bisectlb planning facade on seed-generated
// workloads, checks every output, and prints end-to-end or per-layer
// metrics. Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 30 --trace 0
//
// Workloads: serve-hit, serve-miss, plan-real (see README.md). --trace 0
// prints the end-to-end metrics; --trace 1 runs the same phases plus the
// per-layer probes and prints the per-layer metrics. The last line of
// standard output is one JSON object; earlier lines are a human-readable
// table with each metric's sample count.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

// metricDef names one reported metric. The end-to-end and per-layer
// tables mirror BENCHMARK.json (checked by TestMetricTablesMatchManifest).
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricDef{
	{"cpu_us_per_op", "us", "lower"},
	{"ratio_mean", "ratio", "lower"},
	{"alloc_bytes_per_op", "B", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

var perLayer = []metricDef{
	{"throughput_rps", "1/s", "higher"},
	{"rtt_p50_us", "us", "lower"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"capacity_rps", "1/s", "higher"},
	{"rebalance_p50_us", "us", "lower"},
	{"rebalance_p99_us", "us", "lower"},
	{"plan_wall_s.graph", "s", "lower"},
	{"plan_wall_ms.spatial", "ms", "lower"},
	{"error_rate", "ratio", "lower"},
	{"service.handler_us", "us", "lower"},
	{"service.allocs_per_req", "count", "lower"},
	{"transport_us", "us", "lower"},
	{"codec.decode_us", "us", "lower"},
	{"codec.encode_us", "us", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.compute_mean_us", "us", "lower"},
	{"service.noncompute_mean_us", "us", "lower"},
	{"service.plans_computed_per_miss", "count", "lower"},
	{"service.singleflight_coalesced", "count", "lower"},
	{"service.planner_pool.drops", "count", "lower"},
	{"service.rejected", "count", "lower"},
	{"service.rebalance.patch_mean_us", "us", "lower"},
	{"service.rebalance.patched_share", "ratio", "higher"},
	{"core.plan_us.flat", "us", "lower"},
	{"core.plan_us.interface", "us", "lower"},
	{"core.patch_us", "us", "lower"},
	{"spec.build_us", "us", "lower"},
	{"graph.bisect_s", "s", "lower"},
	{"graph.bisections", "count", "lower"},
	{"graph.alloc_mb_per_plan", "MB", "lower"},
	{"core.planner_self_ms", "ms", "lower"},
	{"spatial.bisect_ms", "ms", "lower"},
	{"bisect.alpha_min.graph", "ratio", "higher"},
	{"bisect.alpha_min.spatial", "ratio", "higher"},
	{"plan_ms.grid128", "ms", "lower"},
	{"plan_ms.ring4096", "ms", "lower"},
	{"plan_ms.hgr5000", "ms", "lower"},
	{"plan_ms.blob2048", "ms", "lower"},
	{"plan_ms.ridge1024", "ms", "lower"},
	{"gc.cpu_share", "ratio", "lower"},
	{"gen.late_p99_us", "us", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

var workloads = map[string]func(*run) error{
	"serve-hit":  runServeHit,
	"serve-miss": runServeMiss,
	"plan-real":  runPlanReal,
}

// value is one measured metric with the number of samples behind it.
type value struct {
	v float64
	n int
}

// run is one benchmark invocation: its parameters, the operation
// counters behind error_rate, and the metrics measured so far.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	slow     slowdown
	log      *bufio.Writer

	attempted, failed atomic.Int64
	metrics           map[string]value
}

func (r *run) set(name string, v float64, n int) { r.metrics[name] = value{v, n} }

// phase returns the share frac of the run's measuring time.
func (r *run) phase(frac float64) time.Duration {
	return time.Duration(frac * r.seconds * float64(time.Second))
}

// Shares of the measuring time. An untraced run spends it all on the
// closed loop whose figures it prints; a traced run splits it between
// that loop, the open loop, the timed loop, the capacity ladder and the
// layer probes, so both kinds of run take about --seconds.
func (r *run) closedShare() float64 { return r.pick(1, 0.1) }

const openShare = 0.5 // traced runs only

func (r *run) pick(untraced, traced float64) float64 {
	if r.trace {
		return traced
	}
	return untraced
}

// fail counts one failed, refused or check-failing operation and logs
// the first few.
func (r *run) fail(format string, args ...any) {
	if n := r.failed.Add(1); n <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "serve-hit | serve-miss | plan-real")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 30, "measuring time of one run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload serve-hit|serve-miss|plan-real, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	r := &run{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		log: bufio.NewWriter(os.Stdout), metrics: map[string]value{}}
	if err := execute(r, fn); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := r.emit(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs one workload and adds the metrics common to all of them.
func execute(r *run, fn func(*run) error) error {
	fmt.Fprintf(r.log, "env: workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d nproc=%d go=%s cpu=%q\n",
		r.workload, r.seed, r.seconds, r.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpuModel())
	if err := fn(r); err != nil {
		return err
	}
	r.set("peak_rss_mb", peakRSSMB(), 1)
	if a := r.attempted.Load(); a > 0 {
		r.set("error_rate", float64(r.failed.Load())/float64(a), int(a))
	}
	return nil
}

// emit prints the human table and the final JSON line.
func (r *run) emit() error {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	type out struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]out `json:"metrics"`
	}{Attempted: r.attempted.Load(), Failed: r.failed.Load(), Metrics: map[string]out{}}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, d := range defs {
		m, ok := r.metrics[d.Name]
		if !ok && !r.trace {
			return fmt.Errorf("workload %s did not measure end-to-end metric %s", r.workload, d.Name)
		}
		// A layer the workload never exercises reports 0 over 0 samples.
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			return fmt.Errorf("metric %s is not finite", d.Name)
		}
		fmt.Fprintf(r.log, "metric: %-34s %16.6f %-6s samples=%d\n", d.Name, m.v, d.Unit, m.n)
		res.Metrics[d.Name] = out{m.v, d.Unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.log, "%s\n", b)
	return r.log.Flush()
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
