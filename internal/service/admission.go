package service

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bisectlb/internal/obs"
)

// admission is the SLO-driven overload controller. It watches the p99
// of admitted-request latency over a sliding window (obs.Window over
// the service.admitted_latency_ns histogram) and, when the windowed
// p99 breaches Config.TargetP99 × Config.SLOTolerance, sheds a
// fraction of the compute path probabilistically with 429 + a
// Retry-After hint — the same contract the planners give for balance
// (stay inside a declared tolerance of the target), applied to the
// service's own latency.
//
// The control law is AIMD, the stable direction for admission: a
// breach multiplies the admit fraction down (fast reaction — an
// overloaded queue compounds quadratically under open-loop traffic),
// a clear window adds a fixed step back (slow, probing recovery that
// cannot oscillate straight back into overload). The fraction is
// clamped to a floor so a stuck-slow backend still admits canaries
// whose latency can prove recovery.
//
// Ticks are lazy: the first request to arrive after a tick interval
// elapses runs the control step. An idle server therefore stops
// ticking, which is correct — with no admitted traffic there is no
// evidence to steer on, and the fraction holds until traffic returns.
type admission struct {
	breach   int64 // ns; windowed p99 above this is a breach
	interval int64 // ns between control steps
	minCount int64 // windowed observations required before steering
	win      *obs.Window
	reg      *obs.Registry

	lastTick atomic.Int64  // unix nanos of the last control step
	admitF   atomic.Uint64 // math.Float64bits of the admit fraction
	rngState atomic.Uint64 // splitmix64 state for shed draws
	tickMu   sync.Mutex    // serialises control-step bodies

	winLen int64 // ns the sliding window spans (epochs × tick)
	lastMD int64 // unix nanos of the last multiplicative decrease; tickMu-guarded
}

// Control-law constants. The multiplicative factor and additive step
// give a sawtooth of ~3 ticks down from full admission to half and
// ~10 ticks back — fast enough to catch an overload inside one window,
// slow enough that recovery probes rather than slams.
const (
	admitBackoff   = 0.7  // multiplicative decrease on breach
	admitRecover   = 0.05 // additive increase per clear tick
	admitFloor     = 0.05 // always admit at least this fraction
	admitMinWindow = 16   // windowed samples needed before steering
)

// newAdmission builds the controller, or returns nil (a nil controller
// admits everything) when no target is configured. h must be the
// histogram the server records admitted-request latency into; the other
// parameters arrive defaulted by Config.withDefaults.
func newAdmission(target time.Duration, tolerance float64, tick time.Duration, epochs int, h *obs.Histogram, reg *obs.Registry) *admission {
	if target <= 0 {
		return nil
	}
	a := &admission{
		// The windowed p99 is reported as a power-of-two bucket upper
		// bound, so the breach threshold must be quantized onto a bucket
		// bound too: a raw threshold strictly between bounds would be
		// breached by every p99 in its bucket — including ones below the
		// target — and pin the controller at the floor. The effective
		// target is therefore target×tolerance rounded up to the next
		// power of two; a breach then proves the p99 really exceeds it.
		breach:   obs.QuantizeUp(int64(float64(target) * tolerance)),
		interval: int64(tick),
		minCount: admitMinWindow,
		win:      obs.NewWindow(h, epochs),
		winLen:   int64(epochs) * int64(tick),
		reg:      reg,
	}
	a.admitF.Store(math.Float64bits(1))
	a.rngState.Store(uint64(target) | 1)
	reg.Gauge(mSLOAdmitPermille).Set(1000)
	return a
}

// admitFrac returns the current admit fraction in [admitFloor, 1].
func (a *admission) admitFrac() float64 {
	if a == nil {
		return 1
	}
	return math.Float64frombits(a.admitF.Load())
}

// allow reports whether a compute-path request is admitted, advancing
// the control loop first if a tick interval has elapsed. Cache hits
// bypass the controller entirely — they consume no worker and their
// sub-window latency would only dilute the signal.
func (a *admission) allow(now time.Time) bool {
	if a == nil {
		return true
	}
	a.maybeTick(now)
	f := math.Float64frombits(a.admitF.Load())
	if f >= 1 {
		return true
	}
	return a.rand01() < f
}

// maybeTick runs the control step when the interval has elapsed. The
// CAS elects one winner per interval; losers proceed with the current
// fraction.
func (a *admission) maybeTick(now time.Time) {
	nowNs := now.UnixNano()
	last := a.lastTick.Load()
	if nowNs-last < a.interval {
		return
	}
	if !a.lastTick.CompareAndSwap(last, nowNs) {
		return
	}
	a.tick()
}

// tick is one control step: rotate the window, read the windowed p99,
// and steer the admit fraction. Exposed (unexported) for tests to
// drive the loop deterministically.
//
// The multiplicative decrease is rate-limited to once per window span:
// breach samples stay in the sliding window for up to winLen after a
// backoff, so every tick until they age out still reports a breach —
// but that is the same evidence that already triggered the decrease,
// not proof it was insufficient. Stacking a decrease per tick on stale
// samples drives the fraction to the floor and idles the workers while
// the queue is already drained (the same reason TCP halves its window
// once per RTT, not once per duplicate ACK). Between decreases a
// breaching window holds the fraction; only a window that turned over
// clean recovers it.
func (a *admission) tick() {
	a.tickMu.Lock()
	defer a.tickMu.Unlock()
	a.win.Tick()
	p99 := a.win.Quantile(0.99)
	n := a.win.Count()
	a.reg.Gauge(mSLOWindowP99).Set(p99)
	f := math.Float64frombits(a.admitF.Load())
	switch {
	case n >= a.minCount && p99 > a.breach:
		if now := time.Now().UnixNano(); now-a.lastMD >= a.winLen {
			a.lastMD = now
			f *= admitBackoff
			if f < admitFloor {
				f = admitFloor
			}
		}
	default:
		// Too little evidence, or the window is inside the SLO: probe
		// back toward full admission.
		f += admitRecover
		if f > 1 {
			f = 1
		}
	}
	a.admitF.Store(math.Float64bits(f))
	a.reg.Gauge(mSLOAdmitPermille).Set(int64(f * 1000))
}

// rand01 draws a uniform float64 in [0, 1) from a lock-free splitmix64
// stream — cheap enough for the per-request shed decision and
// dependency-free like the rest of the hot path.
func (a *admission) rand01() float64 {
	for {
		old := a.rngState.Load()
		next := old + 0x9e3779b97f4a7c15
		if a.rngState.CompareAndSwap(old, next) {
			z := next
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			z ^= z >> 31
			return float64(z>>11) / float64(1<<53)
		}
	}
}

// retryAfterSecs derives the Retry-After hint for a 429: one second
// baseline, plus the shed state (a harder shed means the breach is
// deeper, so back off longer), plus the queue backlog measured in
// worker-turns. Clamped to [1, 30] so a transient spike never tells
// clients to vanish for minutes.
func retryAfterSecs(admitFrac float64, queued, workers int) int {
	if workers < 1 {
		workers = 1
	}
	secs := 1 + int(3*(1-admitFrac)) + queued/(workers*4)
	if secs > 30 {
		secs = 30
	}
	if secs < 1 {
		secs = 1
	}
	return secs
}
