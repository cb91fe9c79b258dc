package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// origin is the harness's monotonic time base: every timestamp the
// benchmark records is nanoseconds since one process-wide origin, so
// stamps taken on different goroutines (and the lifecycle tracer's
// stamps, once aligned) compare directly.
var origin = time.Now()

func now() int64 { return int64(time.Since(origin)) }

// procSample is one reading of the process-wide costs a window divides
// by its op count (CPU time, heap allocations, GC cycles) and of the
// host's CPU accounting.
type procSample struct {
	at         int64 // harness clock, ns
	cpuNS      int64 // user+sys, all threads (getrusage)
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
	host       stealMeter
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

// sampleProc reads the process counters without stopping the world.
// Tiny allocations are added back so counts match testing's allocs/op.
func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	metrics.Read(rtSamples)
	return procSample{
		at:         now(),
		cpuNS:      ru.Utime.Nano() + ru.Stime.Nano(),
		allocs:     rtSamples[0].Value.Uint64() + rtSamples[1].Value.Uint64(),
		allocBytes: rtSamples[2].Value.Uint64(),
		gcCycles:   rtSamples[3].Value.Uint64(),
		host:       startSteal(),
	}
}

// minWindowSamples is the least number of latency samples a window
// needs for its own p99 to have ten samples beyond it.
const minWindowSamples = 1000

// reservoirCap bounds the latency samples a window keeps. Past it the
// window keeps a uniform random sample (reservoir sampling), so the
// harness's own heap is the same size whatever the op rate, and the
// program's garbage collector sees the same heap on every run.
const reservoirCap = 8192

// window is the work and cost of one slice of the measured phase.
type window struct {
	ops, bytes int64
	from, to   procSample
	lat        []int64 // latency sample, ns
}

func (w window) seconds() float64 { return float64(w.to.at-w.from.at) / 1e9 }

// steal is the host's steal share during the window, -1 when unknown.
func (w window) steal() float64 { return w.from.host.shareUntil(w.to.host) }

// recorder collects the closed loop's completed ops. One goroutine owns
// it (the one that observes completions). It splits the measured phase
// into fixed windows and reports every rate and per-op cost as a
// median over the windows in which the host stole (next to) no CPU: on
// a shared machine a neighbour's burst takes both the CPU and the
// caches, and the op rate of a 2-vCPU guest falls by more than the
// stolen share.
type recorder struct {
	winNS    int64
	deadline int64

	ops      int64
	failed   int64
	bytes    int64
	windows  []window
	cur      window
	spare    [][]int64 // preallocated sample buffers for the next windows
	rng      uint64
	firstErr error

	tl *traceLog // non-nil in the traced phase
}

// newRecorder cuts a phase of seconds into nWindows windows and
// allocates every sample buffer up front, so recording allocates
// nothing.
func newRecorder(seconds float64, nWindows int) *recorder {
	r := &recorder{winNS: int64(seconds * 1e9 / float64(nWindows)), rng: 0x9e3779b97f4a7c15}
	block := make([]int64, (nWindows+1)*reservoirCap)
	for i := 0; i <= nWindows; i++ {
		r.spare = append(r.spare, block[i*reservoirCap:i*reservoirCap:(i+1)*reservoirCap])
	}
	r.windows = make([]window, 0, nWindows+1)
	return r
}

// start opens the first window; the phase ends seconds later.
func (r *recorder) start(seconds float64) {
	s := sampleProc()
	r.deadline = s.at + int64(seconds*1e9)
	r.open(s)
}

func (r *recorder) open(from procSample) {
	r.cur = window{from: from}
	if n := len(r.spare); n > 0 {
		r.cur.lat, r.spare = r.spare[n-1], r.spare[:n-1]
	}
}

// done reports whether the measured phase is over.
func (r *recorder) done(t int64) bool { return t >= r.deadline }

// op records one completed op that took lat ns and moved bytes of
// verified payload; ok false counts it as failed.
func (r *recorder) op(end, lat int64, bytes int, ok bool) {
	r.ops++
	if ok {
		r.cur.ops++
		r.cur.bytes += int64(bytes)
		r.bytes += int64(bytes)
		if len(r.cur.lat) < cap(r.cur.lat) {
			r.cur.lat = append(r.cur.lat, lat)
		} else if cap(r.cur.lat) > 0 {
			r.rng ^= r.rng << 13 // xorshift64
			r.rng ^= r.rng >> 7
			r.rng ^= r.rng << 17
			if j := r.rng % uint64(r.cur.ops); j < uint64(len(r.cur.lat)) {
				r.cur.lat[j] = lat
			}
		}
	} else {
		r.failed++
	}
	if r.tl != nil && r.ops%drainEvery == 0 {
		r.tl.drain()
	}
	if end-r.cur.from.at >= r.winNS {
		r.closeWindow()
	}
}

// fail records an error that ended the loop.
func (r *recorder) fail(err error) {
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.ops++
	r.failed++
}

func (r *recorder) closeWindow() {
	r.cur.to = sampleProc()
	r.windows = append(r.windows, r.cur)
	r.open(r.cur.to)
}

// finish ends the phase. A trailing partial window is dropped, unless
// it is the only one.
func (r *recorder) finish() {
	if len(r.windows) == 0 && r.cur.ops > 0 {
		r.closeWindow()
	}
}

// quietSteal is the host steal share up to which a window counts as
// undisturbed: two 10 ms ticks of a 0.5 s window on two CPUs.
const quietSteal = 0.02

// quiet returns the windows with ops that the host left undisturbed
// (steal share at most quietSteal, or unknown). Where those are fewer
// than half, it returns the less disturbed half instead: the windows
// whose steal share is at most the median window's.
func (r *recorder) quiet() []window {
	var all, calm []window
	var steal []float64
	for _, w := range r.windows {
		if w.ops == 0 {
			continue
		}
		all = append(all, w)
		steal = append(steal, w.steal())
		if w.steal() <= quietSteal {
			calm = append(calm, w)
		}
	}
	if 2*len(calm) >= len(all) {
		return calm
	}
	limit := median(steal)
	calm = calm[:0]
	for _, w := range all {
		if w.steal() <= limit {
			calm = append(calm, w)
		}
	}
	return calm
}

// perWindow returns f evaluated on every quiet window.
func (r *recorder) perWindow(f func(w window) float64) []float64 {
	var out []float64
	for _, w := range r.quiet() {
		out = append(out, f(w))
	}
	return out
}

// summary is the end-to-end reading of one measured phase.
type summary struct {
	opsPerS     float64
	goodputMBps float64
	latP50us    float64
	latP95us    float64
	latP99us    float64 // reported, not gated: see README
	cpuUSPerOp  float64
	allocsPerOp float64
	allocBPerOp float64
	latSamples  int  // samples the percentiles were taken from
	latWindowed bool // percentiles are medians of per-window percentiles
	windows     int  // windows measured
	quiet       int  // windows the medians are taken over
	gcCycles    uint64
	elapsedS    float64
	totalOps    int64
}

func (r *recorder) summarize() summary {
	s := summary{windows: len(r.windows), quiet: len(r.quiet()), totalOps: r.ops - r.failed}
	s.opsPerS = median(r.perWindow(func(w window) float64 { return float64(w.ops) / w.seconds() }))
	// Goodput is the op rate times the phase's mean payload per op: a
	// window holds too few ops for its own size mix to be representative.
	s.goodputMBps = s.opsPerS * ratio(float64(r.bytes), float64(s.totalOps)) / 1e6
	s.cpuUSPerOp = median(r.perWindow(func(w window) float64 { return float64(w.to.cpuNS-w.from.cpuNS) / 1e3 / float64(w.ops) }))
	s.allocsPerOp = median(r.perWindow(func(w window) float64 { return float64(w.to.allocs-w.from.allocs) / float64(w.ops) }))
	s.allocBPerOp = median(r.perWindow(func(w window) float64 { return float64(w.to.allocBytes-w.from.allocBytes) / float64(w.ops) }))

	// Percentiles are medians over windows when every window's p99 has
	// at least ten samples beyond it; otherwise they pool the samples of
	// the whole phase.
	var pooled []int64
	quiet := r.quiet()
	s.latWindowed = len(quiet) > 0
	for _, w := range quiet {
		s.latWindowed = s.latWindowed && w.ops >= minWindowSamples
		pooled = append(pooled, w.lat...)
	}
	if s.latWindowed {
		pct := func(q float64) float64 {
			return median(r.perWindow(func(w window) float64 { return quantile(w.lat, q) / 1e3 }))
		}
		s.latP50us, s.latP95us, s.latP99us = pct(0.50), pct(0.95), pct(0.99)
	} else {
		s.latP50us, s.latP95us, s.latP99us = quantile(pooled, 0.50)/1e3, quantile(pooled, 0.95)/1e3, quantile(pooled, 0.99)/1e3
	}
	s.latSamples = len(pooled)

	if n := len(r.windows); n > 0 {
		first, last := r.windows[0].from, r.windows[n-1].to
		s.gcCycles = last.gcCycles - first.gcCycles
		s.elapsedS = float64(last.at-first.at) / 1e9
	}
	return s
}

// quantile returns the q-quantile of xs, interpolating linearly
// between order statistics; it sorts xs in place.
func quantile[T int64 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	hi := min(lo+1, len(xs)-1)
	return float64(xs[lo]) + (float64(xs[hi])-float64(xs[lo]))*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(slices.Clone(xs), 0.5) }

// ---------------------------------------------------------------------------
// Environment.

// env records what the numbers were measured on, so a run on another
// machine, or one hit by a noisy neighbour, is recognisable.
type env struct {
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	StealShare float64 `json:"steal_share"` // host steal / all CPU time during the measured phase; -1 when /proc/stat is absent
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTimes reads the aggregate "cpu" line of /proc/stat: total jiffies
// and the steal column. ok is false where the file does not exist.
func cpuTimes() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter is one reading of the host's CPU accounting.
type stealMeter struct {
	total, steal uint64
	ok           bool
}

func startSteal() stealMeter {
	t, s, ok := cpuTimes()
	return stealMeter{t, s, ok}
}

// share is the steal share of all CPU time since m.
func (m stealMeter) share() float64 { return m.shareUntil(startSteal()) }

// shareUntil is the steal share of all CPU time from m to end, -1 when
// either reading is missing.
func (m stealMeter) shareUntil(end stealMeter) float64 {
	if !m.ok || !end.ok || end.total <= m.total {
		return -1
	}
	return float64(end.steal-m.steal) / float64(end.total-m.total)
}

func currentEnv(steal float64) env {
	return env{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StealShare: steal,
	}
}
