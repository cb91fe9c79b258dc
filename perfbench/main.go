// Command perfbench is the repository benchmark: three seeded
// closed-loop workloads over the public ncs API (rpc-udp, echo-hpi,
// stream-delay), each verified byte for byte, reported as end-to-end
// metrics or — with --trace 1 — broken down into per-layer metrics from
// the lifecycle tracer and the telemetry registry. README.md documents
// the workloads and what each metric should move.
//
//	bash perfbench/run.sh --workload echo-hpi --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// The line before it is a report with the environment, sample counts
// and the base of every ratio. A failed check exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ncs"
)

// setupRuns is how many times a run builds (and, but for the last,
// tears down) its workload; setup_s is their median. The first few
// dozen set-ups of a process run slower than the rest, so a median
// over few of them shifts with how long that warm-up lasts; 401 keep
// it well away from the median and cost under a second.
const setupRuns = 401

// windowSeconds is the length of the windows a measured phase is cut
// into: short enough to tell a burst of host steal time from a quiet
// stretch, long enough to hold over a thousand ops on the CPU-bound
// workloads.
const windowSeconds = 0.5

// watchdog bounds a whole run: a wedged connection fails the run
// instead of hanging it.
const watchdog = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the diagnostic line printed before the result.
type report struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Traced      bool               `json:"traced"`
	Env         env                `json:"env"`
	ErrorRate   float64            `json:"error_rate"`
	LatP99us    float64            `json:"lat_p99_us"`
	LatSamples  int                `json:"lat_samples"`
	LatWindowed bool               `json:"lat_windowed"`
	Windows     int                `json:"windows"`
	Quiet       int                `json:"quiet_windows"`
	SetupS      [3]float64         `json:"setup_s_quartiles"`
	Bases       map[string]float64 `json:"bases,omitempty"`
	Problems    []string           `json:"problems,omitempty"`
}

func main() {
	workload := flag.String("workload", "", "workload: rpc-udp, echo-hpi or stream-delay")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload rpc-udp|echo-hpi|stream-delay --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", *workload, watchdog)
		os.Exit(3)
	})

	res, rep := run(*workload, *seed, *seconds, *trace == 1, config{})
	enc := json.NewEncoder(os.Stdout)
	_ = enc.Encode(rep) // stdout write errors surface on the next line too
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		for _, p := range rep.Problems {
			fmt.Fprintln(os.Stderr, "perfbench:", p)
		}
		os.Exit(1)
	}
}

// phase is one measured stretch of a run.
type phase struct {
	sum         summary
	rec         *recorder
	delta       ncs.MetricsSnapshot
	goroutines  int
	outstanding int64
	spans       *spans
}

// run sets the workload up setupRuns times, warms it, measures it (two
// phases, untraced then traced, when traced is set), tears it down and
// checks that every goroutine and pooled buffer it took came back.
func run(name string, seed uint64, seconds float64, traced bool, cfg config) (result, report) {
	wl := workloads[name]
	pl := newPayloads(seed, wl.sizes)
	rep := report{Workload: name, Seed: seed, Traced: traced}
	res := result{Metrics: map[string]metric{}}
	problem := func(format string, a ...any) { rep.Problems = append(rep.Problems, fmt.Sprintf(format, a...)) }

	goroutines0 := runtime.NumGoroutine()
	outstanding0 := outstanding()

	// Each set-up but the last is torn down and settled before the next,
	// so no set-up competes with the previous one's teardown.
	var setups []float64
	var r rig
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		var err error
		r, err = wl.setup(seed, pl, cfg)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			problem("setup: %v", err)
			rep.Env = currentEnv(-1)
			return res, rep
		}
		if i < setupRuns-1 {
			r.close()
			if err := settle(goroutines0, outstanding0, settleWait); err != nil {
				problem("set-up %d: %v", i, err)
				rep.Env = currentEnv(-1)
				return res, rep
			}
		}
	}

	// Warm up: caches, pools and lazily built state fill before timing.
	warm := min(max(seconds/10, 0.2), 1.0)
	wrec := newRecorder(warm, 1)
	wrec.start(warm)
	r.loop(wrec)
	wrec.finish()

	steal := startSteal()
	var phases []phase
	if traced {
		half := seconds / 2
		phases = append(phases, measure(r, half, false), measure(r, half, true))
	} else {
		phases = append(phases, measure(r, seconds, false))
	}
	rep.Env = currentEnv(steal.share())

	r.close()
	if err := settle(goroutines0, outstanding0, settleWait); err != nil {
		problem("%v", err)
	}

	res.Attempted, res.Failed = wrec.ops, wrec.failed
	if wrec.firstErr != nil {
		problem("warm-up: %v", wrec.firstErr)
	}
	for _, p := range phases {
		res.Attempted += p.rec.ops
		res.Failed += p.rec.failed
		if p.rec.firstErr != nil {
			problem("%v", p.rec.firstErr)
		}
	}
	if res.Failed > 0 {
		problem("%d of %d ops failed verification", res.Failed, res.Attempted)
	}
	if res.Attempted > 0 {
		rep.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	}
	first := phases[0]
	rep.LatP99us = first.sum.latP99us
	rep.LatSamples, rep.LatWindowed, rep.Windows, rep.Quiet = first.sum.latSamples, first.sum.latWindowed, first.sum.windows, first.sum.quiet

	if traced {
		rep.Bases = layerMetrics(res.Metrics, phases[0], phases[1])
	} else {
		endToEnd(res.Metrics, first.sum, median(setups), 1-rep.ErrorRate)
		rep.SetupS = [3]float64{quantile(setups, 0.25), quantile(setups, 0.5), quantile(setups, 0.75)}
	}
	res.Correct = len(rep.Problems) == 0
	return res, rep
}

// measure runs one measured phase, traced or not.
func measure(r rig, seconds float64, traced bool) phase {
	rec := newRecorder(seconds, max(1, int(seconds/windowSeconds+0.5)))
	runtime.GC()
	before := ncs.CaptureMetrics()
	if traced {
		rec.tl = startTracing()
	}
	rec.start(seconds)
	r.loop(rec)
	rec.finish()
	p := phase{rec: rec, goroutines: runtime.NumGoroutine(), outstanding: outstanding()}
	if traced {
		rec.tl.stop()
		sp := rec.tl.analyse()
		p.spans = &sp
	}
	p.delta = ncs.CaptureMetrics().Delta(before)
	p.sum = rec.summarize()
	return p
}

// outstanding is the number of pooled buffers checked out process-wide.
func outstanding() int64 { return ncs.CaptureMetrics().Gauges["buf.pool.outstanding"] }

// settleWait is how long teardown may take to return every goroutine
// and pooled buffer.
const settleWait = 5 * time.Second

// settle waits up to wait for the goroutine count and the pooled
// buffers to come back to their level before the workload; what does
// not is a leak.
func settle(goroutines0 int, outstanding0 int64, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		g, o := runtime.NumGoroutine(), outstanding()
		if g <= goroutines0 && o <= outstanding0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("leak after teardown: %d goroutines (before: %d), %d pooled buffers outstanding (before: %d)",
				g, goroutines0, o, outstanding0)
		}
		time.Sleep(time.Millisecond)
	}
}

func endToEnd(m map[string]metric, s summary, setupS, successRatio float64) {
	m["ops_per_s"] = metric{s.opsPerS, "1/s"}
	m["goodput_MBps"] = metric{s.goodputMBps, "MB/s"}
	m["lat_p50_us"] = metric{s.latP50us, "us"}
	m["lat_p95_us"] = metric{s.latP95us, "us"}
	m["cpu_us_per_op"] = metric{s.cpuUSPerOp, "us"}
	m["allocs_per_op"] = metric{s.allocsPerOp, "count"}
	m["alloc_bytes_per_op"] = metric{s.allocBPerOp, "B"}
	m["success_ratio"] = metric{successRatio, "ratio"}
	m["setup_s"] = metric{setupS, "s"}
}
