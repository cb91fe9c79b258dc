package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"ncs/internal/buf"
)

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the harness does not have", w.Name)
		}
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// checkMetrics asserts that res carries exactly the named metrics, each
// finite and with a unit.
func checkMetrics(t *testing.T, res result, names []string) {
	t.Helper()
	if len(res.Metrics) != len(names) {
		t.Errorf("got %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(names))
	}
	for _, n := range names {
		m, ok := res.Metrics[n]
		switch {
		case !ok:
			t.Errorf("metric %s missing", n)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v, not finite", n, m.Value)
		case m.Unit == "":
			t.Errorf("metric %s has no unit", n)
		}
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload briefly,
// measured and traced, and checks the result against BENCHMARK.json.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, rep := run(name, 7, 0.6, false, config{})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("measured run: correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, rep.Problems)
			}
			checkMetrics(t, res, endToEnd)
			for _, n := range []string{"ops_per_s", "lat_p50_us", "cpu_us_per_op", "setup_s"} {
				if res.Metrics[n].Value <= 0 {
					t.Errorf("%s = %v, want > 0", n, res.Metrics[n].Value)
				}
			}

			res, rep = run(name, 7, 0.6, true, config{})
			if !res.Correct {
				t.Fatalf("traced run: problems=%v", rep.Problems)
			}
			checkMetrics(t, res, perLayer)
			if c := res.Metrics["trace.complete_ratio"].Value; c < 0.9 {
				t.Errorf("trace.complete_ratio = %v, want >= 0.9", c)
			}
			if r := res.Metrics["trace.reconcile_ratio"].Value; r < 0.8 || r > 1.01 {
				t.Errorf("trace.reconcile_ratio = %v: stage sums do not reconcile with the one-way time", r)
			}
		})
	}
}

// TestCorruptionRaisesErrorRate makes the echo handler (the sender on
// stream-delay) flip a payload byte in every 5th message: the run must
// count the failures and fail, not pass.
func TestCorruptionRaisesErrorRate(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res, rep := run(name, 3, 0.3, false, config{corruptEvery: 5})
			if res.Correct {
				t.Fatal("run with a corrupting handler reported correct")
			}
			if rep.ErrorRate < 0.1 || res.Failed == 0 {
				t.Errorf("error_rate = %v (%d of %d failed), want about 0.2", rep.ErrorRate, res.Failed, res.Attempted)
			}
			if s := res.Metrics["success_ratio"].Value; s >= 1 {
				t.Errorf("success_ratio = %v, want < 1", s)
			}
		})
	}
}

// TestSettleCatchesLeaks checks the teardown audit: a goroutine or a
// pooled buffer the workload did not give back fails the run.
func TestSettleCatchesLeaks(t *testing.T) {
	g0, o0 := runtime.NumGoroutine(), outstanding()
	stop := make(chan struct{})
	go func() { <-stop }()
	if err := settle(g0, o0, 50*time.Millisecond); err == nil {
		t.Error("leaked goroutine not reported")
	}
	close(stop)
	if err := settle(g0, o0, 5*time.Second); err != nil {
		t.Fatalf("after the goroutine exits: %v", err)
	}

	b := buf.Get(64)
	if err := settle(g0, o0, 50*time.Millisecond); err == nil {
		t.Error("leaked pooled buffer not reported")
	}
	b.Release()
	if err := settle(g0, o0, 5*time.Second); err != nil {
		t.Fatalf("after the buffer is released: %v", err)
	}
}
