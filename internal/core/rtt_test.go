package core

import (
	"bytes"
	"testing"
	"time"

	"ncs/internal/atm"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/transport"
)

func TestRTTEstimatorConverges(t *testing.T) {
	var e rttEstimator
	if _, _, ok := e.snapshot(); ok {
		t.Fatal("fresh estimator claims samples")
	}
	if got := e.timeout(time.Second, time.Millisecond); got != time.Second {
		t.Fatalf("uninitialised timeout = %v, want fallback", got)
	}
	for i := 0; i < 50; i++ {
		e.observe(10 * time.Millisecond)
	}
	srtt, rttvar, ok := e.snapshot()
	if !ok {
		t.Fatal("estimator not initialised after samples")
	}
	if srtt < 9*time.Millisecond || srtt > 11*time.Millisecond {
		t.Fatalf("srtt = %v, want ≈10ms", srtt)
	}
	if rttvar > 2*time.Millisecond {
		t.Fatalf("rttvar = %v for constant samples", rttvar)
	}
	rto := e.timeout(time.Second, time.Millisecond)
	if rto < 10*time.Millisecond || rto > 30*time.Millisecond {
		t.Fatalf("rto = %v, want srtt+4·rttvar ≈ 10-20ms", rto)
	}
}

func TestRTTEstimatorClamps(t *testing.T) {
	var e rttEstimator
	e.observe(100 * time.Microsecond)
	if got := e.timeout(time.Second, 5*time.Millisecond); got != 5*time.Millisecond {
		t.Fatalf("rto = %v, want clamped to 5ms floor", got)
	}
	e2 := rttEstimator{}
	e2.observe(10 * time.Second)
	if got := e2.timeout(200*time.Millisecond, time.Millisecond); got != 200*time.Millisecond {
		t.Fatalf("rto = %v, want clamped to fallback ceiling", got)
	}
	e.observe(0)  // ignored
	e.observe(-1) // ignored
}

func TestAdaptiveTimeoutEndToEnd(t *testing.T) {
	// A 5 ms-delay circuit: the adaptive timer should settle near the
	// ~10 ms ack round trip instead of the 500 ms configured ceiling —
	// on every runtime, since all of them drive the same send procedure.
	for _, rt := range testRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			opts := Options{
				Interface:       transport.ACI,
				ErrorControl:    errctl.SelectiveRepeat,
				FlowControl:     flowctl.None,
				SDUSize:         1024,
				AckTimeout:      500 * time.Millisecond,
				AdaptiveTimeout: true,
				QoS:             atm.QoS{Delay: 5 * time.Millisecond},
			}
			rt.set(&opts)
			conn, peer, cleanup := newPairT(t, opts)
			defer cleanup()

			msg := bytes.Repeat([]byte{3}, 3000)
			for i := 0; i < 5; i++ {
				errCh := make(chan error, 1)
				go func() { errCh <- conn.Send(msg) }()
				if _, err := peer.Recv(); err != nil {
					t.Fatal(err)
				}
				if err := <-errCh; err != nil {
					t.Fatal(err)
				}
			}
			rtt := conn.RTT()
			if rtt == 0 {
				t.Fatal("RTT never estimated")
			}
			if rtt < 8*time.Millisecond || rtt > 80*time.Millisecond {
				t.Fatalf("RTT estimate = %v, want ≈10ms over a 5ms-delay circuit", rtt)
			}

			// The estimate must actually shorten loss recovery: with a
			// lost packet, retransmission fires at the adaptive RTO, far
			// below the 500 ms ceiling.
			if rto := conn.rtt.timeout(conn.opts.AckTimeout, minAdaptiveTimeout); rto >= conn.opts.AckTimeout {
				t.Fatalf("adaptive rto = %v did not drop below ceiling", rto)
			}
		})
	}
}

func TestAdaptiveTimeoutRecoversLossFaster(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	run := func(adaptive bool) time.Duration {
		conn, peer, cleanup := newPairT(t, Options{
			Interface:       transport.ACI,
			ErrorControl:    errctl.SelectiveRepeat,
			FlowControl:     flowctl.None,
			SDUSize:         512,
			AckTimeout:      400 * time.Millisecond,
			AdaptiveTimeout: adaptive,
			QoS:             atm.QoS{CellLossRate: 0.08, Seed: 9, Delay: time.Millisecond},
		})
		defer cleanup()

		msg := make([]byte, 6000)
		// Warm the estimator on a few sends.
		for i := 0; i < 3; i++ {
			errCh := make(chan error, 1)
			go func() { errCh <- conn.Send(msg) }()
			if _, err := peer.Recv(); err != nil {
				t.Fatal(err)
			}
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		for i := 0; i < 10; i++ {
			errCh := make(chan error, 1)
			go func() { errCh <- conn.Send(msg) }()
			if _, err := peer.Recv(); err != nil {
				t.Fatal(err)
			}
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	fixed := run(false)
	adaptive := run(true)
	// With 8% cell loss, several transfers need timeout recovery; the
	// adaptive timer (≈ms) should beat the fixed 400 ms timer clearly.
	if adaptive >= fixed {
		t.Fatalf("adaptive %v not faster than fixed %v under loss", adaptive, fixed)
	}
}
