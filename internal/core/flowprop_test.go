package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ncs/internal/atm"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/netsim"
	"ncs/internal/transport"
)

// Credit-conservation matrix: the flowctl property tests prove the
// sender/receiver state machines in isolation; this proves them wired
// through every runtime. Each cell runs credit flow control under one
// error-control scheme, one runtime, and one impairment (loss,
// duplication, reordering — cell-level, so at the frame level all
// three manifest as grant and data loss in different patterns), then
// asserts delivery completes and the sender's conservation invariants
// held:
//
//   - Used ≤ Granted + Probes + Lost — no transmission beyond
//     authority (written-off losses return to the grant space)
//   - PeerConsumed + Lost ≤ Used — in-flight never underflows
//
// Buffer hygiene rides the package TestMain's buf.Outstanding audit.

// checkFlowInvariants asserts the credit conservation invariants on a
// sender-side connection snapshot.
func checkFlowInvariants(t *testing.T, c *Connection, when string) {
	t.Helper()
	st, ok := c.FlowStats()
	if !ok {
		t.Fatalf("%s: FlowStats unavailable on a credit connection", when)
	}
	if st.Used > st.Granted+st.Probes+st.Lost {
		t.Fatalf("%s: conservation violated: used %d > granted %d + probes %d + lost %d",
			when, st.Used, st.Granted, st.Probes, st.Lost)
	}
	if st.PeerConsumed+st.Lost > st.Used {
		t.Fatalf("%s: inflight underflow: consumed %d + lost %d > used %d",
			when, st.PeerConsumed, st.Lost, st.Used)
	}
}

func TestCreditConservationMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("impairment matrix soak")
	}
	schemes := []errctl.Algorithm{errctl.SelectiveRepeat, errctl.GoBackN}
	// Rates are per ATM cell and an SDU spans several cells, so a
	// damaged cell loses its whole frame: these values land near 10–20%
	// frame loss, heavy enough to exercise grant recovery while letting
	// every cell of the matrix converge quickly.
	impairments := []struct {
		name string
		qos  atm.QoS
	}{
		{"loss", atm.QoS{CellLossRate: 0.02}},
		{"dup", atm.QoS{Impair: netsim.Impairments{DupRate: 0.04}}},
		{"reorder", atm.QoS{Impair: netsim.Impairments{
			ReorderRate:   0.02,
			ReorderJitter: 500 * time.Microsecond,
		}}},
	}

	// The same invariants must hold when the datagrams cross real
	// loopback sockets: the UDP cells put the seeded wire impairer
	// under the identical credit/error-control stack. Impairment here
	// is per datagram (= per SDU packet), so rates are set to land in
	// the same 10–20% effective loss band as the cell-level ACI rates.
	udpImpairments := []struct {
		name string
		imp  netsim.Impairments
	}{
		{"udp_loss", netsim.Impairments{Burst: netsim.GilbertElliott{LossGood: 0.1}}},
		{"udp_dup", netsim.Impairments{DupRate: 0.1}},
		{"udp_reorder", netsim.Impairments{
			ReorderRate:   0.08,
			ReorderJitter: 500 * time.Microsecond,
		}},
	}

	seed := int64(0)
	for _, rt := range testRuntimes {
		for _, ec := range schemes {
			for _, imp := range impairments {
				seed++
				rt, ec, imp, seed := rt, ec, imp, seed
				name := fmt.Sprintf("%s_%v_%s", rt.name, ec, imp.name)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					runCreditMatrixCell(t, rt.set, ec, func(o *Options) {
						q := imp.qos
						q.Seed = seed
						o.Interface = transport.ACI
						o.QoS = q
					}, seed)
				})
			}
			for _, imp := range udpImpairments {
				seed++
				rt, ec, imp, seed := rt, ec, imp, seed
				name := fmt.Sprintf("%s_%v_%s", rt.name, ec, imp.name)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					runCreditMatrixCell(t, rt.set, ec, func(o *Options) {
						o.Interface = transport.UDP
						o.UDPLink = &transport.UDPLink{Seed: seed, Impair: imp.imp}
					}, seed)
				})
			}
		}
	}
}

func runCreditMatrixCell(t *testing.T, set func(*Options), ec errctl.Algorithm, link func(*Options), seed int64) {
	rng := rand.New(rand.NewSource(seed))
	opts := Options{
		FlowControl:  flowctl.Credit,
		ErrorControl: ec,
		FlowConfig:   flowctl.Config{InitialCredits: 4, MaxCredits: 64},
		SDUSize:      256,
		AckTimeout:   40 * time.Millisecond,
	}
	link(&opts)
	set(&opts)
	conn, peer, cleanup := newPairT(t, opts)
	defer cleanup()

	const messages = 5
	sent := make([][]byte, messages)
	for i := range sent {
		msg := make([]byte, 1+rng.Intn(3000))
		rng.Read(msg)
		sent[i] = msg
	}
	errCh := make(chan error, 1)
	go func() {
		for _, m := range sent {
			if err := conn.Send(m); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	for i := range sent {
		got, err := peer.RecvTimeout(20 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v (sender %+v)", i, err, statsOrNil(conn))
		}
		if !bytes.Equal(got, sent[i]) {
			t.Fatalf("message %d corrupted (got %d bytes, want %d)", i, len(got), len(sent[i]))
		}
		checkFlowInvariants(t, conn, fmt.Sprintf("after message %d", i))
	}
	if err := <-errCh; err != nil {
		t.Fatalf("send: %v", err)
	}
	checkFlowInvariants(t, conn, "final")
	st, _ := conn.FlowStats()
	if st.Used == 0 {
		t.Fatal("no admissions recorded despite delivered traffic")
	}
}

// statsOrNil renders sender stats for failure messages without
// tripping on a connection that never built its flow sender.
func statsOrNil(c *Connection) any {
	if st, ok := c.FlowStats(); ok {
		return st
	}
	return "no flow stats"
}
