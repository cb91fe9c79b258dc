package core

import (
	"testing"
	"time"

	"ncs/internal/atm"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/transport"
)

func TestStatsCountReliableTraffic(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface:    transport.HPI,
		FlowControl:  flowctl.Credit,
		ErrorControl: errctl.SelectiveRepeat,
		SDUSize:      1024,
	})
	defer cleanup()

	const messages, msgSize = 5, 4096
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < messages; i++ {
			if err := conn.Send(make([]byte, msgSize)); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	for i := 0; i < messages; i++ {
		if _, err := peer.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	s := conn.Stats()
	if s.MessagesSent != messages {
		t.Errorf("MessagesSent = %d, want %d", s.MessagesSent, messages)
	}
	wantSDUs := uint64(messages * msgSize / 1024)
	if s.SDUsSent != wantSDUs {
		t.Errorf("SDUsSent = %d, want %d (lossless path)", s.SDUsSent, wantSDUs)
	}
	if s.BytesSent != messages*msgSize {
		t.Errorf("BytesSent = %d, want %d", s.BytesSent, messages*msgSize)
	}
	if s.Retransmissions != 0 {
		t.Errorf("Retransmissions = %d on a lossless link", s.Retransmissions)
	}
	if s.ControlReceived == 0 {
		t.Error("ControlReceived = 0; credits/acks expected")
	}

	p := peer.Stats()
	if p.MessagesReceived != messages {
		t.Errorf("peer MessagesReceived = %d, want %d", p.MessagesReceived, messages)
	}
	if p.SDUsReceived != wantSDUs {
		t.Errorf("peer SDUsReceived = %d, want %d", p.SDUsReceived, wantSDUs)
	}
	if p.BytesReceived != messages*msgSize {
		t.Errorf("peer BytesReceived = %d, want %d", p.BytesReceived, messages*msgSize)
	}
	if p.ControlSent == 0 {
		t.Error("peer ControlSent = 0; acks expected")
	}
}

func TestStatsCountRetransmissions(t *testing.T) {
	conn, peer, cleanup := newPairT(t, Options{
		Interface:    transport.ACI,
		ErrorControl: errctl.SelectiveRepeat,
		FlowControl:  flowctl.None,
		SDUSize:      256,
		AckTimeout:   40 * time.Millisecond,
		QoS:          atm.QoS{CellLossRate: 0.15, Seed: 31},
	})
	defer cleanup()

	errCh := make(chan error, 1)
	go func() { errCh <- conn.Send(make([]byte, 8192)) }()
	if _, err := peer.Recv(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	s := conn.Stats()
	if s.Retransmissions == 0 {
		t.Error("Retransmissions = 0 at 15% cell loss; error control idle?")
	}
	if s.SDUsSent <= 8192/256 {
		t.Errorf("SDUsSent = %d; should exceed the %d originals", s.SDUsSent, 8192/256)
	}
}

// TestStatsFastPath holds every runtime's stats to the same account of
// one clean-link transfer. The credit window is smaller than a message,
// so each sender must block in admission until the receiver's grants
// arrive — on the fast path, grants it reads off the control connection
// itself, which must count as ControlReceived like any other runtime's.
func TestStatsFastPath(t *testing.T) {
	const (
		messages, msgSize, sduSize = 3, 16384, 1024
		initialCredits             = 2
	)
	for _, rt := range testRuntimes {
		t.Run(rt.name, func(t *testing.T) {
			opts := Options{
				Interface:    transport.HPI,
				FlowControl:  flowctl.Credit,
				FlowConfig:   flowctl.Config{InitialCredits: initialCredits},
				ErrorControl: errctl.None,
				SDUSize:      sduSize,
			}
			rt.set(&opts)
			conn, peer, cleanup := newPairT(t, opts)
			defer cleanup()

			errCh := make(chan error, 1)
			go func() {
				for i := 0; i < messages; i++ {
					if err := conn.Send(make([]byte, msgSize)); err != nil {
						errCh <- err
						return
					}
				}
				errCh <- nil
			}()
			for i := 0; i < messages; i++ {
				if _, err := peer.Recv(); err != nil {
					t.Fatal(err)
				}
			}
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}

			s, p := conn.Stats(), peer.Stats()
			const wantSDUs = messages * msgSize / sduSize
			if s.MessagesSent != messages || p.MessagesReceived != messages {
				t.Errorf("messages sent/received = %d/%d, want %d", s.MessagesSent, p.MessagesReceived, messages)
			}
			if s.SDUsSent != wantSDUs || p.SDUsReceived != wantSDUs {
				t.Errorf("SDUs sent/received = %d/%d, want %d", s.SDUsSent, p.SDUsReceived, wantSDUs)
			}
			if s.BytesSent != messages*msgSize || p.BytesReceived != messages*msgSize {
				t.Errorf("bytes sent/received = %d/%d, want %d", s.BytesSent, p.BytesReceived, messages*msgSize)
			}
			if s.Retransmissions != 0 {
				t.Errorf("Retransmissions = %d on a clean link", s.Retransmissions)
			}
			// With no error control the peer's only control traffic is
			// credit grants, so grants the sender applied beyond its
			// initial credits must show up in ControlReceived.
			fs, ok := conn.FlowStats()
			if !ok || fs.Granted <= initialCredits {
				t.Fatalf("flow stats %+v: admission never needed a grant", fs)
			}
			if s.ControlReceived == 0 {
				t.Errorf("ControlReceived = 0, yet grants raised the credit limit to %d", fs.Granted)
			}
		})
	}
}
