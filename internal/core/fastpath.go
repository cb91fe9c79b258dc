package core

import (
	"errors"
	"time"

	"ncs/internal/buf"
	"ncs/internal/flowctl"
	"ncs/internal/stream"
	"ncs/internal/transport"
)

// The fast path implements §4.2's conclusion: "another version of
// NCS_send() and NCS_recv() primitives, which bypasses all NCS threads
// ... and transmits or receives directly ... In this case, all threads
// can be replaced by procedures. These procedures include flow control,
// error control, multicasting algorithms, and low-level communication
// primitives."
//
// Those procedures are the connection's shared protocol steps — send,
// transmit, recvFrame, dispatchData, routeControl, emitCtrl — the same
// ones the threaded and sharded runtimes drive. The fast path is a
// third driver of them that runs every step on the caller's goroutine:
//
//   - admission: when flow control withholds a credit, the sender reads
//     and routes the control connection itself until a grant admits it
//     (fastAcquire), since no Control Receive Thread will;
//   - hand-off: each SDU is marshalled and written inline;
//   - acknowledgments: the sender reads them off the control connection
//     (fastCtrl) into its ackWait instead of waiting on a channel, so a
//     fast-path send owns no waiter, ack channel or timer;
//   - control output: emitCtrl writes inline under fastCtrlMu;
//   - receive: whichever receiver holds fastRecvMu pumps the data
//     connection through recvFrame for everyone (below).
//
// FastPath takes precedence over Options.Runtime: a fast-path
// connection bypasses the sharded runtime's event loops (shard.go)
// exactly as it bypasses the per-connection threads. With no threads to
// observe transport death, the inline steps propagate it themselves:
// any non-timeout transport failure closes the connection, so Done/Err
// observers see fast-path teardown exactly as they see threaded
// teardown. Full duplex is preserved — Send reads only the control
// connection and writes the data connection; Recv reads the data
// connection and writes the control connection — so an echo exchange
// may run Send and Recv from different goroutines concurrently.
//
// Packets stage through the pooled buffers of internal/buf end to end:
// on HPI the SDU written here is the very storage the peer's receive
// procedure parses (a true zero-copy handoff), and steady-state sends
// allocate nothing.
//
// Streams and the fast path: with no receive threads, whichever
// receiver reaches the data transport first becomes the pump — it
// holds fastRecvMu, reads the wire for everyone, and dispatches each
// frame wherever it belongs: its own channel's completions return (or
// stop the pump), other channels' completions park on their stream (or
// on park0 for stream 0) and ring that channel's doorbell. Receivers
// that find the pump busy wait on their doorbell plus pumpFree, which
// is rung whenever the pump hands off. The no-stream single-receiver
// hot path degenerates to one atomic backlog check, an uncontended
// TryLock, and a blocking RecvBuf.
//
// Sends on all channels serialise on fastSendMu (the procedure-call
// model has one caller in the protocol at a time), so a fast-path
// stream send that exhausts its credit window can delay siblings for
// up to the bounded admission wait; keep unconsumed fast-path streams
// within their initial credit window. The threaded and sharded
// runtimes have no such coupling.

// maxCreditWait bounds how long a fast-path sender waits for flow
// control admission before giving up, in multiples of AckTimeout.
const maxCreditWait = 10

// fastAcquire is the fast path's admission wait: it pumps the control
// connection (fastCtrl) until fc admits idx, or reports
// flowctl.ErrAcquireTimeout once a read waits out wait with no control
// traffic at all. Acks read meanwhile are held in w for the session's
// send loop.
func (c *Connection) fastAcquire(fc flowctl.Sender, idx uint32, wait time.Duration, w *ackWait) error {
	for !fc.TryAcquire(idx) {
		if err := c.fastCtrl(wait, w); err != nil {
			if errors.Is(err, transport.ErrRecvTimeout) {
				return flowctl.ErrAcquireTimeout
			}
			return err
		}
	}
	return nil
}

// fastCtrl reads one control packet on the caller's goroutine, waiting
// up to wait, and routes it through demuxControl, holding an ack for
// w's session in w. It returns transport.ErrRecvTimeout when nothing
// arrived in time, and ErrConnClosed (closing the connection) when the
// control transport died.
func (c *Connection) fastCtrl(wait time.Duration, w *ackWait) error {
	b, err := c.ctrl.RecvBufTimeout(wait)
	if errors.Is(err, transport.ErrRecvTimeout) {
		return err
	}
	if err != nil {
		c.Close()
		return ErrConnClosed
	}
	c.demuxControl(b, w)
	b.Release()
	return nil
}

// ---------------------------------------------------------------------------
// Fast-path receive: the shared pump.

// pumpRelease deposits the hand-off token that wakes one receiver
// blocked waiting for the pump. It is rung when the pump is released
// and after any parked-message pop, so a backlog left by a departing
// receiver always has a successor to drain it.
func (c *Connection) pumpRelease() {
	select {
	case c.pumpFree <- struct{}{}:
	default:
	}
}

// park0Put parks a completed stream-0 message pumped up by a stream
// receiver (or acceptor) for whoever is blocked in Recv.
func (c *Connection) park0Put(m Message) {
	c.park0Mu.Lock()
	c.park0 = append(c.park0, m)
	c.nPark0.Store(int32(len(c.park0)))
	c.park0Mu.Unlock()
	select {
	case c.bell0 <- struct{}{}:
	default:
	}
}

// park0Pop takes the oldest parked stream-0 message. The no-stream hot
// path costs exactly the leading atomic load.
func (c *Connection) park0Pop() (Message, bool) {
	if c.nPark0.Load() == 0 {
		return Message{}, false
	}
	c.park0Mu.Lock()
	if len(c.park0) == 0 {
		c.park0Mu.Unlock()
		return Message{}, false
	}
	m := c.park0[0]
	c.park0[0] = Message{}
	c.park0 = c.park0[1:]
	if len(c.park0) == 0 {
		c.park0 = nil
	}
	remaining := len(c.park0)
	c.nPark0.Store(int32(remaining))
	c.park0Mu.Unlock()
	if remaining > 0 {
		// bell0 is capacity-1; re-ring for the rest of the backlog.
		select {
		case c.bell0 <- struct{}{}:
		default:
		}
	}
	return m, true
}

// fastPump reads the data transport with fastRecvMu held (the caller
// acquires it) and runs every arriving frame through recvFrame, which
// parks stream frames on their streams; stream-0 completions are
// either returned directly (the stream-0 receiver's own pump,
// direct=true) or parked on park0. It
// returns when direct delivery succeeds, when stop — checked before
// each blocking read — reports the caller's condition was met
// elsewhere (its stream's backlog grew, an accept arrived), when the
// deadline passes (ErrRecvTimeout), or when the transport dies.
func (c *Connection) fastPump(direct bool, stop func() bool, deadline time.Time) (Message, bool, error) {
	for {
		if stop != nil && stop() {
			return Message{}, false, nil
		}
		var b *buf.Buffer
		var err error
		if !deadline.IsZero() {
			remain := time.Until(deadline)
			if remain <= 0 {
				return Message{}, false, ErrRecvTimeout
			}
			b, err = c.data.RecvBufTimeout(remain)
			if errors.Is(err, transport.ErrRecvTimeout) {
				return Message{}, false, ErrRecvTimeout
			}
		} else {
			b, err = c.data.RecvBuf()
		}
		if err != nil {
			c.Close()
			return Message{}, false, ErrConnClosed
		}
		m, ok := c.recvFrame(b)
		switch {
		case ok && direct:
			return m, true, nil
		case ok:
			c.park0Put(m)
		}
	}
}

// fastWait blocks a receiver that found the pump busy until its
// doorbell rings, the pump frees up, the connection closes, or the
// deadline passes. A nil error means "re-check and retry".
func (c *Connection) fastWait(bell <-chan struct{}, deadline time.Time) error {
	var timerC <-chan time.Time
	if !deadline.IsZero() {
		remain := time.Until(deadline)
		if remain <= 0 {
			return ErrRecvTimeout
		}
		t := time.NewTimer(remain)
		defer t.Stop()
		timerC = t.C
	}
	select {
	case <-bell:
	case <-c.pumpFree:
	case <-c.closedCh:
		return c.closeErr()
	case <-timerC:
		return ErrRecvTimeout
	}
	return nil
}

// fastTurn is one receiver's turn at the shared pump: with the pump
// free it pumps (see fastPump for direct and stop) and then hands the
// pump on; otherwise it waits on bell (fastWait). A nil error without a
// message means "re-check and retry".
func (c *Connection) fastTurn(direct bool, stop func() bool, bell <-chan struct{}, deadline time.Time) (Message, bool, error) {
	if !c.fastRecvMu.TryLock() {
		return Message{}, false, c.fastWait(bell, deadline)
	}
	m, got, err := c.fastPump(direct, stop, deadline)
	c.fastRecvMu.Unlock()
	c.pumpRelease()
	return m, got, err
}

// recvFast is the §4.2 receive procedure for stream 0.
func (c *Connection) recvFast(timeout time.Duration) (Message, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		if m, ok := c.park0Pop(); ok {
			c.pumpRelease()
			return m, nil
		}
		if m, got, err := c.fastTurn(true, nil, c.bell0, deadline); got || err != nil {
			return m, err
		}
	}
}

// recvStreamFast is the receive procedure for a multiplexed stream:
// pop the stream's backlog, else pump (stopping as soon as the
// backlog grows — possibly via a sibling pump parking into it), else
// wait on the stream's doorbell.
func (c *Connection) recvStreamFast(st *stream.State, timeout time.Duration) (Message, error) {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		if m, ok := st.TryPop(); ok {
			c.pumpRelease()
			return Message{Data: m.Data, Lost: m.Lost}, nil
		}
		if st.Closed() || st.RemoteClosed() {
			return Message{}, ErrStreamClosed
		}
		if _, _, err := c.fastTurn(false, st.Ready, st.Bell(), deadline); err != nil {
			return Message{}, err
		}
	}
}

// acceptFast waits for a peer-initiated stream on the fast path,
// pumping the data transport when no one else is: the peer's
// CtrlStreamOpen rides the control connection (which only senders
// read), so fast-path accepts materialise from the stream's first
// data frame instead.
func (c *Connection) acceptFast(m *stream.Mux, deadline time.Time) (*stream.State, error) {
	for {
		if st, ok := m.PopAccept(); ok {
			c.pumpRelease()
			return st, nil
		}
		if m.Closed() {
			return nil, c.closeErr()
		}
		if _, _, err := c.fastTurn(false, m.HasAccept, m.AcceptBell(), deadline); err != nil {
			return nil, err
		}
	}
}
