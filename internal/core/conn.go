package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ncs/internal/buf"
	"ncs/internal/errctl"
	"ncs/internal/flowctl"
	"ncs/internal/netsim"
	"ncs/internal/packet"
	"ncs/internal/platform"
	"ncs/internal/stream"
	"ncs/internal/telemetry"
	"ncs/internal/transport"
)

// maxTrackedSessions bounds the inbound session table; the oldest
// completed sessions are pruned beyond this. A pruned session can no
// longer re-acknowledge duplicate retransmissions, which is safe: by the
// time 64 newer sessions completed, the peer's sender has long finished.
const maxTrackedSessions = 64

// deliveredQueueDepth is the number of fully reassembled messages that
// may wait for NCS_recv before the Receive Thread blocks (natural
// backpressure toward the data connection).
const deliveredQueueDepth = 128

// streamSendSlots bounds how many data SDUs from non-zero streams may
// sit in a connection's outbound queue at once. The shared queue is
// FIFO: without the bound, a bulk stream keeps it full of its own SDUs
// and every stream-0 frame (RPC calls, latency-sensitive sends) waits
// behind a whole credit window of bulk before reaching the wire. With
// it, a stream-0 SDU finds at most streamSendSlots stream SDUs ahead
// of itself, while bulk still batches deep enough to keep the wire
// busy. Slots are a single pool across all non-zero streams — they
// bound total queue residency, and the channel semaphore's FIFO
// hand-off keeps concurrent streams interleaving fairly.
const streamSendSlots = 8

// sendQueueDepth is the Send Thread's queue. Deep enough that a
// multi-SDU transfer can pipeline SDUs behind flow-control admission,
// which is what gives the Send Thread batches to coalesce.
const sendQueueDepth = 64

// sendBatchMax bounds how many queued SDUs the Send Thread coalesces
// into one vectored transport write.
const sendBatchMax = 16

// Message is a received user message. Lost reports SDUs missing from an
// unreliable (ErrorControl: None) transfer; it is always zero on
// reliable connections.
type Message struct {
	Data []byte
	Lost int
}

// sendItem is one SDU handed to the Send Thread, optionally carrying
// instrumentation state for Table I measurements. When ctrl is non-nil
// the item is an in-band control packet (InbandControl mode) instead of
// an SDU.
type sendItem struct {
	sdu        errctl.SDU
	ctrl       *packet.Control
	trace      *SendTrace
	done       chan struct{} // non-nil: Send Thread closes after transmission
	streamSlot bool          // release one of the connection's stream send slots after transmission
}

// ctrlEvent is an acknowledgment on its way from a control receive
// loop to its session's send loop. ref is the pooled receive buffer
// backing ctl.Body — a reference handed off by the receive loop
// (buf.Handoff) that the consumer releases once it is done with the
// body.
type ctrlEvent struct {
	ctl packet.Control
	ref *buf.Buffer
}

// recvSession wraps an inbound error-control session with its delivery
// state. Sessions recycle through recvSessionPool when pruned: one
// arrives per received message, so on unreliable streams the wrapper
// would otherwise be a steady per-message allocation.
type recvSession struct {
	rcv       errctl.Receiver
	delivered bool
}

var recvSessionPool = sync.Pool{New: func() any { return new(recvSession) }}

// Connection is one NCS point-to-point connection: a data connection
// and a control connection, the per-connection threads of Figure 4, and
// the flow/error control configuration chosen at establishment.
type Connection struct {
	sys  *System
	peer string
	id   uint32
	opts Options

	data transport.Conn
	ctrl transport.Conn

	// Flow control state is created on first use (flowSend/flowRecv):
	// an idle connection that never sends or receives a data packet
	// carries none. The pointers publish lazily-built interface values;
	// c.mu serialises construction.
	fcSend atomic.Pointer[flowctl.Sender]
	fcRecv atomic.Pointer[flowctl.Receiver]

	// sendQ and ctrlQ exist only on threaded runtimes — the sharded
	// runtime deposits on its shard's outbound queue and the fast path
	// writes inline, so neither pays for queues it never uses.
	sendQ chan sendItem
	ctrlQ chan packet.Control

	// delivered is the connection's completed-message queue, created on
	// first delivery or first Recv (deliveredQ) — both producer and
	// consumer go through the accessor, so neither can miss the other.
	delivered atomic.Pointer[chan Message]

	// mu guards the lazy session and waiter tables below, both nil
	// until the first inbound reliable session (sessions) or the first
	// outbound reliable send (waiters).
	mu       sync.Mutex
	sessions map[uint32]*recvSession
	sessAge  []uint32
	waiters  map[uint32]chan ctrlEvent

	nextSession atomic.Uint32

	// txCounter and rxCounter are connection-lifetime packet indices fed
	// to flow control, so that window/credit state spans sessions even
	// though SDU sequence numbers restart per message.
	txCounter atomic.Uint32
	rxCounter atomic.Uint32

	fastSendMu sync.Mutex // serialises fast-path senders
	fastRecvMu sync.Mutex // serialises fast-path pump holders
	fastCtrlMu sync.Mutex // serialises fast-path control writes

	// Stream multiplexing state (see internal/stream). The mux is lazy:
	// a connection that never opens a stream carries none, and stream 0
	// — the default channel — never touches it. initiator fixes stream
	// id parity (dialer odd, acceptor even).
	initiator bool
	muxp      atomic.Pointer[stream.Mux]

	// streamSlots is the counting semaphore behind streamSendSlots,
	// shared by every non-zero stream's queued data SDUs. Lazy: built
	// by streamSlotCh on a connection's first stream send.
	streamSlotsP atomic.Pointer[chan struct{}]

	// Fast-path stream plumbing: with no receive threads, whichever
	// goroutine holds fastRecvMu pumps the data transport for everyone,
	// parking other channels' completions. pumpFree (cap 1) wakes one
	// waiter when the pump is released; park0/bell0 hold stream-0
	// messages a stream receiver pumped up. Built only for FastPath.
	pumpFree chan struct{}
	park0Mu  sync.Mutex
	park0    []Message
	nPark0   atomic.Int32
	bell0    chan struct{}

	// sh is the connection's shard attachment (RuntimeSharded only);
	// inbox, when bound, merges this connection's deliveries into a
	// shared queue.
	sh    *shardConn
	inbox atomic.Pointer[Inbox]

	closeOnce sync.Once
	closedCh  chan struct{}
	wg        sync.WaitGroup

	lastTrace atomic.Pointer[SendTrace]
	stats     statCounters
	rtt       rttEstimator

	lastHeard atomic.Int64 // unix nanos of the last inbound packet
	failed    atomic.Bool  // heartbeat declared the peer dead
}

func newConnection(sys *System, peer string, id uint32, opts Options, data, ctrl transport.Conn, initiator bool) *Connection {
	if opts.Platform != nil {
		data = platform.Tax(data, *opts.Platform)
		ctrl = platform.Tax(ctrl, *opts.Platform)
	}
	c := &Connection{
		sys:       sys,
		peer:      peer,
		id:        id,
		opts:      opts,
		data:      data,
		ctrl:      ctrl,
		initiator: initiator,
		closedCh:  make(chan struct{}),
	}
	c.lastHeard.Store(time.Now().UnixNano())
	switch {
	case opts.FastPath:
		// No threads: Send/Recv run the protocol inline (§4.2). The
		// fast path bypasses the sharded runtime exactly as it
		// bypasses the threads.
		c.pumpFree = make(chan struct{}, 1)
		c.bell0 = make(chan struct{}, 1)
	case opts.Runtime == RuntimeSharded:
		// No per-connection threads either: the System's shard pool
		// drives the connection's protocol machinery (shard.go).
		c.attachShard()
	case opts.InbandControl:
		// Ablation mode: control shares the data connection, so the
		// Send Thread carries both and the Receive Thread demultiplexes
		// — exactly the per-packet demux cost the split planes avoid.
		c.sendQ = make(chan sendItem, sendQueueDepth)
		c.wg.Add(2)
		go c.sendThread()
		go c.recvThread()
	default:
		// Data plane: per-connection Send and Receive Threads; control
		// plane: per-connection Control Send/Receive Threads.
		c.sendQ = make(chan sendItem, sendQueueDepth)
		c.ctrlQ = make(chan packet.Control, 16)
		c.wg.Add(4)
		go c.sendThread()
		go c.recvThread()
		go c.ctrlSendThread()
		go c.ctrlRecvThread()
	}
	if opts.Heartbeat > 0 && !opts.FastPath && c.sh == nil {
		c.wg.Add(1)
		go c.heartbeatThread()
	}
	return c
}

// flowSend returns the connection's flow-control sender, creating it
// on first use. The fast path is one atomic load.
func (c *Connection) flowSend() flowctl.Sender {
	if p := c.fcSend.Load(); p != nil {
		return *p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.fcSend.Load(); p != nil {
		return *p
	}
	fs := flowctl.NewSender(c.opts.FlowControl, c.opts.FlowConfig)
	select {
	case <-c.closedCh:
		// Construction raced Close (which tears flow control down under
		// this same mutex): close the newcomer so no admission waiter
		// can block on a sender teardown never saw.
		fs.Close()
	default:
	}
	c.fcSend.Store(&fs)
	return fs
}

// flowRecv returns the connection's flow-control receiver, creating it
// on first use.
func (c *Connection) flowRecv() flowctl.Receiver {
	if p := c.fcRecv.Load(); p != nil {
		return *p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.fcRecv.Load(); p != nil {
		return *p
	}
	fr := flowctl.NewReceiver(c.opts.FlowControl, c.opts.FlowConfig)
	if !c.opts.FastPath {
		// Give a credit receiver an asynchronous emitter so its
		// refill-retry timer can re-advertise a possibly-lost grant. The
		// fast path gets none: it emits control inline on the receive
		// procedure's goroutine, and an emitterless receiver arms no
		// timers at all.
		flowctl.SetEmitter(fr, c.emitCtrl)
	}
	select {
	case <-c.closedCh:
		fr.Close()
	default:
	}
	c.fcRecv.Store(&fr)
	return fr
}

// FlowStats snapshots the connection's credit flow-control sender state
// (grants, in-flight, congestion window). ok is false when the
// connection does not use credit flow control or has not sent yet.
func (c *Connection) FlowStats() (flowctl.SenderStats, bool) {
	p := c.fcSend.Load()
	if p == nil {
		return flowctl.SenderStats{}, false
	}
	return flowctl.SenderStatsOf(*p)
}

// deliveredQ returns the completed-message queue, creating it on first
// use. Producers (recvThread, the shard's deliver) and consumers
// (RecvMessage) share this accessor, so a consumer always selects on
// the same channel a producer delivers into.
func (c *Connection) deliveredQ() chan Message {
	return lazyChan(&c.delivered, deliveredQueueDepth)
}

// lazyChan returns the channel published in p, making it (with
// capacity n) on first use. A racing maker's channel loses the
// compare-and-swap and is dropped, so every caller shares one channel.
func lazyChan[T any](p *atomic.Pointer[chan T], n int) chan T {
	if q := p.Load(); q != nil {
		return *q
	}
	ch := make(chan T, n)
	if p.CompareAndSwap(nil, &ch) {
		return ch
	}
	return *p.Load()
}

// attachShard registers the connection with its System's shard pool:
// pollable transports (HPI) feed the shard's event loop directly at
// zero goroutines; others get a minimal pump goroutine per transport
// that only reads the wire — every protocol decision still runs on
// the shard.
func (c *Connection) attachShard() {
	sh := c.sys.shardFor(c.id)
	sc := &shardConn{
		shard:     sh,
		sendSlots: make(chan struct{}, sendQueueDepth),
		lastPing:  time.Now(),
	}
	c.sh = sc
	if p, ok := transport.AsPoller(c.data); ok {
		sc.dataPoll = p
	} else {
		sc.dataIn = make(chan *buf.Buffer, pumpDepth)
		c.wg.Add(1)
		go c.pump(c.data, sc.dataIn)
	}
	if !c.opts.InbandControl {
		if p, ok := transport.AsPoller(c.ctrl); ok {
			sc.ctrlPoll = p
		} else {
			sc.ctrlIn = make(chan *buf.Buffer, pumpDepth)
			c.wg.Add(1)
			go c.pump(c.ctrl, sc.ctrlIn)
		}
	}
	sh.register(c)
}

// pump bridges a non-pollable transport into the shard loop: it parks
// in the blocking receive (the thing the transport cannot avoid) and
// hands packets over; everything else — demux, protocol, delivery —
// happens on the shard. Blocking on a full channel is the same
// backpressure a Receive Thread applies by not reading.
func (c *Connection) pump(t transport.Conn, ch chan *buf.Buffer) {
	defer c.wg.Done()
	for {
		b, err := t.RecvBuf()
		if err != nil {
			// Transport death is connection death, as in recvThread.
			go c.Close()
			return
		}
		select {
		case ch <- b:
			c.sh.shard.requeue(c)
		case <-c.closedCh:
			b.Release()
			return
		}
	}
}

// heartbeatThread probes the peer and declares it unreachable after
// three silent intervals, failing the connection.
func (c *Connection) heartbeatThread() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.opts.Heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if !c.heartbeat() {
				return
			}
		case <-c.closedCh:
			return
		}
	}
}

// heartbeat is the one heartbeat check, shared by heartbeatThread and
// the sharded runtime's heartbeatSweep: after three silent intervals it
// declares the peer unreachable and fails the connection (from a fresh
// goroutine — Close waits for the heartbeat thread via wg.Wait);
// otherwise it pings the peer. It reports whether the connection is
// still alive.
func (c *Connection) heartbeat() bool {
	if silent := time.Duration(time.Now().UnixNano() - c.lastHeard.Load()); silent > 3*c.opts.Heartbeat {
		c.failed.Store(true)
		go c.Close()
		return false
	}
	c.emitCtrl(packet.Control{Type: packet.CtrlPing})
	return true
}

// heard stamps lastHeard on an inbound packet. The heartbeat check is
// its only reader, so a connection without heartbeat skips the clock
// read.
func (c *Connection) heard() {
	if c.opts.Heartbeat > 0 {
		c.lastHeard.Store(time.Now().UnixNano())
	}
}

// closeErr maps connection shutdown to the caller-visible error.
func (c *Connection) closeErr() error {
	if c.failed.Load() {
		return ErrPeerUnreachable
	}
	return ErrConnClosed
}

// Done returns a channel closed when the connection has shut down —
// locally via Close or remotely via a heartbeat-declared peer failure.
// Layers above the core (the RPC client, application select loops) use
// it to observe connection state without polling.
func (c *Connection) Done() <-chan struct{} { return c.closedCh }

// Err reports the connection's terminal state: nil while it is live,
// ErrPeerUnreachable after a heartbeat failure, ErrConnClosed after any
// other shutdown.
func (c *Connection) Err() error {
	select {
	case <-c.closedCh:
		return c.closeErr()
	default:
		if c.failed.Load() {
			return ErrPeerUnreachable
		}
		return nil
	}
}

// ID returns the connection identifier assigned at setup.
func (c *Connection) ID() uint32 { return c.id }

// Peer returns the remote system name.
func (c *Connection) Peer() string { return c.peer }

// Options returns the connection's configuration.
func (c *Connection) Options() Options { return c.opts }

// ---------------------------------------------------------------------------
// Send path (steps 1–4 of Figure 4): one procedure for every runtime.

// Send transmits msg reliably or unreliably according to the
// connection's error control configuration, blocking until the transfer
// completes (reliable) or is fully handed to the interface (unreliable).
func (c *Connection) Send(msg []byte) error { return c.send(nil, msg, nil) }

// sendLane bundles the per-channel transmit state a send drives: the
// flow-control sender admitting each SDU and the lifetime transmit
// index it is fed. Stream 0 uses the connection's own pair; every
// other stream brings its own, which is what keeps an exhausted
// stream's admission wait from touching its siblings.
type sendLane struct {
	streamID uint32
	fc       flowctl.Sender
	tx       *atomic.Uint32
}

// send is NCS_send on every runtime, for stream 0 (st nil) or a
// multiplexed stream. The protocol lives here once: segmentation,
// the error-control Initial/OnAck/OnTimeout loop, RTO selection,
// Karn-gated RTT samples, and message accounting. A runtime supplies
// only how it blocks, wakes and does I/O — the admission wait (admit),
// the SDU hand-off (handoff) and the acknowledgment wait (ackWait).
func (c *Connection) send(st *stream.State, msg []byte, tr *SendTrace) error {
	if err := c.checkSendSize(msg); err != nil {
		return err
	}
	var lane sendLane
	if st != nil {
		lane = sendLane{streamID: st.ID(), fc: st.FlowSender(), tx: st.TxCounter()}
	} else {
		lane = sendLane{fc: c.flowSend(), tx: &c.txCounter}
	}
	if c.opts.FastPath {
		// The procedure-call model has one caller in the protocol at a
		// time: fast-path sends on every channel serialise here.
		c.fastSendMu.Lock()
		defer c.fastSendMu.Unlock()
	}
	sess := c.nextSession.Add(1)
	telemetry.TraceStart(c.id, sess, len(msg))
	if c.opts.ErrorControl == errctl.None {
		tr.stamp(tHeader)
		return c.sendUnreliable(lane, msg, sess, tr)
	}
	snd := errctl.NewSenderStream(c.opts.ErrorControl, msg, c.opts.SDUSize, c.id, lane.streamID, sess)
	tr.stamp(tHeader)

	w := ackWait{c: c, sess: sess}
	w.open()
	defer w.close()
	if err := c.transmit(lane, snd.Initial(), tr, false, &w); err != nil {
		return err
	}
	// Karn's rule: RTT samples come only from sessions that never
	// retransmitted, timed from the end of the original window.
	var lastSend time.Time
	if c.opts.AdaptiveTimeout {
		lastSend = time.Now()
	}
	retransmitted := false
	for {
		ev, acked, err := w.next(c.rto())
		if err != nil {
			return err
		}
		var rt []errctl.SDU
		if acked {
			if c.opts.AdaptiveTimeout && !retransmitted {
				c.rtt.observe(time.Since(lastSend))
			}
			var done bool
			rt, done, err = snd.OnAck(ev.ctl)
			// OnAck parses the body synchronously, so the handed-off
			// receive buffer can recycle now.
			ev.ref.Release()
			if err != nil && !errors.Is(err, errctl.ErrSessionDone) {
				return err
			}
			if done {
				c.stats.messagesSent.Add(1)
				mSendMsgs.IncAt(c.id)
				return nil
			}
		} else {
			rt = snd.OnTimeout()
		}
		if len(rt) == 0 {
			continue
		}
		// Retransmissions transmit synchronously (sync): their payloads
		// alias msg, which the caller may recycle the moment Send
		// returns, and the final ack can land while an async duplicate
		// still sits in a send queue. Waiting for the runtime's
		// confirmation — it copies the payload into its own staging
		// buffer before batching — keeps every queued alias inside
		// Send's lifetime. The original window needs no such barrier: an
		// ack proves its SDUs were already staged and written.
		if err := c.transmit(lane, rt, nil, true, &w); err != nil {
			return err
		}
		retransmitted = true
	}
}

// unreliableSegments returns the segmentation arithmetic for an
// unreliable message: the effective SDU size and the SDU count (an
// empty message still takes one empty end SDU).
func (c *Connection) unreliableSegments(msg []byte) (sduSize, n int) {
	sduSize = errctl.EffectiveSDUSize(c.opts.SDUSize)
	n = (len(msg) + sduSize - 1) / sduSize
	if n == 0 {
		n = 1
	}
	return sduSize, n
}

// sendUnreliable transmits an unreliable (None error control) message
// with no per-message sender machinery: a None session never
// retransmits, so nothing ever refers to it again and the whole sender
// object (session state, segmentation slice) can be skipped.
// Segmentation happens inline on the caller's stack, building the
// header Segment would give each SDU; steady-state unreliable sends
// allocate nothing. The last SDU transmits synchronously, so no queued
// payload outlives the caller's msg.
func (c *Connection) sendUnreliable(lane sendLane, msg []byte, sess uint32, tr *SendTrace) error {
	sduSize, n := c.unreliableSegments(msg)
	var one [1]errctl.SDU
	for i := 0; i < n; i++ {
		lo := i * sduSize
		hi := min(lo+sduSize, len(msg))
		last := i == n-1
		var flags uint16 = packet.FlagUnreliable
		var ltr *SendTrace
		if last {
			flags |= packet.FlagEnd
			ltr = tr
		}
		one[0] = errctl.SDU{
			Header: packet.DataHeader{
				Flags:     flags,
				ConnID:    c.id,
				SessionID: sess,
				Seq:       uint32(i),
				Length:    uint32(hi - lo),
				StreamID:  lane.streamID,
			},
			Payload: msg[lo:hi],
		}
		if err := c.transmit(lane, one[:], ltr, last, nil); err != nil {
			return err
		}
	}
	c.stats.messagesSent.Add(1)
	mSendMsgs.IncAt(c.id)
	return nil
}

// rto is the retransmission timeout: the RTT estimate on connections
// with AdaptiveTimeout, else the fixed AckTimeout.
func (c *Connection) rto() time.Duration {
	if !c.opts.AdaptiveTimeout {
		return c.opts.AckTimeout
	}
	return c.rtt.timeout(c.opts.AckTimeout, minAdaptiveTimeout)
}

// transmit performs the Error-Control → Flow-Control → runtime hand-off
// for a batch of SDUs on lane: each is admitted, stamped and handed
// off. When sync is true the threaded and sharded runtimes wait for
// confirmation that the final SDU left the interface. w is the
// session's acknowledgment wait (nil for an unreliable send), which a
// fast-path admission wait feeds with the acks it reads.
func (c *Connection) transmit(lane sendLane, sdus []errctl.SDU, tr *SendTrace, sync bool, w *ackWait) error {
	// Each retransmission is error control's verdict that one earlier
	// transmission of that sequence was lost; hand the verdict to flow
	// control first, so the credit the loss returns can fund the
	// retransmission itself.
	rtx := 0
	for _, sdu := range sdus {
		if sdu.Header.Flags&packet.FlagRetransmit != 0 {
			rtx++
		}
	}
	if rtx > 0 {
		flowctl.NoteLoss(lane.fc, rtx)
	}
	// The credit wait and the retransmission timer answer the same
	// question — how long before presuming something was lost — so a
	// connection with adaptive timeouts applies its RTT estimate to
	// admission too: a wedged grant is then repaired at round-trip pace
	// instead of the fixed fallback.
	wait := c.rto()
	for i, sdu := range sdus {
		if err := c.admit(lane, wait, w); err != nil {
			return err
		}
		c.noteSent(sdu)
		var ltr *SendTrace
		last := i == len(sdus)-1
		if last {
			ltr = tr
		}
		if err := c.handoff(lane.streamID, sdu, ltr, sync && last); err != nil {
			return err
		}
	}
	return nil
}

// noteSent stamps one SDU leaving error and flow control: the
// per-connection stats, the system-wide instruments, and the
// lifecycle tracer's Staged stage.
func (c *Connection) noteSent(sdu errctl.SDU) {
	c.stats.sdusSent.Add(1)
	c.stats.bytesSent.Add(uint64(len(sdu.Payload)))
	mSendSDUs.IncAt(c.id)
	mSendBytes.AddAt(c.id, int64(len(sdu.Payload)))
	if sdu.Header.Flags&packet.FlagRetransmit != 0 {
		c.stats.retransmissions.Add(1)
	}
	telemetry.TraceStamp(c.id, sdu.Header.SessionID, telemetry.StageStaged)
}

// admit is the admission wait for the lane's next transmit index:
// flow control's blocking AcquireTimeout on the threaded and sharded
// runtimes, a wait that pumps the control connection on the fast path
// (fastAcquire; no one else reads a fast-path sender's grants). A wait
// that burns its interval without admission presumes a lost grant and
// resynchronises; on a stream lane it is also the unconsumed-peer case,
// so the stream's lifecycle is checked and a send toward a closed
// stream surfaces ErrStreamClosed. Only the fast path gives up, after
// maxCreditWait AckTimeouts, since its peer may be waiting on this very
// caller.
func (c *Connection) admit(lane sendLane, wait time.Duration, w *ackWait) error {
	fc := lane.fc
	idx := lane.tx.Add(1) - 1
	var giveUp time.Time
	if c.opts.FastPath {
		if fc.TryAcquire(idx) {
			return nil
		}
		// The fast path bypasses the Sender's blocking entry points, so
		// it reports its admission wait to flow control's instruments
		// itself.
		blockedAt := time.Now()
		giveUp = blockedAt.Add(maxCreditWait * c.opts.AckTimeout)
		defer func() { flowctl.NoteFastPathWait(c.opts.FlowControl, time.Since(blockedAt)) }()
	}
	for {
		var err error
		if c.opts.FastPath {
			err = c.fastAcquire(fc, idx, wait, w)
		} else {
			err = fc.AcquireTimeout(idx, wait)
		}
		if err == nil {
			return nil
		}
		timedOut := errors.Is(err, flowctl.ErrAcquireTimeout)
		if lane.streamID != 0 {
			if timedOut {
				stream.NoteCreditWait()
			}
			if serr := c.streamSendable(lane.streamID); serr != nil {
				return serr
			}
		}
		if !timedOut {
			return ErrConnClosed
		}
		if c.opts.FastPath && time.Now().After(giveUp) {
			return ErrRecvTimeout
		}
		fc.Resync()
	}
}

// doneChPool recycles the one-shot channels that synchronise a sender
// with the Send Thread's transmission confirmation. The Send Thread
// deposits a token (rather than closing), so a consumed channel is
// clean for reuse; channels abandoned on connection close are simply
// garbage collected.
var doneChPool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

// handoff is the runtime's SDU hand-off: an inline transport write on
// the fast path; otherwise a deposit on the Send Thread's queue or the
// shard's outbound queue, waiting for the transmission confirmation
// when sync is set. Stream SDUs take a queue-residency slot so they can
// never monopolise the outbound queue ahead of stream 0 (see
// streamSendSlots); it is released after transmission.
func (c *Connection) handoff(streamID uint32, sdu errctl.SDU, tr *SendTrace, sync bool) error {
	if c.opts.FastPath {
		if err := c.data.SendBuf(marshalSDU(sdu)); err != nil {
			c.Close()
			return ErrConnClosed
		}
		telemetry.TraceStamp(c.id, sdu.Header.SessionID, telemetry.StageWireOut)
		return nil
	}
	item := sendItem{sdu: sdu, trace: tr}
	if streamID != 0 {
		select {
		case c.streamSlotCh() <- struct{}{}:
			item.streamSlot = true
		case <-c.closedCh:
			return ErrConnClosed
		}
	}
	if sync {
		item.done = doneChPool.Get().(chan struct{})
	}
	tr.stamp(tQueued)
	if !c.enqueueData(item) {
		if item.streamSlot {
			<-c.streamSlotCh()
		}
		return ErrConnClosed
	}
	if item.done == nil {
		return nil
	}
	select {
	case <-item.done:
		doneChPool.Put(item.done)
		tr.stamp(tReturned)
		return nil
	case <-c.closedCh:
		// The channel may still receive its token; abandon it to the
		// garbage collector rather than repooling.
		return ErrConnClosed
	}
}

// marshalSDU stages one data SDU into a pooled buffer: the encoding
// step every runtime's data write shares.
func marshalSDU(sdu errctl.SDU) *buf.Buffer {
	sb := buf.GetCap(packet.DataHeaderSize + len(sdu.Payload))
	sb.B = packet.AppendSDU(sb.B, sdu.Header, sdu.Payload)
	return sb
}

// ackWait is one reliable send's wait for its acknowledgments. The
// threaded and sharded runtimes register a waiter channel the control
// receive side deposits into (depositAck) and time the wait with a
// runtime timer (threaded) or a slot on the System's timer wheel
// (sharded: thousands of in-flight sends then share one timer
// goroutine). The fast path has neither: it reads the control
// connection on the caller's goroutine, and an ack for this session —
// read while waiting for it or for admission — is held here until the
// send loop consumes it.
type ackWait struct {
	c    *Connection
	sess uint32

	ch      chan ctrlEvent   // threaded and sharded
	timer   *time.Timer      // threaded
	wt      *wheelTimer      // sharded
	expired <-chan time.Time // the timer's (or wheel timer's) expiry

	held    ctrlEvent // fast path: an unconsumed ack for sess
	holding bool
}

// open registers the waiter channel on the threaded and sharded
// runtimes.
func (w *ackWait) open() {
	c := w.c
	if c.opts.FastPath {
		return
	}
	// Room for a short burst (a final ack plus duplicates or a NACK),
	// so depositAck never blocks; beyond it acks drop and the timer
	// recovers.
	w.ch = make(chan ctrlEvent, 4)
	c.mu.Lock()
	if c.waiters == nil {
		c.waiters = make(map[uint32]chan ctrlEvent)
	}
	c.waiters[w.sess] = w.ch
	c.mu.Unlock()
}

// next waits up to d for the session's next acknowledgment. acked is
// false when d passed without one: a retransmission timeout. On the
// fast path d bounds each control read, so other control traffic
// (grants) restarts the wait.
func (w *ackWait) next(d time.Duration) (ev ctrlEvent, acked bool, err error) {
	c := w.c
	if c.opts.FastPath {
		for !w.holding {
			if err := c.fastCtrl(d, w); err != nil {
				if errors.Is(err, transport.ErrRecvTimeout) {
					return ctrlEvent{}, false, nil
				}
				return ctrlEvent{}, false, err
			}
		}
		ev, w.held, w.holding = w.held, ctrlEvent{}, false
		return ev, true, nil
	}
	switch {
	case w.wt != nil:
		w.wt.reset(d)
	case w.timer != nil:
		w.timer.Reset(d)
	case c.sh != nil:
		fire := make(chan time.Time, 1)
		w.expired = fire
		w.wt = c.sys.timerWheel().newTimer(func() {
			select {
			case fire <- time.Time{}:
			default:
			}
		})
		w.wt.reset(d)
	default:
		w.timer = time.NewTimer(d)
		w.expired = w.timer.C
	}
	select {
	case ev := <-w.ch:
		return ev, true, nil
	case <-w.expired:
		return ctrlEvent{}, false, nil
	case <-c.closedCh:
		return ctrlEvent{}, false, ErrConnClosed
	}
}

// hold keeps ctl, an ack whose body aliases ref, when it belongs to the
// waiting session; a newer ack supersedes an unconsumed older one.
// Acks for other sessions are stale stragglers and drop.
func (w *ackWait) hold(ctl packet.Control, ref *buf.Buffer) {
	if ctl.SessionID != w.sess {
		return
	}
	if w.holding {
		w.held.ref.Release()
	}
	w.held, w.holding = ctrlEvent{ctl: ctl, ref: ref.Handoff()}, true
}

// close stops the timers and unregisters the waiter. Deposits happen
// under c.mu, so after the delete no new event can land: the drain
// releases the receive buffers buffered events retained (e.g. a
// duplicate final ack that raced the session's completion).
func (w *ackWait) close() {
	if w.holding {
		w.held.ref.Release()
	}
	if w.timer != nil {
		w.timer.Stop()
	}
	if w.wt != nil {
		w.wt.stop()
	}
	if w.ch == nil {
		return
	}
	c := w.c
	c.mu.Lock()
	delete(c.waiters, w.sess)
	c.mu.Unlock()
	for {
		select {
		case ev := <-w.ch:
			ev.ref.Release()
		default:
			return
		}
	}
}

// streamSlotCh returns the connection's stream send-slot semaphore,
// built on first use — a connection that never sends on a non-zero
// stream carries none.
func (c *Connection) streamSlotCh() chan struct{} {
	return lazyChan(&c.streamSlotsP, streamSendSlots)
}

// enqueueData hands one data SDU to the connection's runtime: the Send
// Thread's queue (threaded) or the shard's outbound queue (sharded,
// after taking one of the connection's send slots — the same depth
// bound sendQ provides). It reports false when the connection closed.
func (c *Connection) enqueueData(item sendItem) bool {
	if sc := c.sh; sc != nil {
		select {
		case sc.sendSlots <- struct{}{}:
		case <-c.closedCh:
			return false
		}
		mSendQDepth.Observe(int64(len(sc.sendSlots)))
		return sc.shard.enqueueOut(outItem{
			c:          c,
			sdu:        item.sdu,
			trace:      item.trace,
			done:       item.done,
			slot:       true,
			streamSlot: item.streamSlot,
		})
	}
	mSendQDepth.Observe(int64(len(c.sendQ)))
	select {
	case c.sendQ <- item:
		return true
	case <-c.closedCh:
		return false
	}
}

func (c *Connection) checkSendSize(msg []byte) error {
	if max := c.data.MaxPacket(); max > 0 && c.opts.SDUSize+packet.DataHeaderSize > max {
		return ErrSendTooLarge
	}
	if c.opts.ErrorControl == errctl.None {
		// The receiver's dense unreliable reassembly tracks at most
		// MaxUnreliableSegments; a larger message would transmit fully
		// yet never complete on the far side, so refuse it here.
		if _, n := c.unreliableSegments(msg); n > errctl.MaxUnreliableSegments {
			return ErrSendTooLarge
		}
	}
	return nil
}

// sendThread is the per-connection Send Thread: it drains the message
// queue and performs only the data transfer for this connection. It
// drains sendQ opportunistically, coalescing up to sendBatchMax queued
// packets into one vectored transport write — under load, N SDUs share
// a single syscall and its framing cost; an idle connection still
// transmits each SDU the moment it arrives.
func (c *Connection) sendThread() {
	defer c.wg.Done()
	items := make([]sendItem, 0, sendBatchMax)
	batch := make([]*buf.Buffer, 0, sendBatchMax)
	for {
		select {
		case item := <-c.sendQ:
			items = append(items[:0], item)
		drain:
			for len(items) < sendBatchMax {
				select {
				case next := <-c.sendQ:
					items = append(items, next)
				default:
					break drain
				}
			}
			batch = batch[:0]
			for i := range items {
				it := &items[i]
				it.trace.stamp(tDequeued)
				if it.ctrl != nil {
					batch = append(batch, c.marshalCtrl(*it.ctrl))
				} else {
					batch = append(batch, marshalSDU(it.sdu))
				}
			}
			mCoalesceDepth.Observe(int64(len(batch)))
			err := c.data.SendBatch(batch) // consumes the buffer refs
			for i := range items {
				it := &items[i]
				c.transmitted(it.ctrl != nil, it.sdu.Header.SessionID, it.trace, it.done, it.streamSlot)
			}
			if err != nil {
				// The connection is going down; propagate so Send
				// callers see ErrConnClosed via closedCh.
				go c.Close()
				return
			}
		case <-c.closedCh:
			return
		}
	}
}

// transmitted is the post-transmission bookkeeping the Send Thread and
// the shard flush share for each item a batch write carried: trace
// stamps, the sender's confirmation token (a pooled channel), and the
// stream send slot.
func (c *Connection) transmitted(isCtrl bool, sess uint32, tr *SendTrace, done chan struct{}, streamSlot bool) {
	tr.stamp(tTransmitted)
	if !isCtrl {
		telemetry.TraceStamp(c.id, sess, telemetry.StageWireOut)
	}
	if done != nil {
		done <- struct{}{}
	}
	if streamSlot {
		<-c.streamSlotCh()
	}
}

// ---------------------------------------------------------------------------
// Receive path (steps 5–10 of Figure 4).

// Recv blocks for the next fully received message.
func (c *Connection) Recv() ([]byte, error) {
	m, err := c.RecvMessage()
	return m.Data, err
}

// RecvMessage is Recv with loss metadata (relevant for unreliable
// connections).
func (c *Connection) RecvMessage() (Message, error) {
	if c.opts.FastPath {
		return c.recvFast(0)
	}
	delivered := c.deliveredQ()
	select {
	case m := <-delivered:
		c.afterRecv()
		return m, nil
	case <-c.closedCh:
		// Drain anything completed before close.
		select {
		case m := <-delivered:
			return m, nil
		default:
			return Message{}, c.closeErr()
		}
	}
}

// afterRecv runs after a delivery-queue take: if the shard parked
// completed messages because the queue was full, ring it so they flush
// into the space just freed.
func (c *Connection) afterRecv() {
	if sc := c.sh; sc != nil && sc.hasStalled.Load() {
		sc.shard.requeue(c)
	}
}

// RecvTimeout is Recv with a deadline.
func (c *Connection) RecvTimeout(d time.Duration) ([]byte, error) {
	m, err := c.RecvMessageTimeout(d)
	return m.Data, err
}

// RecvMessageTimeout is RecvMessage with a deadline — the combination
// media streams need: loss metadata plus a playout deadline for frames
// whose final segment never arrived.
func (c *Connection) RecvMessageTimeout(d time.Duration) (Message, error) {
	if c.opts.FastPath {
		return c.recvFast(d)
	}
	select {
	case m := <-c.deliveredQ():
		c.afterRecv()
		return m, nil
	case <-c.closedCh:
		return Message{}, c.closeErr()
	case <-time.After(d):
		return Message{}, ErrRecvTimeout
	}
}

// BindInbox merges this connection's future deliveries into ib: they
// become InboxMessages on the shared queue instead of landing on the
// connection's own delivery queue. Bind before traffic starts (right
// after Connect/Accept); messages already delivered remain readable
// via Recv. Fast-path connections run delivery inline in Recv and
// cannot bind.
func (c *Connection) BindInbox(ib *Inbox) error {
	if c.opts.FastPath {
		return ErrFastPathOnly
	}
	c.inbox.Store(ib)
	return nil
}

// recvThread is the per-connection Receive Thread: it reads the data
// connection into pooled buffers and runs each frame through recvFrame,
// delivering the completed messages.
func (c *Connection) recvThread() {
	defer c.wg.Done()
	for {
		b, err := c.data.RecvBuf()
		if err != nil {
			// The data transport died: the peer tore the connection
			// down (or the local side is closing). Propagate to
			// connection state so blocked senders — e.g. a flow-control
			// admission retrying against a peer that will never grant
			// another credit — observe the teardown instead of spinning
			// forever. Close from a fresh goroutine: Close waits for
			// this thread via wg.Wait.
			go c.Close()
			return
		}
		m, ok := c.recvFrame(b)
		if !ok {
			continue
		}
		if ib := c.inbox.Load(); ib != nil {
			if ib.put(c, m) {
				continue
			}
			select {
			case <-c.closedCh:
				return
			default:
			}
			// The inbox closed under a live connection: unbind and
			// fall back to the connection's own queue.
			c.inbox.CompareAndSwap(ib, nil)
		}
		select {
		case c.deliveredQ() <- m:
		case <-c.closedCh:
			return
		}
	}
}

// recvFrame is the receive step every runtime shares for one frame
// read off the data connection: it stamps lastHeard, parses the frame,
// demultiplexes in-band control, and runs data through dispatchData.
// It releases b — any layer that needs a payload view beyond this call
// (the error-control reassembly, a control waiter) retains it — and
// returns a completed stream-0 message for the runtime to deliver.
func (c *Connection) recvFrame(b *buf.Buffer) (Message, bool) {
	c.heard()
	h, payload, err := packet.SplitData(b.B)
	if err != nil {
		// In in-band mode the data connection also carries control
		// packets; demultiplex them here (the per-packet cost the
		// separate control connection eliminates).
		if c.opts.InbandControl {
			c.demuxControl(b, nil)
		}
		b.Release()
		return Message{}, false
	}
	m, ok := c.dispatchData(h, payload, b)
	b.Release()
	if ok {
		// The trace completes at the delivery hand-off; a message parked
		// for its consumer would otherwise pin its slot, starving the
		// sampler.
		telemetry.TraceFinish(c.id, h.SessionID)
	}
	return m, ok
}

// noteRecv stamps one arriving data SDU: the per-connection stats, the
// system-wide instruments, and the lifecycle tracer's WireIn stage.
func (c *Connection) noteRecv(h packet.DataHeader, payload []byte) {
	c.stats.sdusReceived.Add(1)
	c.stats.bytesReceived.Add(uint64(len(payload)))
	mRecvSDUs.IncAt(c.id)
	mRecvBytes.AddAt(c.id, int64(len(payload)))
	telemetry.TraceStamp(c.id, h.SessionID, telemetry.StageWireIn)
}

// dispatchData runs one arriving SDU through the receive-side flow and
// error control, emitting control packets via emitCtrl. payload
// aliases the pooled receive buffer ref (which the error control
// retains if it must hold the segment); the caller still owns ref and
// releases it after dispatchData returns. It returns a completed
// message when the SDU finishes a session.
func (c *Connection) dispatchData(h packet.DataHeader, payload []byte, ref *buf.Buffer) (Message, bool) {
	c.noteRecv(h, payload)
	// Stream frames route to their stream's own machinery before the
	// connection-level flow control ever sees them: stream arrivals
	// must not consume stream-0 credits (isolation), and completed
	// stream messages park on the stream, never on the connection's
	// delivery queue — so an unconsumed stream cannot stall the shard
	// loop, the receive thread, or stream 0.
	if h.StreamID != 0 {
		c.dispatchStream(h, payload, ref)
		return Message{}, false
	}
	// Step 8–9: the Flow Control Thread updates its state and returns
	// credit/ack information over the control connection. Flow control
	// sees the connection-lifetime arrival index, not the per-session
	// SDU sequence number.
	rxIdx := c.rxCounter.Add(1) - 1
	for _, ctl := range c.flowRecv().OnData(rxIdx) {
		ctl.SessionID = h.SessionID
		if !c.emitCtrl(ctl) {
			return Message{}, false
		}
	}

	// Fast path mirroring the send side's singleSDU: a one-SDU message
	// on a connection without error control is complete on arrival — no
	// acknowledgments will follow and no retransmission can ever revive
	// the session, so the session table and reassembly machinery are
	// skipped entirely. Only the user-facing copy is made.
	if h.Seq == 0 && h.End() && c.opts.ErrorControl == errctl.None {
		c.stats.messagesReceived.Add(1)
		mRecvMsgs.IncAt(c.id)
		mRecvFastpath.IncAt(c.id)
		telemetry.TraceStamp(c.id, h.SessionID, telemetry.StageReassembled)
		out := make([]byte, len(payload))
		copy(out, payload)
		return Message{Data: out}, true
	}

	// Step 10: the Error Control Thread reassembles and acknowledges.
	c.mu.Lock()
	rs, ok := c.sessions[h.SessionID]
	if !ok {
		if c.sessions == nil {
			c.sessions = make(map[uint32]*recvSession)
		}
		rs = recvSessionPool.Get().(*recvSession)
		rs.rcv = errctl.NewReceiver(c.opts.ErrorControl)
		c.sessions[h.SessionID] = rs
		c.sessAge = append(c.sessAge, h.SessionID)
		c.pruneSessionsLocked()
	}
	c.mu.Unlock()

	acks, done := rs.rcv.OnData(h, payload, ref)
	for _, a := range acks {
		a.SessionID = h.SessionID
		if !c.emitCtrl(a) {
			return Message{}, false
		}
	}
	if len(acks) > 0 {
		// Piggyback the credit state on the ack burst: the consumed-count
		// refresh retires the peer's in-flight and feeds its congestion
		// controller without a dedicated control packet. Non-credit
		// receivers decline and cost one predicted branch.
		if g, ok := flowctl.Piggyback(c.flowRecv()); ok {
			g.SessionID = h.SessionID
			if !c.emitCtrl(g) {
				return Message{}, false
			}
		}
	}
	if done && !rs.delivered {
		rs.delivered = true
		c.stats.messagesReceived.Add(1)
		mRecvMsgs.IncAt(c.id)
		mRecvSession.IncAt(c.id)
		telemetry.TraceStamp(c.id, h.SessionID, telemetry.StageReassembled)
		return Message{Data: rs.rcv.Message(), Lost: rs.rcv.LostSDUs()}, true
	}
	return Message{}, false
}

func (c *Connection) pruneSessionsLocked() {
	for len(c.sessAge) > maxTrackedSessions {
		victim := c.sessAge[0]
		c.sessAge = c.sessAge[1:]
		rs, ok := c.sessions[victim]
		if !ok {
			continue
		}
		if !rs.delivered {
			// An incomplete session this old has no live sender (a
			// connection carries one outbound session at a time, and 64
			// newer ones have completed since): release the retained
			// segment buffers it pins. Should a retransmission somehow
			// still arrive, a fresh session restarts reassembly — the
			// whole-message retransmit schemes recover from empty.
			rs.rcv.Abandon()
		}
		delete(c.sessions, victim)
		// The dispatch loop is the sole user of the session (one
		// receive goroutine per connection), so once it leaves the
		// table its receiver and wrapper can recycle.
		errctl.Recycle(rs.rcv)
		*rs = recvSession{}
		recvSessionPool.Put(rs)
	}
}

// emitCtrl is the connection's one control emitter: it stamps the
// connection ID and hands ctl to the runtime's control output — an
// inline write on the fast path (serialised by fastCtrlMu, since the
// receive pump, stream consumers refilling credit, and senders
// answering pings all emit from their own goroutines), the shard's
// outbound queue, the Send Thread in in-band mode, or the Control Send
// Thread. It reports false when the connection closed.
func (c *Connection) emitCtrl(ctl packet.Control) bool {
	ctl.ConnID = c.id
	switch {
	case c.opts.FastPath:
		sb := c.marshalCtrl(ctl)
		c.fastCtrlMu.Lock()
		err := c.ctrl.SendBuf(sb)
		c.fastCtrlMu.Unlock()
		return err == nil
	case c.sh != nil:
		// Sharded: the shard loop writes it, batched with whatever
		// else this cycle produced. Control packets are bounded by the
		// inbound budget that produced them, so they take no slot.
		return c.sh.shard.enqueueOut(outItem{
			c:        c,
			ctrl:     ctl,
			isCtrl:   true,
			ctrlPath: !c.opts.InbandControl,
		})
	case c.opts.InbandControl:
		// The copy is declared here so only in-band emits move a
		// control packet to the heap.
		inband := ctl
		select {
		case c.sendQ <- sendItem{ctrl: &inband}:
			return true
		case <-c.closedCh:
			return false
		}
	}
	select {
	case c.ctrlQ <- ctl:
		return true
	case <-c.closedCh:
		return false
	}
}

// marshalCtrl stages one control packet into a pooled buffer and
// counts it sent: the encoding step every runtime's control output
// shares.
func (c *Connection) marshalCtrl(ctl packet.Control) *buf.Buffer {
	sb := buf.GetCap(packet.ControlHeaderSize + len(ctl.Body))
	sb.B = ctl.Marshal(sb.B)
	c.stats.controlSent.Add(1)
	return sb
}

// ctrlSendThread serialises control packets onto the control connection
// (the Control Send Thread of Figure 1).
func (c *Connection) ctrlSendThread() {
	defer c.wg.Done()
	for {
		select {
		case ctl := <-c.ctrlQ:
			if err := c.ctrl.SendBuf(c.marshalCtrl(ctl)); err != nil {
				go c.Close()
				return
			}
		case <-c.closedCh:
			return
		}
	}
}

// ctrlRecvThread reads the control connection and dispatches: flow
// control updates go to the Flow Control machinery, acknowledgments to
// the waiting Error Control session (the Control Receive Thread).
func (c *Connection) ctrlRecvThread() {
	defer c.wg.Done()
	for {
		b, err := c.ctrl.RecvBuf()
		if err != nil {
			// Control transport death is connection death: propagate,
			// as the Receive Thread does for the data connection.
			go c.Close()
			return
		}
		c.demuxControl(b, nil)
		b.Release()
	}
}

// demuxControl parses and routes one control packet out of the pooled
// receive buffer b, the single demultiplex point of every control
// receive loop. The body stays aliased to b throughout: routing
// consumes it synchronously (credits, rate and window updates, pings),
// and an acknowledgment reaches its session with a retained reference
// (buf.Handoff) — held in w by a fast-path sender reading its own
// control connection, or, when w is nil, deposited for the session's
// waiting sender.
func (c *Connection) demuxControl(b *buf.Buffer, w *ackWait) {
	ctl, err := packet.UnmarshalControl(b.B)
	if err != nil || !c.routeControl(ctl) {
		return
	}
	if w != nil {
		w.hold(ctl, b)
	} else {
		c.depositAck(ctl, b)
	}
}

// routeControl is the one switch over control types. It counts and
// stamps every arrival and routes all but acknowledgments, for which
// it reports true: how an ack reaches its session is the caller's
// (the runtime's) decision.
func (c *Connection) routeControl(ctl packet.Control) (ack bool) {
	c.stats.controlReceived.Add(1)
	c.heard()
	switch ctl.Type {
	case packet.CtrlPing:
		c.emitCtrl(packet.Control{Type: packet.CtrlPong})
	case packet.CtrlPong:
		// lastHeard already refreshed; nothing else to do.
	case packet.CtrlCredit, packet.CtrlCreditGrant, packet.CtrlRate, packet.CtrlWinAck:
		// Connection-scoped flow control feeds the connection's sender,
		// never a stream lane's: the credit spaces must not mix.
		c.flowSend().OnControl(ctl)
	case packet.CtrlStreamGrant, packet.CtrlStreamOpen, packet.CtrlStreamClose:
		c.routeStreamCtrl(ctl)
	case packet.CtrlAck, packet.CtrlNack:
		return true
	}
	return false
}

// depositAck hands an acknowledgment, whose body aliases the pooled
// buffer ref, to the session's registered waiter (threaded and sharded
// runtimes). The deposit stays under c.mu so a completing sender can
// delete its waiter and then drain the channel without racing a late
// deposit (the channel is buffered; the send never blocks).
func (c *Connection) depositAck(ctl packet.Control, ref *buf.Buffer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.waiters[ctl.SessionID]
	if w == nil {
		return
	}
	ev := ctrlEvent{ctl: ctl, ref: ref.Handoff()}
	select {
	case w <- ev:
	default:
		// The session is busy processing a previous ack; dropping
		// this one is safe — the sender's timer recovers.
		ev.ref.Release()
	}
}

// ---------------------------------------------------------------------------

// LastTrace returns the most recent instrumented send breakdown, or nil.
func (c *Connection) LastTrace() *SendTrace { return c.lastTrace.Load() }

// SendInstrumented sends msg on stream 0 and captures the Table I
// stage breakdown. It works on threaded and sharded connections (the
// shard loop stands in for the Send Thread); a fast-path connection has
// no queue hand-off to time and returns ErrFastPathOnly.
func (c *Connection) SendInstrumented(msg []byte) (*SendTrace, error) {
	if c.opts.FastPath {
		return nil, ErrFastPathOnly
	}
	tr := newSendTrace()
	tr.stamp(tEnter)
	err := c.send(nil, msg, tr)
	tr.stamp(tExit)
	if err != nil {
		return nil, err
	}
	c.lastTrace.Store(tr)
	return tr, nil
}

// ImpairData applies programmable impairments to this side's data
// transport mid-run (see transport.Impair): packets sent from here are
// impaired from the next one onward. It reports false when the data
// transport has no simulated link (SCI).
func (c *Connection) ImpairData(imp netsim.Impairments) bool {
	return transport.Impair(c.data, imp)
}

// Close tears the connection down: both transport connections, the flow
// control state, and all four per-connection threads. Inbound sessions
// still incomplete at teardown are abandoned so the pooled receive
// buffers they retained return to their pools.
func (c *Connection) Close() error {
	c.closeOnce.Do(func() {
		close(c.closedCh)
		// Serialise against the lazy flow-control constructors: after
		// closedCh is closed and this section ran, any sender/receiver
		// that exists — or is built later — has been Closed (the
		// constructors self-close when they observe closedCh).
		c.mu.Lock()
		fcs := c.fcSend.Load()
		fcr := c.fcRecv.Load()
		c.mu.Unlock()
		if fcs != nil {
			(*fcs).Close()
		}
		if fcr != nil {
			(*fcr).Close()
		}
		c.data.Close()
		c.ctrl.Close()
		c.wg.Wait()
		switch {
		case c.sh != nil:
			// Pumps have exited (wg). Deregister and barrier against
			// the cycle that may still be dispatching our packets; the
			// closed transports guarantee no new ones can surface. Then
			// drain the pump channels' pooled buffers and reap.
			c.sh.shard.unregister(c)
			c.sh.drainInbound()
		case c.opts.FastPath:
			// No threads to join; a fast-path Recv may still be inside
			// the session machinery (possibly the very caller running
			// this Close after a transport error). Reap from a fresh
			// goroutine once the receive procedure lock frees — the
			// closed transports unblock it promptly.
			go func() {
				c.fastRecvMu.Lock()
				defer c.fastRecvMu.Unlock()
				c.reap()
			}()
			return
		}
		// The receive threads have exited (or the shard barrier
		// passed); nothing touches the session table concurrently
		// anymore.
		c.reap()
	})
	return nil
}

// reap abandons inbound sessions still incomplete at teardown,
// releasing the pooled receive buffers their reassembly retained, and
// tears down every stream (retained reassembly buffers, per-stream
// credit timers). The mux load runs under c.mu so it serialises with
// a racing mux(): whichever side runs second observes the other's
// work.
func (c *Connection) reap() {
	c.mu.Lock()
	for id, rs := range c.sessions {
		if !rs.delivered {
			rs.rcv.Abandon()
		}
		delete(c.sessions, id)
		errctl.Recycle(rs.rcv)
	}
	c.sessAge = nil
	m := c.muxp.Load()
	c.mu.Unlock()
	if m != nil {
		m.ReapAll()
	}
}
