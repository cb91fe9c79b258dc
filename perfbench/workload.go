package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ncs"
)

// The workloads. Each is a closed loop over one connection driven by
// at most two goroutines; see README.md for why each exists and which
// layers it loads.
var workloads = map[string]workload{
	"rpc-udp":      {sizes: []int{32, 64, 256, 1024, 4096}, setup: newRPCUDP},
	"echo-hpi":     {sizes: []int{64, 1024, 4096, 8192}, setup: newEchoHPI},
	"stream-delay": {sizes: streamSizes, setup: newStreamDelay},
}

// streamSizes are stream-delay's payload sizes; its sender's buffer
// fits the largest.
var streamSizes = []int{256, 1024, 4096, 16384}

// workload is one workload's payload size classes, drawn uniformly by
// the seed, and its set-up. The payloads are generated once, outside
// the timed set-up.
type workload struct {
	sizes []int
	setup func(seed uint64, pl *payloads, cfg config) (rig, error)
}

// config carries the knobs the self-test turns; the command line
// leaves them zero.
type config struct {
	// corruptEvery, when positive, makes the echo handler (or, on
	// stream-delay, the sender) flip one payload byte in every
	// corruptEvery-th message, so the checks must catch it.
	corruptEvery int
}

// rig is one set-up workload. loop runs ops into rec until rec's phase
// is over, or until an error ends the run (recorded with rec.fail).
// close tears everything down and waits for the rig's goroutines.
type rig interface {
	loop(rec *recorder)
	close()
}

// ---------------------------------------------------------------------------
// Seeded inputs.

// splitmix64 is the seed mixer: every input the program receives is a
// pure function of the workload seed and an op or sequence number.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// variants is how many distinct payloads each size class holds.
const variants = 16

// payloads is a seeded pool: variants payloads per size class, with
// seeded contents. pick(n) chooses one by hashing (seed, n), so any
// side that knows n can regenerate the expected bytes.
type payloads struct {
	seed uint64
	pool [][]byte
}

func newPayloads(seed uint64, sizes []int) *payloads {
	p := &payloads{seed: seed}
	for ci, size := range sizes {
		for v := 0; v < variants; v++ {
			b := make([]byte, size)
			x := splitmix64(seed ^ uint64(ci)<<40 ^ uint64(v)<<32)
			for i := 0; i < size; i += 8 {
				x = splitmix64(x)
				var w [8]byte
				binary.LittleEndian.PutUint64(w[:], x)
				copy(b[i:], w[:])
			}
			p.pool = append(p.pool, b)
		}
	}
	return p
}

func (p *payloads) pick(n uint64) []byte {
	return p.pool[splitmix64(p.seed^n)%uint64(len(p.pool))]
}

// corrupt reports whether message n is one the test hook tampers with.
func (c config) corrupt(n uint64) bool {
	return c.corruptEvery > 0 && n%uint64(c.corruptEvery) == uint64(c.corruptEvery-1)
}

// ---------------------------------------------------------------------------
// rpc-udp: RPC echo over real UDP loopback on the sharded runtime.

type rpcRig struct {
	nw  *ncs.Network
	cli *ncs.RPCClient
	srv *ncs.RPCServer
	pl  *payloads
	n   uint64

	// handler entry/exit stamps for the traced run
	hIn, hOut atomic.Int64
}

func newRPCUDP(_ uint64, pl *payloads, cfg config) (rig, error) {
	r := &rpcRig{nw: ncs.NewNetwork(), pl: pl}
	conn, peer, err := ncs.Pair(r.nw, "client", "server", ncs.Options{
		Interface: ncs.UDP,
		Runtime:   ncs.RuntimeSharded,
	})
	if err != nil {
		r.nw.Close()
		return nil, fmt.Errorf("rpc-udp connect: %w", err)
	}
	var calls atomic.Uint64
	r.srv = ncs.NewServer(ncs.RPCServerOptions{})
	r.srv.Handle("echo", func(_ context.Context, req []byte) ([]byte, error) {
		r.hIn.Store(now())
		if cfg.corrupt(calls.Add(1) - 1) {
			req[len(req)/2] ^= 0xff
		}
		r.hOut.Store(now())
		return req, nil
	})
	r.srv.ServeConn(peer)
	r.cli = ncs.NewClient(conn)
	return r, nil
}

func (r *rpcRig) loop(rec *recorder) {
	ctx := context.Background()
	for {
		msg := r.pl.pick(r.n)
		r.n++
		t0 := now()
		resp, err := r.cli.Call(ctx, "echo", msg)
		t1 := now()
		if err != nil {
			rec.fail(fmt.Errorf("rpc-udp call: %w", err))
			return
		}
		rec.op(t1, t1-t0, 2*len(msg), bytes.Equal(resp, msg))
		if rec.tl != nil {
			rec.tl.rpc(t0, r.hIn.Load(), r.hOut.Load(), t1)
		}
		if rec.done(t1) {
			return
		}
	}
}

func (r *rpcRig) close() {
	r.cli.Close()
	r.srv.Shutdown()
	r.nw.Close()
}

// ---------------------------------------------------------------------------
// echo-hpi: Send/Recv ping-pong over HPI on the fast path, SR + credit.

type echoRig struct {
	nw         *ncs.Network
	conn, peer *ncs.Connection
	pl         *payloads
	n          uint64
	wg         sync.WaitGroup

	// echo-side stamps for the traced run: ping picked up, pong sent
	peerIn, peerOut atomic.Int64
}

func newEchoHPI(_ uint64, pl *payloads, cfg config) (rig, error) {
	r := &echoRig{nw: ncs.NewNetwork(), pl: pl}
	var err error
	r.conn, r.peer, err = ncs.Pair(r.nw, "caller", "echo", ncs.Options{
		Interface:    ncs.HPI,
		FastPath:     true,
		ErrorControl: ncs.ErrorSelectiveRepeat,
		FlowControl:  ncs.FlowCredit,
	})
	if err != nil {
		r.nw.Close()
		return nil, fmt.Errorf("echo-hpi connect: %w", err)
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for n := uint64(0); ; n++ {
			m, err := r.peer.Recv()
			if err != nil {
				return
			}
			r.peerIn.Store(now())
			if cfg.corrupt(n) {
				m[len(m)/2] ^= 0xff
			}
			r.peerOut.Store(now())
			if err := r.peer.Send(m); err != nil {
				return
			}
		}
	}()
	return r, nil
}

func (r *echoRig) loop(rec *recorder) {
	for {
		msg := r.pl.pick(r.n)
		r.n++
		t0 := now()
		err := r.conn.Send(msg)
		t1 := now()
		if err != nil {
			rec.fail(fmt.Errorf("echo-hpi send: %w", err))
			return
		}
		reply, err := r.conn.Recv()
		t2 := now()
		if err != nil {
			rec.fail(fmt.Errorf("echo-hpi recv: %w", err))
			return
		}
		rec.op(t2, t2-t0, 2*len(msg), bytes.Equal(reply, msg))
		if rec.tl != nil {
			rec.tl.echo(t0, t1, r.peerIn.Load(), r.peerOut.Load(), t2, len(msg))
		}
		if rec.done(t2) {
			return
		}
	}
}

func (r *echoRig) close() {
	r.conn.Close()
	r.peer.Close()
	r.wg.Wait()
	r.nw.Close()
}

// ---------------------------------------------------------------------------
// stream-delay: one-way reliable stream over a 1 ms, 0.5%-loss link.

const (
	streamDelay = time.Millisecond
	streamLoss  = 0.005
	seqLen      = 8 // big-endian sequence-number prefix

	// gapSpan is how many consecutive deliveries one latency sample
	// spans: the sample is their mean gap. Single gaps are bimodal,
	// near one round trip or near two, and the second mode holds 3-8%
	// of messages depending on the host, so a single-gap p95 jumps
	// between the modes from run to run; over 16 gaps the tail grows
	// smoothly with the share of slow gaps.
	gapSpan = 16
)

type streamRig struct {
	nw         *ncs.Network
	conn, peer *ncs.Connection
	pl         *payloads
	next       uint64         // next sequence number the receiver expects
	picks      [gapSpan]int64 // ring of the last deliveries' times; entry 0 of a phase is its start
	nPicks     int            // entries written to picks in this phase
	wg         sync.WaitGroup
	tl         atomic.Pointer[traceLog] // the sender's view of the traced phase
	sendErr    atomic.Pointer[error]
}

func newStreamDelay(seed uint64, pl *payloads, cfg config) (rig, error) {
	r := &streamRig{nw: ncs.NewNetwork(), pl: pl}
	link := ncs.LinkParams{
		Delay:    streamDelay,
		LossRate: streamLoss,
		Seed:     int64(splitmix64(seed^0x6c6f7373) >> 1), // netsim loss seed derives from the workload seed
	}
	var err error
	r.conn, r.peer, err = ncs.Pair(r.nw, "sender", "receiver", ncs.Options{
		Interface:       ncs.HPI,
		HPILink:         &link,
		ErrorControl:    ncs.ErrorSelectiveRepeat,
		FlowControl:     ncs.FlowCredit,
		AdaptiveTimeout: true,
		Runtime:         ncs.RuntimeThreaded,
	})
	if err != nil {
		r.nw.Close()
		return nil, fmt.Errorf("stream-delay connect: %w", err)
	}
	r.wg.Add(1)
	go r.send(cfg)
	return r, nil
}

// send is the sender goroutine: sequence-numbered seeded messages,
// back to back, until the connection closes.
func (r *streamRig) send(cfg config) {
	defer r.wg.Done()
	buf := make([]byte, seqLen+streamSizes[len(streamSizes)-1])
	for seq := uint64(0); ; seq++ {
		p := r.pl.pick(seq)
		msg := buf[:seqLen+len(p)]
		binary.BigEndian.PutUint64(msg, seq)
		copy(msg[seqLen:], p)
		if cfg.corrupt(seq) {
			msg[seqLen+len(p)/2] ^= 0xff
		}
		tl := r.tl.Load()
		t0 := now()
		err := r.conn.Send(msg)
		t1 := now()
		if err != nil {
			if !errors.Is(err, ncs.ErrConnClosed) {
				r.sendErr.Store(&err)
			}
			return
		}
		if tl != nil {
			tl.streamSent(seq, t0, t1, len(msg))
		}
	}
}

func (r *streamRig) loop(rec *recorder) {
	r.tl.Store(rec.tl)
	defer r.tl.Store(nil)
	r.picks[0], r.nPicks = now(), 1 // the pause between phases is no delivery gap
	for {
		t0 := now()
		m, err := r.peer.Recv()
		t1 := now()
		if err != nil {
			if p := r.sendErr.Load(); p != nil {
				err = *p
			}
			rec.fail(fmt.Errorf("stream-delay recv: %w", err))
			return
		}
		ok := len(m) >= seqLen
		var seq uint64
		if ok {
			seq = binary.BigEndian.Uint64(m)
			want := r.pl.pick(seq)
			// exactly once, in order, byte for byte
			ok = seq == r.next && bytes.Equal(m[seqLen:], want)
			r.next = seq + 1
		}
		// The op's latency is the mean gap between deliveries over the
		// last gapSpan of them: a pipelining change shortens it, where
		// per-message delay in a saturated pipe would only measure
		// queue depth.
		span := min(r.nPicks, gapSpan)
		rec.op(t1, (t1-r.picks[(r.nPicks-span)%gapSpan])/int64(span), len(m)-seqLen, ok)
		r.picks[r.nPicks%gapSpan] = t1
		r.nPicks++
		if rec.tl != nil {
			rec.tl.streamPicked(seq, t1-t0, t1)
		}
		if rec.done(t1) {
			return
		}
	}
}

func (r *streamRig) close() {
	r.conn.Close()
	r.peer.Close()
	r.wg.Wait()
	r.nw.Close()
}
