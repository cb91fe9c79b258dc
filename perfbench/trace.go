package main

import (
	"sort"
	"sync"

	"ncs"
)

// traceRing is the lifecycle tracer's ring size. The closed loops drain
// it every drainEvery ops (at most two messages per op), far below the
// ring size, so no completed trace is overwritten before it is read.
//
// traceKeep bounds the memory of a traced phase: once that many
// messages are recorded, the tracer stays on (so its overhead is still
// measured) but later messages and their traces are not kept.
const (
	traceRing  = 1 << 14
	drainEvery = 512
	traceKeep  = 100_000
)

// Clock alignment. The tracer reads its clock origin inside
// EnableTracing, a microsecond or so after the harness stamps
// traceLog.base, so raw trace stamps read early by an unknown skew in
// [0, maxSkew]. analyse finds it from outside: a message's Enqueued
// stamp cannot precede the entry of the call that sends it, and its
// Delivered stamp cannot follow the moment the other side holds it.
// Each (trace, message) candidate pair therefore admits an interval of
// skews; the correct pairs all admit the true one, so the skew is where
// the most intervals overlap (the low end of that region, which keeps
// every attributed stamp inside its message's window).
const maxSkew = 10_000 // ns

// msgRec is one message as the harness saw it from outside the
// program. Its Enqueued stamp must fall in [start, end]; pickup is when
// the application had it in hand (Recv, the handler, or Call
// returning), 0 when not seen.
type msgRec struct {
	start, end, pickup int64
	bytes              int // expected trace Bytes; 0 when framing makes it unknown
}

// callRec is one traced RPC call: its two messages and its span.
type callRec struct {
	start, end int64
	req, rep   int // indices into traceLog.msgs
}

// traceLog is the traced phase's record: the messages and calls timed
// from outside, the Send/Recv call durations, and the lifecycle traces
// drained from the tracer. Methods are safe from any goroutine.
type traceLog struct {
	mu       sync.Mutex
	base     int64 // harness-clock time of the tracer's origin
	msgs     []msgRec
	calls    []callRec
	sendCall []int64
	recvWait []int64
	traces   []ncs.Trace

	// stream-delay: sender and receiver record a sequence number
	// independently; joined at analysis.
	sent   map[uint64]msgRec
	picked map[uint64]int64
}

// startTracing enables the process tracer at every message and returns
// the log whose clock is aligned to it.
func startTracing() *traceLog {
	tl := &traceLog{sent: map[uint64]msgRec{}, picked: map[uint64]int64{}}
	tl.base = now()
	ncs.EnableTracing(1, traceRing)
	return tl
}

// stop drains the last traces and disables the tracer.
func (tl *traceLog) stop() {
	tl.drain()
	ncs.DisableTracing()
}

func (tl *traceLog) drain() {
	t := ncs.TakeTraces()
	tl.mu.Lock()
	if len(tl.traces) < traceKeep+2*traceRing {
		tl.traces = append(tl.traces, t...)
	}
	tl.mu.Unlock()
}

// full reports whether traceKeep messages are recorded; callers hold mu.
func (tl *traceLog) full() bool { return len(tl.msgs)+len(tl.sent) >= traceKeep }

// echo records one ping-pong: the ping from Send entry (t0) to the echo
// side's Recv return, the pong from the echo side's Send entry to the
// caller's Recv return (t2).
func (tl *traceLog) echo(t0, t1, peerIn, peerOut, t2 int64, size int) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if tl.full() {
		return
	}
	tl.msgs = append(tl.msgs,
		msgRec{start: t0, end: peerIn, pickup: peerIn, bytes: size},
		msgRec{start: peerOut, end: t2, pickup: t2, bytes: size})
	tl.sendCall = append(tl.sendCall, t1-t0)
	tl.recvWait = append(tl.recvWait, t2-t1)
}

// rpc records one call: the request from Call entry to handler entry,
// the reply from handler exit to Call return.
func (tl *traceLog) rpc(t0, hIn, hOut, t1 int64) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if tl.full() {
		return
	}
	n := len(tl.msgs)
	tl.msgs = append(tl.msgs,
		msgRec{start: t0, end: hIn, pickup: hIn},
		msgRec{start: hOut, end: t1, pickup: t1})
	tl.calls = append(tl.calls, callRec{start: t0, end: t1, req: n, rep: n + 1})
}

// streamSent records the sender's Send call for seq, size bytes long.
func (tl *traceLog) streamSent(seq uint64, t0, t1 int64, size int) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if tl.full() {
		return
	}
	tl.sent[seq] = msgRec{start: t0, end: t1, bytes: size}
	tl.sendCall = append(tl.sendCall, t1-t0)
}

// streamPicked records the receiver's Recv of seq, which waited wait
// ns. It is kept past full, for messages recorded just before, within
// a bound.
func (tl *traceLog) streamPicked(seq uint64, wait, t int64) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if len(tl.picked) >= 2*traceKeep {
		return
	}
	tl.picked[seq] = t
	tl.recvWait = append(tl.recvWait, wait)
}

// spans is the analysed trace: per-stage durations of every complete,
// matched message, and the validation ratios.
type spans struct {
	admit, handoff, wire, reasm, deliver, pickup []int64
	rpcCall, rpcSelf                             []int64
	sendCall, recvWait                           []int64

	messages  int // messages the harness sent while tracing
	complete  int // of those, matched to a trace with every stage stamped
	traces    int // traces drained
	stageSum  int64
	oneWaySum int64
	skew      int64 // estimated tracer clock lag, ns
}

// analyse aligns the tracer's clock, attributes each trace to the
// message whose window holds its Enqueued stamp, then splits every
// complete message's one-way time into stages. The stage sums telescope
// to pickup − Enqueued; their ratio to the one-way time measured from
// outside (pickup − the send call's entry) is the reconcile ratio.
func (tl *traceLog) analyse() spans {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for seq, m := range tl.sent {
		m.pickup = tl.picked[seq]
		tl.msgs = append(tl.msgs, m)
	}
	sp := spans{messages: len(tl.msgs), traces: len(tl.traces), sendCall: tl.sendCall, recvWait: tl.recvWait}

	order := make([]int, len(tl.msgs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return tl.msgs[order[a]].start < tl.msgs[order[b]].start })

	// admits calls f with every message that trace t could belong to and
	// the interval [lo, hi] of skews under which it would.
	admits := func(t *ncs.Trace, f func(msg int, lo, hi int64)) {
		enq := tl.base + t.Stage(ncs.StageEnqueued)
		dlv := tl.base + t.Stage(ncs.StageDelivered)
		k := sort.Search(len(order), func(j int) bool { return tl.msgs[order[j]].start > enq+maxSkew }) - 1
		for ; k >= 0; k-- {
			m := tl.msgs[order[k]]
			if m.end < enq {
				return // windows are disjoint: earlier ones end earlier
			}
			if m.bytes != 0 && m.bytes != t.Bytes {
				continue
			}
			lo, hi := max(m.start-enq, 0), min(m.end-enq, maxSkew)
			if m.pickup > 0 && t.Stage(ncs.StageDelivered) != 0 {
				hi = min(hi, m.pickup-dlv)
			}
			if lo <= hi {
				f(order[k], lo, hi)
			}
		}
	}
	type edge struct {
		at   int64
		open int
	}
	var edges []edge
	for i := range tl.traces {
		admits(&tl.traces[i], func(_ int, lo, hi int64) {
			edges = append(edges, edge{lo, 1}, edge{hi, -1})
		})
	}
	sort.Slice(edges, func(a, b int) bool {
		if edges[a].at != edges[b].at {
			return edges[a].at < edges[b].at
		}
		return edges[a].open > edges[b].open // closed intervals: open before close
	})
	for cover, best := 0, 0; len(edges) > 0; edges = edges[1:] {
		cover += edges[0].open
		if cover > best {
			best, sp.skew = cover, edges[0].at
		}
	}

	matched := make([]*ncs.Trace, len(tl.msgs))
	for i := range tl.traces {
		t := &tl.traces[i]
		admits(t, func(msg int, lo, hi int64) {
			if lo <= sp.skew && sp.skew <= hi && matched[msg] == nil {
				matched[msg] = t
			}
		})
	}
	base := tl.base + sp.skew

	stage := func(t *ncs.Trace, s ncs.TraceStage) int64 { return base + t.Stage(s) }
	complete := func(t *ncs.Trace) bool {
		if t == nil {
			return false
		}
		for s := ncs.StageEnqueued; s <= ncs.StageDelivered; s++ {
			if t.Stage(s) == 0 {
				return false
			}
		}
		return true
	}
	for i, t := range matched {
		if !complete(t) {
			continue
		}
		sp.complete++
		m := tl.msgs[i]
		sp.admit = append(sp.admit, t.Stage(ncs.StageStaged)-t.Stage(ncs.StageEnqueued))
		sp.handoff = append(sp.handoff, t.Stage(ncs.StageWireOut)-t.Stage(ncs.StageStaged))
		sp.wire = append(sp.wire, t.Stage(ncs.StageWireIn)-t.Stage(ncs.StageWireOut))
		sp.reasm = append(sp.reasm, t.Stage(ncs.StageReassembled)-t.Stage(ncs.StageWireIn))
		sp.deliver = append(sp.deliver, t.Stage(ncs.StageDelivered)-t.Stage(ncs.StageReassembled))
		if m.pickup > 0 {
			sp.pickup = append(sp.pickup, m.pickup-stage(t, ncs.StageDelivered))
			sp.stageSum += m.pickup - stage(t, ncs.StageEnqueued)
			sp.oneWaySum += m.pickup - m.start
		}
	}
	for _, c := range tl.calls {
		sp.rpcCall = append(sp.rpcCall, c.end-c.start)
		rq, rp := matched[c.req], matched[c.rep]
		if complete(rq) && complete(rp) {
			inStack := rq.Stage(ncs.StageDelivered) - rq.Stage(ncs.StageEnqueued) +
				rp.Stage(ncs.StageDelivered) - rp.Stage(ncs.StageEnqueued)
			sp.rpcSelf = append(sp.rpcSelf, c.end-c.start-inStack)
		}
	}
	return sp
}
