package core

import (
	"fmt"
	"strings"
	"time"
)

// SendTrace captures the per-stage timing of one threaded NCS_send,
// reproducing the methodology of Table I ("Cost of Sending 1-Byte
// Message via Send Thread"). Stages:
//
//	tEnter        NCS_send entry
//	tHeader       after segmentation and header generation
//	tQueued       after the request is queued for the Send Thread
//	tDequeued     the Send Thread picked the request up
//	tTransmitted  the interface accepted the data
//	tReturned     control returned to NCS_send
//	tExit         NCS_send exit
//
// The session overhead is everything except the data transfer itself,
// exactly as the paper divides it.
type SendTrace struct {
	at [nTraceStages]time.Time

	now func() time.Time
}

// traceStage indexes SendTrace's stamps.
type traceStage int

const (
	tEnter traceStage = iota
	tHeader
	tQueued
	tDequeued
	tTransmitted
	tReturned
	tExit
	nTraceStages
)

func newSendTrace() *SendTrace { return &SendTrace{now: time.Now} }

// stamp records stage s; a nil trace (an uninstrumented send) ignores it.
func (t *SendTrace) stamp(s traceStage) {
	if t == nil {
		return
	}
	t.at[s] = t.now()
}

func (t *SendTrace) span(from, to traceStage) time.Duration { return t.at[to].Sub(t.at[from]) }

// EntryAndHeader covers NCS_send function entry plus header attachment
// (Table I rows 1–2).
func (t *SendTrace) EntryAndHeader() time.Duration { return t.span(tEnter, tHeader) }

// Queue covers queuing the message request (row 3).
func (t *SendTrace) Queue() time.Duration { return t.span(tHeader, tQueued) }

// SwitchToSendThread covers the context switch into the Send Thread
// plus its dequeue (rows 4–5).
func (t *SendTrace) SwitchToSendThread() time.Duration { return t.span(tQueued, tDequeued) }

// DataTransfer is the interface transmission itself — the only
// component Table I classifies as data transfer overhead (row 6).
func (t *SendTrace) DataTransfer() time.Duration { return t.span(tDequeued, tTransmitted) }

// SwitchBack covers freeing the request and the context switch back to
// NCS_send (rows 7–8).
func (t *SendTrace) SwitchBack() time.Duration { return t.span(tTransmitted, tReturned) }

// Exit covers NCS_send function exit.
func (t *SendTrace) Exit() time.Duration { return t.span(tReturned, tExit) }

// SessionOverhead is the total minus the data transfer (the paper's
// session overhead category).
func (t *SendTrace) SessionOverhead() time.Duration {
	return t.Total() - t.DataTransfer()
}

// Total is the complete NCS_send duration.
func (t *SendTrace) Total() time.Duration { return t.span(tEnter, tExit) }

// Table formats the breakdown in the layout of Table I.
func (t *SendTrace) Table() string {
	var b strings.Builder
	total := t.Total()
	pct := func(d time.Duration) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(d) / float64(total)
	}
	row := func(name string, d time.Duration) {
		fmt.Fprintf(&b, "  %-46s %10v %5.1f%%\n", name, d, pct(d))
	}
	b.WriteString("Session Overhead\n")
	row("NCS_send entry + header attach", t.EntryAndHeader())
	row("Queuing a message request", t.Queue())
	row("Context switch to Send Thread + dequeue", t.SwitchToSendThread())
	row("Free request + context switch back", t.SwitchBack())
	row("NCS_send exit", t.Exit())
	row("Session overhead total", t.SessionOverhead())
	b.WriteString("Data Transfer Overhead\n")
	row("Transmitting via interface", t.DataTransfer())
	fmt.Fprintf(&b, "  %-46s %10v %5.1f%%\n", "Total", total, 100.0)
	return b.String()
}
