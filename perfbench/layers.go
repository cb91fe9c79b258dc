package main

// Per-layer metrics of the traced run. Counts come from the telemetry
// delta of the untraced phase (tracing perturbs nothing it counts, but
// the untraced phase is the one the end-to-end figures describe);
// spans come from the traced phase. A metric a workload's path does
// not exercise reads 0: the workload has no Send call to time
// (rpc-udp's Send runs inside rpc.Client.Call), no RPC, or no UDP.

import "ncs"

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func histMean(d ncs.MetricsSnapshot, name string) float64 {
	h := d.Histograms[name]
	return ratio(float64(h.Sum), float64(h.Count))
}

// us returns the q-quantile of ns samples in microseconds.
func us(xs []int64, q float64) float64 { return quantile(xs, q) / 1e3 }

// layerMetrics fills m with every per-layer metric and returns the base
// of each ratio, by the ratio's name.
func layerMetrics(m map[string]metric, plain, traced phase) map[string]float64 {
	d := plain.delta
	c := func(n string) float64 { return float64(d.Counters[n]) }
	msgs := c("core.conn.send_msgs_total")
	sdusSent := c("core.conn.send_sdus_total")
	sdusRecv := c("core.conn.recv_sdus_total")
	fast, sess := c("core.recv.fastpath_total"), c("core.recv.session_total")
	piggy, refill := c("flowctl.credit.piggyback_total"), c("flowctl.credit.refill_total")
	udpSendSys, udpRecvSys := c("transport.udp.send_syscalls_total"), c("transport.udp.recv_syscalls_total")
	hits, misses := c("buf.pool.hit_total"), c("buf.pool.miss_total")
	ops := float64(plain.sum.totalOps)
	sp := traced.spans

	set := func(n string, v float64, unit string) { m[n] = metric{v, unit} }

	// core (+ errctl inside Send), measured around the public calls
	set("core.send_call_us.p50", us(sp.sendCall, 0.50), "us")
	set("core.send_call_us.p99", us(sp.sendCall, 0.99), "us")
	set("core.recv_wait_us.p50", us(sp.recvWait, 0.50), "us")
	// rpc
	set("rpc.call_us.p50", us(sp.rpcCall, 0.50), "us")
	set("rpc.self_us.p50", us(sp.rpcSelf, 0.50), "us")
	// lifecycle stages, one message one way
	for _, st := range []struct {
		name string
		xs   []int64
	}{
		{"trace.admit_us", sp.admit},
		{"trace.handoff_us", sp.handoff},
		{"trace.wire_us", sp.wire},
		{"trace.reasm_us", sp.reasm},
		{"trace.deliver_us", sp.deliver},
		{"trace.pickup_us", sp.pickup},
	} {
		set(st.name+".p50", us(st.xs, 0.50), "us")
		set(st.name+".p99", us(st.xs, 0.99), "us")
	}
	set("trace.complete_ratio", ratio(float64(sp.complete), float64(sp.messages)), "ratio")
	set("trace.reconcile_ratio", ratio(float64(sp.stageSum), float64(sp.oneWaySum)), "ratio")
	set("trace.overhead.lat_p50_us", traced.sum.latP50us-plain.sum.latP50us, "us")
	set("trace.overhead.cpu_us_per_op", traced.sum.cpuUSPerOp-plain.sum.cpuUSPerOp, "us")
	// core counters
	set("core.sdus_per_msg", ratio(sdusSent, msgs), "count")
	set("core.recv.fastpath_share", ratio(fast, fast+sess), "ratio")
	set("core.send.sendq_depth.mean", histMean(d, "core.send.sendq_depth"), "count")
	set("core.send.coalesce_depth.mean", histMean(d, "core.send.coalesce_depth"), "count")
	set("core.shard.wakeups_per_msg", ratio(c("core.shard.wakeups_total"), msgs), "count")
	set("core.wheel.sweeps_per_s", ratio(c("core.wheel.sweeps_total"), plain.sum.elapsedS), "1/s")
	// errctl
	set("errctl.retransmit_per_sdu", ratio(c("errctl.send.retransmit_sdus_total"), sdusSent), "ratio")
	set("errctl.dup_per_sdu", ratio(c("errctl.recv.dup_total"), sdusRecv), "ratio")
	// flowctl
	set("flowctl.credit.wait_per_msg", ratio(c("flowctl.credit.wait_total"), msgs), "count")
	set("flowctl.blocked_us_per_msg", ratio(c("flowctl.send.blocked_ns_total")/1e3, msgs), "us")
	set("flowctl.piggyback_share", ratio(piggy, piggy+refill), "ratio")
	set("flowctl.resync_total", c("flowctl.credit.resync_total"), "count")
	// transport (UDP)
	set("transport.udp.syscalls_per_msg", ratio(udpSendSys+udpRecvSys, msgs), "count")
	set("transport.udp.datagrams_per_msg", ratio(c("transport.udp.send_datagrams_total"), msgs), "count")
	set("transport.udp.send_batch_depth.mean", histMean(d, "transport.udp.send_batch_depth"), "count")
	set("transport.udp.eagain_per_recv_syscall", ratio(c("transport.udp.eagain_total"), udpRecvSys), "ratio")
	set("transport.udp.drops_total", c("transport.udp.trunc_total")+c("transport.udp.demux_drop_total")+c("transport.udp.queue_drop_total"), "count")
	// buf
	set("buf.pool.hit_ratio", ratio(hits, hits+misses), "ratio")
	set("buf.pool.outstanding_end", float64(plain.outstanding), "count")
	// Go runtime
	set("go.gc_cycles_per_kop", ratio(float64(plain.sum.gcCycles), ops/1e3), "count")
	set("go.goroutines", float64(plain.goroutines), "count")

	return map[string]float64{
		"messages_sent":          msgs,
		"sdus_sent":              sdusSent,
		"sdus_received":          sdusRecv,
		"recv_deliveries":        fast + sess,
		"credit_grants":          piggy + refill,
		"udp_recv_syscalls":      udpRecvSys,
		"pool_gets":              hits + misses,
		"ops":                    ops,
		"traced_messages":        float64(sp.messages),
		"traces_drained":         float64(sp.traces),
		"trace_oneway_ns_total":  float64(sp.oneWaySum),
		"trace_samples_complete": float64(sp.complete),
		"traced_lat_samples":     float64(traced.sum.latSamples),
		"untraced_lat_samples":   float64(plain.sum.latSamples),
		"rpc_calls_traced":       float64(len(sp.rpcCall)),
		"trace_clock_skew_ns":    float64(sp.skew),
		"untraced_seconds":       plain.sum.elapsedS,
	}
}
