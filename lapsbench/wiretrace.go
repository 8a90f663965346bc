package main

import (
	"fmt"
	"io"
	"math"
)

// stageGapTolerance is how far, in percent of the end-to-end mean
// latency, the traced stage spans may sum away from the untraced
// latency before the run names the gap.
const stageGapTolerance = 25.0

// runWireTraced is a wire workload's per-layer run. One nominal-rate
// segment goes through laps.Run untraced; a second, with identical
// inputs, goes through the same ingress and runtime configuration
// assembled by the benchmark with a timed BurstSink and a timed
// scheduler. The two must retire, drop and order the same packets.
// Then the replay ladder prices single layers on the same inputs.
func runWireTraced(o options, spec wireSpec, w io.Writer) (*report, error) {
	r := &wireRun{o: o, spec: spec, w: w, rep: newReport()}
	secs := o.seconds * 0.4
	if o.small {
		secs = 0.2
	}
	us, err := r.nominal(secs, 1, false)
	if err != nil {
		return nil, err
	}
	ts, err := r.nominal(secs, 1, true)
	if err != nil {
		return nil, err
	}
	u, t := us[0], ts[0]
	ul, tl := u.res.Live, t.res.Live
	r.rep.check(ul.Processed == tl.Processed && ul.Dropped == tl.Dropped && trueOOO(ul) == trueOOO(tl) && u.ooo == t.ooo,
		diff(ul.Processed, tl.Processed)+diff(ul.Dropped, tl.Dropped),
		"traced pipeline differs from laps.Run: processed %d/%d, dropped %d/%d, ooo %d/%d, handler ooo %d/%d (untraced/traced)",
		ul.Processed, tl.Processed, ul.Dropped, tl.Dropped, trueOOO(ul), trueOOO(tl), u.ooo, t.ooo)

	x := r.rep.metrics
	pk := float64(tl.Processed)
	lags := append([]int64(nil), t.gen.lags...)
	x["gen.lag_p99_us"] = float64(quantile(lags, 0.99)) / 1e3
	x["gen.send_ns_per_dgram"] = float64(t.gen.sendNs) / float64(max(t.gen.datagrams(), 1))

	var lag, wait, disp, queue []int64
	for _, s := range t.stages {
		lag = append(lag, s.sent-s.sched)
		wait = append(wait, s.in-s.sent)
		disp = append(disp, s.out-s.in)
		queue = append(queue, s.retired-s.out)
	}
	x["ingress.wait_us_p50"] = float64(quantile(wait, 0.50)) / 1e3
	x["ingress.wait_us_p99"] = float64(quantile(wait, 0.99)) / 1e3
	x["runtime.queue_us_p50"] = float64(quantile(queue, 0.50)) / 1e3
	x["runtime.queue_us_p99"] = float64(quantile(queue, 0.99)) / 1e3

	in := t.res.Ingress
	x["ingress.pkts_per_batch"] = float64(in.Packets) / float64(max(in.Batches, 1))
	var vec, top float64
	for _, s := range t.res.IngressSockets {
		vec += float64(s.VectorLen)
		top = math.Max(top, float64(s.Datagrams))
	}
	x["ingress.vector_len"] = vec / float64(len(t.res.IngressSockets))
	x["ingress.grows"] = float64(in.BatchGrows)
	x["ingress.shrinks"] = float64(in.BatchShrinks)
	x["ingress.socket_share_max"] = top / float64(max(in.Datagrams, 1))

	b := t.burst
	x["runtime.dispatch_ns_per_pkt"] = float64(b.spanNs) / float64(max(b.pkts, 1))
	var batches uint64
	var most float64
	for _, wr := range tl.Workers {
		batches += wr.Batches
		most = math.Max(most, float64(wr.Processed))
	}
	x["runtime.pkts_per_consume_batch"] = pk / float64(max(batches, 1))
	x["runtime.worker_skew"] = most / (pk / float64(len(tl.Workers)))
	x["runtime.migrations"] = float64(tl.Migrations)
	x["runtime.fenced"] = float64(tl.Fenced)
	x["runtime.max_fence_hold_ms"] = float64(tl.MaxFenceHold.Nanoseconds()) / 1e6
	x["runtime.snapshots"] = float64(tl.Snapshots)
	x["runtime.feedback_dropped"] = float64(tl.FeedbackDropped)
	x["npsim.tracked_flows"] = float64(tl.TrackedFlows)
	x["npsim.est_ooo"] = float64(tl.EstimatedOOO)
	x["npsim.flow_budget_hits"] = float64(tl.FlowBudgetHits)
	x["npsim.evicted"] = float64(tl.EvictedFlows)
	x["npsim.drop_ratio"] = float64(tl.Dropped) / float64(max(tl.Dispatched, 1))
	x["npsim.ooo_ratio"] = float64(trueOOO(tl)) / pk
	x["npsim.migrations"] = float64(tl.Migrations)

	sch := b.sched
	x["core.target_ns"] = float64(sch.sum) / float64(max(sch.sampled(), 1))
	x["core.decisions"] = float64(sch.n)
	if ls := t.res.LapsStats; ls != nil {
		x["core.migrations"] = float64(ls.Migrations)
		x["core.core_requests"] = float64(ls.CoreRequests)
		x["core.grants"] = float64(ls.CoreGrants)
		x["core.surplus_marks"] = float64(ls.SurplusMarks)
	}

	upk := float64(ul.Processed)
	x["go.alloc_bytes_per_pkt"] = float64(u.gc.allocBytes) / upk
	x["go.gc_cycles"] = float64(u.gc.gcCycles)
	ucpu := float64(u.cpuNs) / upk
	x["trace.overhead_pct"] = 100 * (float64(t.cpuNs)/pk - ucpu) / ucpu
	e2e := meanInt(u.lat)
	stages := meanInt(lag) + meanInt(wait) + meanInt(disp) + meanInt(queue)
	gap := 100 * (e2e - stages) / e2e
	x["trace.stage_gap_pct"] = gap

	fmt.Fprintf(w, "stages (traced, mean us over %d timed packets): gen lag %.1f + ingress wait %.1f + dispatch %.1f + queue %.1f = %.1f vs untraced end-to-end %.1f (gap %.1f%%)\n",
		len(t.stages), meanInt(lag)/1e3, meanInt(wait)/1e3, meanInt(disp)/1e3, meanInt(queue)/1e3, stages/1e3, e2e/1e3, gap)
	if math.Abs(gap) > stageGapTolerance {
		fmt.Fprintf(w, "stage gap %.1f%% is outside the %.0f%% tolerance: the traced stages do not account for the untraced latency\n", gap, stageGapTolerance)
	}
	fmt.Fprintf(w, "trace overhead: %.0f ns/pkt traced vs %.0f untraced (%.1f%%); effective SO_RCVBUF %d B\n",
		float64(t.cpuNs)/pk, ucpu, x["trace.overhead_pct"], in.RcvBuf)

	log := newSpanLog(o)
	for i, s := range t.stages {
		if i == 2000 {
			break
		}
		args := map[string]any{"flow": fmt.Sprintf("%016x", s.fm), "seq": s.seq}
		tid := 1 + i%64
		log.addArgs("gen.lag", "gen", tid, s.sched, s.sent-s.sched, args)
		log.addArgs("ingress.wait", "ingress", tid, s.sent, s.in-s.sent, args)
		log.addArgs("runtime.dispatch", "runtime", tid, s.in, s.out-s.in, args)
		log.addArgs("runtime.queue", "runtime", tid, s.out, s.retired-s.out, args)
	}
	log.spans = append(log.spans, b.spans...)

	replayLadder(r.rep, wireRecords(spec, o.seed, 1<<17), spec.recs, spec.budget, o.seed, ucpu, w)
	log.write(w)
	return r.rep, nil
}
