package runtime

import (
	"strconv"
	"sync/atomic"

	"laps/internal/obs/telemetry"
)

// noteMax raises *m to v with a CAS loop: multiple shard goroutines
// race on the shared maxima, so a plain load/store could lose the true
// maximum.
func noteMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// engineTel bundles the engine's histogram handles. The zero
// value is fully disabled: every field is a nil *telemetry.Hist whose
// Record is a no-op, so instrument sites call Record unconditionally
// and test `on` only to skip clock reads.
//
// Lane discipline (histograms are single-writer per lane):
//
//   - latency/ringWait/batchSvc/reorder*: lane = worker id, written by
//     that worker's goroutine only.
//   - fenceHold/recovery/staleness: lane = shard id (an inline engine
//     has exactly one, lane 0).
type engineTel struct {
	on bool

	latency     *telemetry.Hist // dispatch → retirement, ns
	ringWait    *telemetry.Hist // dispatch → batch pop, ns
	batchSvc    *telemetry.Hist // batch pop → last retirement, ns
	reorderPkts *telemetry.Hist // seq-number lag of an OOO departure
	reorderTime *telemetry.Hist // time lag of an OOO departure, ns
	fenceHold   *telemetry.Hist // fence open → release, ns
	recovery    *telemetry.Hist // recovery start → backlog re-injected, ns
	staleness   *telemetry.Hist // view age at resolve, ns (sharded only)
}

// Exposed le-bound ranges: times from 2^7 ns (128 ns) to 2^34 ns
// (~17 s), reorder distances from 2^0 to 2^20 packets.
const (
	telTimeMinExp = 7
	telTimeMaxExp = 34
	telPktMinExp  = 0
	telPktMaxExp  = 20
)

// newEngineTel registers the histogram families on reg: worker-lane
// histograms with one lane per worker, plane-lane histograms with one
// lane per shard (planes).
func newEngineTel(reg *telemetry.Registry, workers, planes int) engineTel {
	timeHist := func(name, help string, lanes int) *telemetry.Hist {
		return reg.NewHist(telemetry.HistOpts{
			Name: name, Help: help, Scale: 1e-9,
			MinExp: telTimeMinExp, MaxExp: telTimeMaxExp, Lanes: lanes,
		})
	}
	return engineTel{
		on:       true,
		latency:  timeHist("laps_packet_latency_seconds", "End-to-end packet latency, dispatch to retirement.", workers),
		ringWait: timeHist("laps_ring_wait_seconds", "Time a packet waited between dispatch and its worker popping it.", workers),
		batchSvc: timeHist("laps_batch_service_seconds", "Worker service time per consumed batch.", workers),
		reorderPkts: reg.NewHist(telemetry.HistOpts{
			Name: "laps_reorder_lag_packets", Help: "Sequence-number distance an out-of-order packet arrived behind its flow's high-water mark.",
			MinExp: telPktMinExp, MaxExp: telPktMaxExp, Lanes: workers,
		}),
		reorderTime: timeHist("laps_reorder_lag_seconds", "Time an out-of-order packet departed after the packet that overtook it.", workers),
		fenceHold:   timeHist("laps_fence_hold_seconds", "Drain-fence hold duration, first fenced packet to release.", planes),
		recovery:    timeHist("laps_recovery_seconds", "Worker recovery duration, seize to backlog re-injected.", planes),
		staleness:   timeHist("laps_snapshot_staleness_seconds", "Age of the forwarding view a shard resolved a batch against.", planes),
	}
}

// forWorkers returns the handle workers should hold: nil when
// telemetry is off, so the worker's record sites stay a single branch.
func (t *engineTel) forWorkers() *engineTel {
	if !t.on {
		return nil
	}
	return t
}

func workerLabel(i int) string { return `worker="` + strconv.Itoa(i) + `"` }

// registerMetrics wires the engine's counters and gauges as
// scrape-time closures over its atomics. Everything read here is an
// atomic, an immutable field or a published view, so scraping never
// races the shards, the control plane or the workers.
func registerMetrics(reg *telemetry.Registry, e *Engine) {
	total := func(c shardCounter) func() uint64 {
		return func() uint64 { return e.total(c) }
	}
	reg.Counter("laps_dispatched_total", "Packets offered to the data plane.", e.dispatched.Load)
	reg.Counter("laps_processed_total", "Packets retired by workers.", e.processed)
	reg.Counter("laps_dropped_total", "Packets lost at ingress, to full rings, or stranded on dead workers.", e.dropped.Load)
	reg.Counter("laps_migrations_total", "Flows switched workers.", total(cMigrations))
	reg.Counter("laps_fenced_total", "Packets held on their old worker by a drain fence.", total(cFenced))
	reg.Counter("laps_ooo_total", "Out-of-order departures.", e.ooo)
	reg.Counter("laps_worker_stalls_total", "Stall detections by the health monitor.", e.stalls.Load)
	reg.Counter("laps_worker_deaths_total", "Workers quarantined.", e.deaths.Load)
	reg.Counter("laps_reinjected_total", "Stranded packets re-dispatched by recovery.", total(cReinjected))
	reg.Counter("laps_recovered_flows_total", "Flows remapped off dead workers.", total(cRecovered))
	reg.Counter("laps_forced_releases_total", "Fences force-released against undrainable workers.", total(cForced))
	// Bounded-memory (docs/SCALE.md) counters. The tracker sums are
	// mutex-guarded per shard, so scraping them mid-run is safe.
	reg.Counter("laps_estimated_ooo_total",
		"Out-of-order departures flagged by the sketch estimator; a subset of laps_ooo_total, 0 in exact mode.",
		e.tracker.estimatedOOO)
	reg.Counter("laps_flow_budget_hits_total",
		"Flow-budget degrade events: reorder tracking crossing exact to sketch, plus coarse-fence migrations.",
		func() uint64 { return e.tracker.budgetHits() + e.total(cBudgetHits) })
	reg.Counter("laps_evicted_flows_total",
		"Per-flow reorder watermarks evicted to stay inside the flow budget.",
		e.tracker.evicted)
	reg.Counter("laps_snapshots_total", "Forwarding views published by the control plane (0 when inline).", e.snapshots.Load)
	reg.Counter("laps_feedback_dropped_total", "Sampled observations lost to full feedback channels.", total(cFeedbackDropped))
	reg.Gauge("laps_max_fence_hold_seconds", "Longest drain-fence hold so far.", func() float64 {
		return float64(e.maxFenceHold.Load()) * 1e-9
	})
	reg.Gauge("laps_max_snapshot_staleness_seconds", "Oldest view any shard resolved against so far.", func() float64 {
		return float64(e.maxStaleness.Load()) * 1e-9
	})
	reg.Gauge("laps_max_detect_seconds", "Worst fault-to-quarantine latency so far.", func() float64 {
		return float64(e.maxDetect.Load()) * 1e-9
	})
	reg.Gauge("laps_workers_alive", "Workers the published view routes to and whose goroutines run.", func() float64 {
		n := 0
		for i := range e.workers {
			if e.aliveInView(i) {
				n++
			}
		}
		return float64(n)
	})
	for i, sh := range e.shards {
		if sh.in == nil {
			continue
		}
		sh := sh
		reg.GaugeL("laps_shard_ingress_depth", `shard="`+strconv.Itoa(i)+`"`,
			"Ingress ring backlog, per shard.", func() float64 {
				return float64(sh.in.Len())
			})
	}
	for i, w := range e.workers {
		i, w := i, w
		reg.CounterL("laps_worker_processed_total", workerLabel(i),
			"Packets retired, per worker.", w.processed.Load)
		reg.GaugeL("laps_worker_queue_depth", workerLabel(i),
			"Ring backlog plus in-service packets, per worker.", func() float64 {
				return float64(w.queueLen())
			})
		reg.GaugeL("laps_worker_up", workerLabel(i),
			"1 while the published view routes to the worker.", func() float64 {
				if e.aliveInView(i) {
					return 1
				}
				return 0
			})
	}
}

// aliveInView reports worker i's health as the last published view saw
// it (views are immutable, so this is safe from any goroutine), ANDed
// with the worker goroutine actually running.
func (e *Engine) aliveInView(i int) bool {
	v := e.view.Load()
	if v != nil && v.health[i] != whAlive {
		return false
	}
	return e.workers[i].state.Load() != wsDead
}

// Health reports per-worker liveness for /healthz, read from the
// published view: a worker is alive until it is quarantined or its
// goroutine exits. Safe from any goroutine.
func (e *Engine) Health() []telemetry.WorkerState {
	out := make([]telemetry.WorkerState, len(e.workers))
	for i := range e.workers {
		out[i] = telemetry.WorkerState{ID: i, Alive: e.aliveInView(i)}
	}
	return out
}
