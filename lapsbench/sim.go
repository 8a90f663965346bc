package main

import (
	"fmt"
	"io"
	"runtime"

	"laps"
	"laps/internal/exp"
	"laps/internal/npsim"
	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/trace"
)

// sim-paper is Table VI scenario T5 (16 cores, Set 2 overload, trace
// group G1) under LAPS, 200 ms of virtual time sweeping 60 model
// seconds, exactly as the paper's harness runs it.
const (
	simCores        = 16
	simScenario     = 4 // exp.Scenarios()[4] is T5
	simModelSeconds = 60.0
)

func simDuration(o options) laps.Time {
	if o.small {
		return 10 * laps.Millisecond
	}
	return 200 * laps.Millisecond
}

// simRateScale pins T5's time-averaged demand to its target utilisation
// of the 16 cores, as the experiment harness does: the paper's Mpps
// constants presume the authors' hardware capacity.
func simRateScale(sc exp.Scenario) float64 {
	svcs := npsim.DefaultServices()
	var chunks, wsum float64
	for _, p := range trace.DefaultSizes {
		chunks += p.Weight * float64(p.Bytes/64)
		wsum += p.Weight
	}
	chunks /= wsum
	const steps = 600
	var demand float64 // core-equivalents
	for i := 0; i < steps; i++ {
		t := simModelSeconds * (float64(i) + 0.5) / steps
		for svc := 0; svc < packet.NumServices; svc++ {
			rate := max(sc.Params[svc].Mean(t)*1e6, 0)
			d := svcs[svc]
			proc := float64(d.Base)
			if d.PerChunk > 0 && d.ChunkBytes > 0 {
				proc += chunks * float64(d.PerChunk)
			}
			demand += rate * proc / float64(sim.Second)
		}
	}
	return sc.TargetUtil * simCores / (demand / steps)
}

// simConfig builds the T5 simulation. wrap, when non-nil, decorates
// each service's trace source.
func simConfig(o options, sched laps.CoreScheduler, wrap func(laps.TraceSource) laps.TraceSource) laps.SimConfig {
	sc := exp.Scenarios()[simScenario]
	scale := simRateScale(sc)
	dur := simDuration(o)
	var tr []laps.ServiceTraffic
	for svc := 0; svc < packet.NumServices; svc++ {
		p := sc.Params[svc]
		p.A, p.B, p.C, p.Sigma = p.A*scale, p.B*scale, p.C*scale, p.Sigma*scale
		src := sc.Group.Sources[svc]()
		if wrap != nil {
			src = wrap(src)
		}
		tr = append(tr, laps.ServiceTraffic{Service: laps.ServiceID(svc), Params: p, Trace: src})
	}
	cfg := laps.SimConfig{
		StackConfig: laps.StackConfig{
			Scheduler: laps.LAPS, Custom: sched, Traffic: tr, Duration: dur,
			TimeCompression: simModelSeconds / dur.Seconds(), Seed: o.seed,
		},
		Cores: simCores,
	}
	return cfg
}

// newLAPS is the scheduler laps.Simulate builds for T5 (all four
// services active), built here so it can be wrapped.
func newLAPS(o options) *laps.Scheduler {
	return laps.NewScheduler(laps.SchedulerConfig{
		TotalCores: simCores, Services: laps.NumServices, AFD: laps.DetectorConfig{Seed: o.seed},
	})
}

// simCall is one Simulate call and what it cost.
type simCall struct {
	res     *laps.SimResult
	setupNs int64 // building sources and scheduler, up to the call
	startNs int64 // when the call began (benchmark clock)
	wallNs  int64
	cpuNs   int64
	gc      goCounters
	heapMB  float64
}

// simulate builds the stack with build and times one Simulate call.
func simulate(build func() laps.SimConfig) (*simCall, error) {
	runtime.GC()
	heap := watchHeap()
	t0 := now()
	cfg := build()
	t1 := now()
	cpu0, gc0 := cpuNanos(), readGoCounters()
	res, err := laps.Simulate(cfg)
	t2 := now()
	cpu1, gc1 := cpuNanos(), readGoCounters()
	if err != nil {
		heap.end()
		return nil, err
	}
	return &simCall{res: res, setupNs: t1 - t0, startNs: t1, wallNs: t2 - t1, cpuNs: cpu1 - cpu0, gc: gc1.sub(gc0), heapMB: heap.end()}, nil
}

// checkSim holds a simulation to its conservation laws and to the
// reference outputs of the same seed.
func checkSim(rep *report, c *simCall, ref *laps.Metrics, what string) {
	m := c.res.Metrics
	rep.attempted++
	ok := true
	if m.Injected != m.Enqueued+m.Dropped {
		rep.fail(1, "%s: injected %d != enqueued %d + dropped %d", what, m.Injected, m.Enqueued, m.Dropped)
		ok = false
	}
	if m.Completed != m.Enqueued {
		rep.fail(1, "%s: completed %d != enqueued %d", what, m.Completed, m.Enqueued)
		ok = false
	}
	if m.Injected != c.res.Generated {
		rep.fail(1, "%s: injected %d != generated %d", what, m.Injected, c.res.Generated)
		ok = false
	}
	if ok && ref != nil && m != *ref {
		rep.fail(1, "%s: outputs differ from the reference run of the same seed (completed %d vs %d, ooo %d vs %d, migrations %d vs %d)",
			what, m.Completed, ref.Completed, m.OutOfOrder, ref.OutOfOrder, m.Migrations, ref.Migrations)
	}
}

// runSim measures sim-paper: Simulate calls on one seed, back to back,
// until the measured time is used. Every call must reproduce the first
// call's outputs exactly.
func runSim(o options, w io.Writer) (*report, error) {
	if o.trace {
		return runSimTraced(o, w)
	}
	rep := newReport()
	deadline := now() + int64(o.seconds*1e9)
	var ref *laps.Metrics
	type callFigures struct{ pps, cpu, p50, p99 float64 }
	var clean, all []callFigures
	var setups []float64
	var timed int
	var heapMB float64
	for calls := 0; calls < 2 || now() < deadline; calls++ {
		var clock *timedScheduler
		c, err := simulate(func() laps.SimConfig {
			clock = &timedScheduler{inner: newLAPS(o), every: 64, keep: 1 << 16}
			return simConfig(o, clock, nil)
		})
		if err != nil {
			return nil, err
		}
		checkSim(rep, c, ref, fmt.Sprintf("simulate call %d", calls))
		if ref == nil {
			m := c.res.Metrics
			ref = &m
		}
		m := c.res.Metrics
		f := callFigures{
			pps: float64(m.Completed) / (float64(c.wallNs) / 1e9),
			cpu: float64(c.cpuNs) / float64(m.Injected),
			p50: float64(quantile(clock.spans, 0.50)) / 1e3,
			p99: float64(quantile(clock.spans, 0.99)) / 1e3,
		}
		all = append(all, f)
		if o.host.clean(c.startNs, c.startNs+c.wallNs) {
			clean = append(clean, f)
		}
		setups = append(setups, float64(c.setupNs)/1e9)
		timed += len(clock.spans)
		heapMB = max(heapMB, c.heapMB)
	}
	// Calls the hypervisor stole more than 1% of the CPU time from are
	// left out while at least three clean ones remain.
	use := clean
	if len(use) < 3 {
		use = all
	}
	var pps, cpu, p50, p99 []float64
	for _, f := range use {
		pps, cpu = append(pps, f.pps), append(cpu, f.cpu)
		p50, p99 = append(p50, f.p50), append(p99, f.p99)
	}
	m := ref
	fmt.Fprintf(w, "sim-paper: T5, %d Simulate calls of %v virtual (%d used, %d without stolen CPU time), %d packets each (completed %d, dropped %d, ooo %d, migrations %d); %d decisions timed (1 in 64)\n",
		len(all), simDuration(o), len(use), len(clean), m.Injected, m.Completed, m.Dropped, m.OutOfOrder, m.Migrations, timed)
	// Every figure is the median over calls.
	simPPS := median(pps)
	rep.metrics["max_rate_pps"] = simPPS
	rep.metrics["sim_pps"] = simPPS
	rep.metrics["lat_p50_us"] = median(p50)
	rep.metrics["lat_p99_us"] = median(p99)
	rep.metrics["cpu_ns_per_pkt"] = median(cpu)
	rep.metrics["heap_peak_mb"] = heapMB
	rep.metrics["setup_s"] = median(setups)
	return rep, nil
}

// timedScheduler wraps the LAPS scheduler, timing one decision in
// every `every` (a power of two) and forwarding the optional
// interfaces LAPS implements, so the wrapped run decides exactly as the
// bare one does.
type timedScheduler struct {
	inner *laps.Scheduler
	every uint64
	keep  int // most spans kept

	n     uint64  // decisions
	spans []int64 // sampled decision durations, ns
	sum   int64   // sum of all sampled durations
	log   *spanLog
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) Target(p *laps.Packet, v laps.SystemView) int {
	s.n++
	if s.n&(s.every-1) != 0 {
		return s.inner.Target(p, v)
	}
	t0 := now()
	c := s.inner.Target(p, v)
	s.record(t0, now()-t0)
	return c
}

func (s *timedScheduler) TargetN(p *laps.Packet, n int, v laps.SystemView) int {
	s.n++
	if s.n&(s.every-1) != 0 {
		return s.inner.TargetN(p, n, v)
	}
	t0 := now()
	c := s.inner.TargetN(p, n, v)
	s.record(t0, now()-t0)
	return c
}

func (s *timedScheduler) record(t0, d int64) {
	s.sum += d
	if len(s.spans) < s.keep {
		s.spans = append(s.spans, d)
	}
	s.log.add("core.Target", "core", t0, d)
}

// sampled is how many decisions were timed.
func (s *timedScheduler) sampled() uint64 { return s.n / s.every }

func (s *timedScheduler) Generation() uint64 { return s.inner.Generation() }

func (s *timedScheduler) Snapshot(t laps.Time) npsim.Forwarder { return s.inner.Snapshot(t) }

func (s *timedScheduler) SetRecorder(r *laps.Recorder) { s.inner.SetRecorder(r) }

// timedSource wraps a trace source, timing one Next in every 16.
type timedSource struct {
	inner laps.TraceSource
	n     uint64
	sum   int64
	log   *spanLog
}

func (s *timedSource) Name() string { return s.inner.Name() }

func (s *timedSource) Next() (laps.TraceRecord, bool) {
	s.n++
	if s.n&15 != 0 {
		return s.inner.Next()
	}
	t0 := now()
	r, ok := s.inner.Next()
	d := now() - t0
	s.sum += d
	s.log.add("trace.Next", "trace", t0, d)
	return r, ok
}

// runSimTraced is sim-paper's per-layer run: a bare reference call, a
// call with every layer wrapped whose outputs must equal it bit for
// bit, then the replay ladder over the scenario's own records.
func runSimTraced(o options, w io.Writer) (*report, error) {
	rep := newReport()
	log := newSpanLog(o)
	ref, err := simulate(func() laps.SimConfig { return simConfig(o, nil, nil) })
	if err != nil {
		return nil, err
	}
	checkSim(rep, ref, nil, "bare simulate")
	log.add("laps.Simulate (bare)", "sim", ref.startNs, ref.wallNs)

	sched := &timedScheduler{inner: newLAPS(o), every: 16, keep: 1 << 16, log: log}
	var srcs []*timedSource
	tr, err := simulate(func() laps.SimConfig {
		return simConfig(o, sched, func(s laps.TraceSource) laps.TraceSource {
			ts := &timedSource{inner: s, log: log}
			srcs = append(srcs, ts)
			return ts
		})
	})
	if err != nil {
		return nil, err
	}
	checkSim(rep, tr, &ref.res.Metrics, "traced simulate")

	m := tr.res.Metrics
	st := sched.inner.Stats()
	var nexts, nextSum int64
	for _, s := range srcs {
		nexts += int64(s.n)
		nextSum += s.sum
	}
	targetNs := float64(sched.sum) / float64(max(sched.sampled(), 1))
	nextNs := float64(nextSum) / float64(max(nexts/16, 1))
	self := float64(tr.wallNs) - targetNs*float64(sched.n) - nextNs*float64(nexts)
	pk := float64(m.Injected)

	x := rep.metrics
	x["core.target_ns"] = targetNs
	x["core.decisions"] = float64(sched.n)
	x["core.migrations"] = float64(st.Migrations)
	x["core.core_requests"] = float64(st.CoreRequests)
	x["core.grants"] = float64(st.CoreGrants)
	x["core.surplus_marks"] = float64(st.SurplusMarks)
	x["trace.next_ns"] = nextNs
	x["sim.self_ns_per_pkt"] = self / pk
	x["npsim.drop_ratio"] = m.DropRate()
	x["npsim.ooo_ratio"] = m.OOORate()
	x["npsim.migrations"] = float64(m.Migrations)
	x["npsim.est_ooo"] = float64(m.EstimatedOOO)
	x["npsim.flow_budget_hits"] = float64(m.FlowBudgetHits)
	x["go.alloc_bytes_per_pkt"] = float64(ref.gc.allocBytes) / pk
	x["go.gc_cycles"] = float64(ref.gc.gcCycles)
	refCPU := float64(ref.cpuNs) / pk
	x["trace.overhead_pct"] = 100 * (float64(tr.cpuNs)/pk - refCPU) / refCPU
	fmt.Fprintf(w, "sim-paper traced: %d decisions (%.1f ns, 1 in 16 timed), %d trace reads (%.1f ns), self %.1f ns/pkt; outputs identical to the bare run: %t\n",
		sched.n, targetNs, nexts, nextNs, self/pk, rep.failed == 0)

	recs := simRecords(o, 1<<17)
	replayLadder(rep, recs, 32, 0, o.seed, refCPU, w)
	log.write(w)
	return rep, nil
}

// simRecords draws n records from T5's four sources round robin, with
// per-flow sequence numbers, for the replay ladder.
func simRecords(o options, n int) []recordIn {
	sc := exp.Scenarios()[simScenario]
	var srcs [packet.NumServices]laps.TraceSource
	for i := range srcs {
		srcs[i] = sc.Group.Sources[i]()
	}
	out := make([]recordIn, 0, n)
	for i := 0; i < n; i++ {
		svc := i % packet.NumServices
		r, _ := srcs[svc].Next()
		out = append(out, recordIn{flow: r.Flow, svc: laps.ServiceID(svc), size: r.Size})
	}
	return numberFlows(out)
}
