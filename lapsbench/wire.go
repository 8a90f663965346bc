package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"laps"
	"laps/internal/ingress"
	"laps/internal/packet"
	rt "laps/internal/runtime"
	"laps/internal/traffic"
)

// wireSpec is one UDP front-door workload: lapsd's configuration plus
// the traffic the benchmark's generator offers it.
type wireSpec struct {
	name        string
	dispatchers int // 0: single-dispatcher Engine; >0: Sharded
	sockets     int // SO_REUSEPORT sockets, and sender connections
	recs        int // records per datagram
	budget      int // StackConfig.FlowBudget
	// nominal is the offered rate, below the knee, at which latency and
	// CPU cost are measured. The throughput search climbs the fixed
	// ladder of offered rates rung(i) = ladderBase * ladderStep^i,
	// starting from startRung.
	nominal    float64
	ladderBase float64
	startRung  int
	latLimit   time.Duration // p99 limit on a rung
	source     func(seed uint64) recordSource
}

// ladderStep is the ratio between neighbouring ladder rungs.
const ladderStep = 1.05

func (w wireSpec) rung(i int) float64 { return w.ladderBase * math.Pow(ladderStep, float64(i)) }

// The wire workloads. Both run lapsd's defaults (4 workers, LAPS,
// backpressure, recycling, adaptive receive vector, 4 MiB SO_RCVBUF);
// README.md gives the reasons for each.
var wireSpecs = map[string]wireSpec{
	"wire-steady": {
		name: "wire-steady", sockets: 1, recs: 32,
		nominal: 200e3, ladderBase: 100e3, startRung: 30,
		latLimit: 25 * time.Millisecond,
		source:   newSteadySource,
	},
	"wire-churn": {
		name: "wire-churn", dispatchers: 2, sockets: 2, recs: 8, budget: 65536,
		nominal: 100e3, ladderBase: 50e3, startRung: 30,
		latLimit: 25 * time.Millisecond,
		source:   newChurnSource,
	},
}

const (
	workers    = 4       // lapsd's default worker count
	rcvBuf     = 4 << 20 // lapsd's default SO_RCVBUF request
	drainGrace = 500 * time.Millisecond

	tickNs = int64(time.Millisecond) // the generator sends each tick's packets together

	// Loss in a step whose generator's p99 tick lag exceeded lagLimit is
	// blamed on the host: the offered load was not the scheduled one.
	lagLimit = 2 * time.Millisecond
	// drainLimit bounds, on a ladder trial, how far the generator may end
	// behind schedule and how long retirement may trail the last send: a
	// backlog that grew during the trial shows in both.
	drainLimit  = 10 * time.Millisecond
	sampleEvery = 16      // one packet in sampleEvery is timed (power of two)
	sampleSlots = 1 << 16 // in-flight sample table (power of two)
	seqSlots    = 1 << 20 // order-check table (power of two)
	seqBits     = 28      // sequence bits kept per order-check entry
)

// recordSource yields a workload's wire records, per-flow sequence
// numbers included, deterministically from a seed.
type recordSource interface{ next() ingress.Record }

// steadySource is 1024 long-lived flows sent round robin.
type steadySource struct {
	flows []packet.FlowKey
	n     uint64
}

func newSteadySource(seed uint64) recordSource {
	rng := rand.New(rand.NewPCG(seed, 0x5713ad1))
	flows := make([]packet.FlowKey, 1024)
	for i := range flows {
		flows[i] = packet.FlowKey{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
			Proto: packet.ProtoUDP,
		}
	}
	return &steadySource{flows: flows}
}

func (s *steadySource) next() ingress.Record {
	n := uint64(len(s.flows))
	i, seq := s.n%n, s.n/n
	s.n++
	return ingress.Record{Flow: s.flows[i], Service: packet.ServiceID(i % packet.NumServices), Size: 64, Seq: seq}
}

// churnSource is the million-flow churn preset: 65536 live flows with
// Pareto lifetimes, each finished flow replaced by a new one.
type churnSource struct{ c *traffic.Churn }

func newChurnSource(seed uint64) recordSource {
	return churnSource{traffic.MillionFlowChurn(int(seed % (1 << 30)))}
}

func (s churnSource) next() ingress.Record {
	rec, seq, _ := s.c.NextSeq()
	// High hash bits pick the service; the low ones pick the connection.
	svc := packet.ServiceID((flowMix(rec.Flow) >> 32) % packet.NumServices)
	return ingress.Record{Flow: rec.Flow, Service: svc, Size: rec.Size, Seq: seq}
}

// flowMix is a 64-bit hash of the full 5-tuple, independent of the
// program's CRC16 so the checks share nothing with the code they check.
func flowMix(f packet.FlowKey) uint64 {
	x := uint64(f.SrcIP)<<32 | uint64(f.DstIP)
	y := uint64(f.SrcPort)<<24 | uint64(f.DstPort)<<8 | uint64(f.Proto)
	return mix64(x ^ mix64(y+0x9e3779b97f4a7c15))
}

func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// sampleKey identifies packet (flow, seq); a packet is timed when the
// key's low bits are zero, so sender and handler agree without sharing
// a list.
func sampleKey(fm, seq uint64) uint64 { return mix64(fm + seq*0x9e3779b97f4a7c15) }

func isSampled(key uint64) bool { return key&(sampleEvery-1) == 0 }

// sampleSlot holds one timed packet's timestamps (benchmark clock, ns).
type sampleSlot struct {
	key                          atomic.Uint64
	sched, sent, sinkIn, sinkOut atomic.Int64
}

// stageSample is one timed packet's path: scheduled, written to the
// socket, handed to the engine, returned from the engine, retired.
type stageSample struct {
	fm, seq                       uint64
	sched, sent, in, out, retired int64
}

// workerTap is one worker's share of the handler's measurements; only
// that worker writes it.
type workerTap struct {
	done   atomic.Uint64
	ooo    uint64
	lat    []int64 // latency of each timed packet
	at     []int64 // its scheduled send time
	stages []stageSample
	_      [64]byte // keep workers' counters on separate cache lines
}

// tap is the benchmark's Handler: an independent per-flow order check
// and the sampled latency clock, on pre-allocated, bounded tables.
type tap struct {
	workers []workerTap
	seq     []atomic.Uint64
	samples []sampleSlot
	traced  bool
	first   atomic.Int64 // time of the first retired packet

	plant     bool
	plantFlow uint64
}

func newTap(traced bool, maxSamples int) *tap {
	t := &tap{
		workers: make([]workerTap, workers),
		seq:     make([]atomic.Uint64, seqSlots),
		samples: make([]sampleSlot, sampleSlots),
		traced:  traced,
	}
	// Any worker may retire any share of the timed packets.
	for i := range t.workers {
		t.workers[i].lat = make([]int64, 0, maxSamples)
		t.workers[i].at = make([]int64, 0, maxSamples)
		if traced {
			t.workers[i].stages = make([]stageSample, 0, maxSamples)
		}
	}
	return t
}

func (t *tap) slot(key uint64) *sampleSlot { return &t.samples[(key>>32)&(sampleSlots-1)] }

// handle runs on the worker for every retired packet.
func (t *tap) handle(worker int, p *packet.Packet) {
	w := &t.workers[worker]
	if w.done.Add(1) == 1 {
		t.first.CompareAndSwap(0, now())
	}
	fm := flowMix(p.Flow)
	seq := p.FlowSeq
	if t.plant && fm == t.plantFlow && seq < 2 {
		seq ^= 1 // present seq 1 before seq 0
	}
	// Each entry holds a flow tag and its last sequence number plus one.
	// A different flow in the slot only overwrites it, so a collision
	// can hide a reorder but never invent one.
	const low = 1<<seqBits - 1
	tag := fm>>seqBits | 1
	e := &t.seq[fm&(seqSlots-1)]
	if old := e.Load(); old>>seqBits == tag && old&low > seq&low {
		w.ooo++
	}
	e.Store(tag<<seqBits | (seq+1)&low)

	key := sampleKey(fm, p.FlowSeq)
	if !isSampled(key) {
		return
	}
	s := t.slot(key)
	if s.key.Load() != key {
		return
	}
	d := now()
	sched := s.sched.Load()
	if len(w.lat) < cap(w.lat) {
		w.lat = append(w.lat, d-sched)
		w.at = append(w.at, sched)
	}
	if t.traced && len(w.stages) < cap(w.stages) {
		sent, in, out := s.sent.Load(), s.sinkIn.Load(), s.sinkOut.Load()
		if in == 0 || sent == 0 {
			return
		}
		if out == 0 || out > d {
			out = d // retired before the dispatch call returned
		}
		w.stages = append(w.stages, stageSample{fm: fm, seq: p.FlowSeq, sched: sched, sent: sent, in: in, out: out, retired: d})
	}
}

func (t *tap) handled() uint64 {
	var n uint64
	for i := range t.workers {
		n += t.workers[i].done.Load()
	}
	return n
}

// burstTap wraps the engine's burst entry point as the group's
// BurstSink, timing each call and stamping the sampled packets in it.
type burstTap struct {
	t        *tap
	dispatch func([]*packet.Packet) int
	sched    *timedScheduler // the engine's scheduler, for its decision clock
	spanNs   int64
	pkts     uint64
	hit      []*sampleSlot
	spans    []span // the first calls, for the Chrome trace
}

func (b *burstTap) sink(ps []*packet.Packet) {
	in := now()
	b.hit = b.hit[:0]
	for _, p := range ps {
		key := sampleKey(flowMix(p.Flow), p.FlowSeq)
		if isSampled(key) {
			if s := b.t.slot(key); s.key.Load() == key {
				s.sinkIn.Store(in)
				b.hit = append(b.hit, s)
			}
		}
	}
	n := len(ps)
	b.dispatch(ps) // the engine owns (and may recycle) the packets now
	out := now()
	for _, s := range b.hit {
		s.sinkOut.Store(out)
	}
	b.spanNs += out - in
	b.pkts += uint64(n)
	if len(b.spans) < cap(b.spans) {
		b.spans = append(b.spans, span{Name: "runtime.dispatch", Cat: "runtime", Ph: "X",
			Ts: float64(in) / 1e3, Dur: float64(out-in) / 1e3, Pid: 1, Tid: 1000, Args: map[string]any{"pkts": n}})
	}
}

// generator is the open-loop load: one goroutine, fixed rate, each
// 1 ms tick's packets sent together and scheduled at the tick.
type generator struct {
	t       *tap
	src     recordSource
	recs    int
	senders []*ingress.Sender
	open    []int           // records in each connection's open datagram
	pending [][]*sampleSlot // timed packets in each open datagram

	lags   []int64 // per tick: send start minus scheduled tick
	sendNs int64   // time spent producing and writing datagrams
	errs   uint64
}

func newGenerator(t *tap, src recordSource, recs int, conns []*net.UDPConn, ticks int) *generator {
	g := &generator{t: t, src: src, recs: recs, lags: make([]int64, 0, ticks+1)}
	for _, c := range conns {
		g.senders = append(g.senders, ingress.NewSender(c, recs))
		g.open = append(g.open, 0)
		g.pending = append(g.pending, make([]*sampleSlot, 0, recs))
	}
	return g
}

// run offers total packets at rate packets/s.
func (g *generator) run(rate float64, total uint64) {
	perTick := rate * float64(tickNs) / 1e9
	t0 := now()
	var n uint64
	for k := int64(0); n < total; k++ {
		due := t0 + k*tickNs
		if d := due - now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		start := now()
		g.lags = append(g.lags, start-due)
		target := uint64(float64(k+1) * perTick)
		if target > total {
			target = total
		}
		for ; n < target; n++ {
			g.emit(g.src.next(), due)
		}
		for c := range g.senders {
			g.flush(c)
		}
		g.sendNs += now() - start
	}
}

func (g *generator) emit(r ingress.Record, due int64) {
	fm := flowMix(r.Flow)
	c := int(fm % uint64(len(g.senders))) // a flow always uses one connection
	if key := sampleKey(fm, r.Seq); isSampled(key) {
		s := g.t.slot(key)
		s.key.Store(0)
		s.sched.Store(due)
		s.sent.Store(0)
		s.sinkIn.Store(0)
		s.sinkOut.Store(0)
		s.key.Store(key)
		g.pending[c] = append(g.pending[c], s)
	}
	if g.open[c]+1 == g.recs {
		g.stampSent(c) // this record fills the datagram: SendRecord writes it
	}
	if err := g.senders[c].SendRecord(r); err != nil {
		g.errs++
	}
	g.open[c] = (g.open[c] + 1) % g.recs
}

func (g *generator) flush(c int) {
	if g.open[c] == 0 {
		return
	}
	g.stampSent(c)
	if err := g.senders[c].Flush(); err != nil {
		g.errs++
	}
	g.open[c] = 0
}

func (g *generator) stampSent(c int) {
	t := now()
	for _, s := range g.pending[c] {
		s.sent.Store(t)
	}
	g.pending[c] = g.pending[c][:0]
}

// sent is the number of records the kernel accepted.
func (g *generator) sent() uint64 {
	var n uint64
	for _, s := range g.senders {
		n += s.Sent() - s.Dropped()
	}
	return n
}

func (g *generator) datagrams() uint64 {
	var n uint64
	for _, s := range g.senders {
		n += s.Datagrams()
	}
	return n
}

// openGroup binds the receive sockets and one connected sender per
// socket. The kernel's REUSEPORT hash is keyed per boot, so sender
// source ports are chosen by probing: each candidate sends one byte and
// is kept if it lands on a socket no kept sender reaches yet.
func openGroup(n int) ([]net.PacketConn, []*net.UDPConn, error) {
	conns, _, err := ingress.ListenGroup("127.0.0.1:0", n)
	if err != nil {
		return nil, nil, fmt.Errorf("listen: %w", err)
	}
	closeAll := func(senders []*net.UDPConn) {
		for _, c := range conns {
			c.Close()
		}
		for _, s := range senders {
			if s != nil {
				s.Close()
			}
		}
	}
	addr := conns[0].LocalAddr().(*net.UDPAddr)
	senders := make([]*net.UDPConn, len(conns))
	if len(conns) == 1 {
		s, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			closeAll(nil)
			return nil, nil, fmt.Errorf("dial: %w", err)
		}
		senders[0] = s
		return conns, senders, nil
	}
	found := 0
	buf := make([]byte, 16)
	for attempt := 0; attempt < 256 && found < len(conns); attempt++ {
		s, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			closeAll(senders)
			return nil, nil, fmt.Errorf("dial: %w", err)
		}
		if _, err := s.Write([]byte{0}); err != nil {
			s.Close()
			closeAll(senders)
			return nil, nil, fmt.Errorf("probe: %w", err)
		}
		owner := -1
		for i, c := range conns {
			c.SetReadDeadline(time.Now().Add(2 * time.Millisecond))
			if _, _, err := c.ReadFrom(buf); err == nil {
				owner = i
				break
			}
		}
		if owner >= 0 && senders[owner] == nil {
			senders[owner] = s
			found++
		} else {
			s.Close()
		}
	}
	for _, c := range conns {
		c.SetReadDeadline(time.Time{})
	}
	if found < len(conns) {
		closeAll(senders)
		return nil, nil, errInvalid{fmt.Sprintf("no sender port reached all %d REUSEPORT sockets", len(conns))}
	}
	return conns, senders, nil
}

// stepResult is one pipeline run at one offered rate.
type stepResult struct {
	rate      float64
	sent      uint64
	res       *laps.RunResult
	tap       *tap
	gen       *generator
	burst     *burstTap // traced runs only
	genNs     int64     // generation window
	drainNs   int64     // last send to last retirement (-1: never drained)
	setupNs   int64     // step start to first retired packet
	cpuNs     int64
	gc        goCounters
	heapMB    float64
	invalid   string
	lat, at   []int64 // timed packets' latency and scheduled send time
	g0        int64   // generation start
	stages    []stageSample
	ooo       uint64
	delivered float64 // retired packets per second of the generation window
}

// runStep builds a fresh pipeline, offers total packets at rate, waits
// for retirement, and tears the pipeline down. traced selects the
// benchmark-assembled pipeline with the timed BurstSink instead of
// laps.Run.
func runStep(o options, spec wireSpec, rate float64, total uint64, traced bool) (*stepResult, error) {
	t := newTap(traced, int(total/sampleEvery)+1024)
	// The heap is measured from a collected baseline that already holds
	// the benchmark's own tables, so the peak is the pipeline's.
	runtime.GC()
	heap := watchHeap()
	start := now()
	src := spec.source(o.seed)
	if o.plantReorder {
		t.plant = true
		r := spec.source(o.seed).next()
		t.plantFlow = flowMix(r.Flow)
	}
	conns, senders, err := openGroup(spec.sockets)
	if err != nil {
		heap.end()
		return nil, err
	}
	ticks := int(float64(total)/rate*1e3) + 2
	g := newGenerator(t, src, spec.recs, senders, ticks)
	defer func() {
		for _, s := range senders {
			s.Close()
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type out struct {
		res   *laps.RunResult
		burst *burstTap
		err   error
	}
	done := make(chan out, 1)
	if traced {
		go func() {
			r, b, err := runAssembled(ctx, o.seed, spec, conns, t)
			done <- out{r, b, err}
		}()
	} else {
		cfg := laps.RunConfig{
			StackConfig: laps.StackConfig{Scheduler: laps.LAPS, Seed: o.seed, FlowBudget: spec.budget, Memory: laps.MemoryAuto},
			Workers:     workers,
			Dispatchers: spec.dispatchers,
			Block:       true,
			Recycle:     true,
			Handler:     t.handle,
			Context:     ctx,
			Ingress: &laps.IngressConfig{
				Conns: conns, AdaptiveBatch: true, ReadBuffer: rcvBuf, DrainGrace: drainGrace,
			},
		}
		go func() {
			r, err := laps.Run(cfg)
			done <- out{r, nil, err}
		}()
	}

	cpu0, gc0 := cpuNanos(), readGoCounters()
	g0 := now()
	g.run(rate, total)
	genEnd := now()
	sent := g.sent()
	drain := int64(-1)
	for deadline := genEnd + int64(time.Second); now() < deadline; time.Sleep(100 * time.Microsecond) {
		if t.handled() >= sent {
			drain = now() - genEnd
			break
		}
	}
	cpu1, gc1 := cpuNanos(), readGoCounters()
	heapMB := heap.end()
	cancel()
	r := <-done
	if r.err != nil {
		return nil, r.err
	}
	st := &stepResult{
		rate: rate, sent: sent, res: r.res, tap: t, gen: g, burst: r.burst,
		g0: g0, genNs: genEnd - g0, drainNs: drain, cpuNs: cpu1 - cpu0, gc: gc1.sub(gc0), heapMB: heapMB,
	}
	if f := t.first.Load(); f > 0 {
		st.setupNs = f - start
	}
	for i := range t.workers {
		w := &t.workers[i]
		st.lat = append(st.lat, w.lat...)
		st.at = append(st.at, w.at...)
		st.stages = append(st.stages, w.stages...)
		st.ooo += w.ooo
	}
	if st.genNs > 0 {
		st.delivered = float64(r.res.Live.Processed) / (float64(st.genNs+tickNs) / 1e9)
	}
	st.invalid = st.validity(spec)
	return st, nil
}

// runAssembled is laps.Run's ingress pipeline built from the same
// ingress and runtime configurations, with the benchmark's timed
// BurstSink between the socket group and the engine.
func runAssembled(ctx context.Context, seed uint64, spec wireSpec, conns []net.PacketConn, t *tap) (*laps.RunResult, *burstTap, error) {
	sched := &timedScheduler{
		inner: laps.NewScheduler(laps.SchedulerConfig{
			TotalCores: workers, Services: laps.NumServices,
			AFD: laps.DetectorConfig{Seed: seed},
		}),
		every: 16,
	}
	pool := packet.NewPool()
	cfg := rt.Config{
		Workers: workers, Dispatchers: spec.dispatchers, Sched: sched,
		Policy: rt.BlockWhenFull, Handler: t.handle,
		FlowBudget: spec.budget, Memory: laps.MemoryAuto, Pool: pool,
	}
	var (
		dispatch func([]*packet.Packet) int
		flush    func()
		start    func(context.Context)
		stop     func() *rt.Result
	)
	if spec.dispatchers > 0 {
		e, err := rt.NewSharded(cfg)
		if err != nil {
			return nil, nil, err
		}
		dispatch, flush, start, stop = e.IngestBurst, func() {}, e.Start, e.Stop
	} else {
		e, err := rt.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		dispatch, flush, start, stop = e.DispatchBurst, e.Flush, e.Start, e.Stop
	}
	b := &burstTap{t: t, dispatch: dispatch, hit: make([]*sampleSlot, 0, ingress.MaxRecords), sched: sched, spans: make([]span, 0, 2000)}
	grp, err := ingress.NewGroup(ingress.GroupConfig{
		Conns: conns, AdaptiveBatch: true, Pool: pool,
		BurstSink: b.sink, Flush: flush, ReadBuffer: rcvBuf, DrainGrace: drainGrace,
	})
	if err != nil {
		return nil, nil, err
	}
	start(ctx)
	grp.Start(ctx)
	<-ctx.Done()
	st := grp.Stop()
	live := stop()
	if err := grp.Err(); err != nil {
		return nil, nil, err
	}
	ls := sched.inner.Stats()
	return &laps.RunResult{
		Live: *live, Generated: st.Packets, Scheduler: sched.Name(), LapsStats: &ls,
		Ingress: &st, IngressSockets: grp.SocketStats(),
	}, b, nil
}

// validity names what, if anything, made the step not a measurement of
// the program. A REUSEPORT socket that received nothing means the step
// did not run the workload's configuration. Loss is blamed on the
// environment when the generator ran late, the granted receive buffer
// cannot hold a tick's burst, or loopback writes failed; a step without
// loss stays a measurement, since a late generator only adds to the
// latency it reports, which counts from the scheduled send time.
func (s *stepResult) validity(spec wireSpec) string {
	if len(s.res.IngressSockets) > 1 {
		for i, ss := range s.res.IngressSockets {
			if ss.Datagrams == 0 {
				return fmt.Sprintf("socket %d received no datagrams", i)
			}
		}
	}
	if s.res.Live.Processed == s.sent {
		return ""
	}
	lags := append([]int64(nil), s.gen.lags...)
	if p := quantile(lags, 0.99); p > int64(lagLimit) {
		return fmt.Sprintf("generator p99 tick lag %.2f ms > %v", float64(p)/1e6, lagLimit)
	}
	if s.gen.errs > 0 {
		return fmt.Sprintf("%d datagram writes failed on loopback", s.gen.errs)
	}
	// One tick's datagrams must fit the granted receive buffer twice
	// over; each datagram costs its payload plus ~1 KiB of kernel
	// bookkeeping.
	perTick := s.rate * float64(tickNs) / 1e9
	burst := perTick / float64(spec.recs) * float64(ingress.HeaderLen+spec.recs*ingress.RecordLen+1024)
	if rb := s.res.Ingress.RcvBuf; rb > 0 && float64(rb) < 2*burst {
		return fmt.Sprintf("SO_RCVBUF %d B cannot hold two %0.f B ticks", rb, burst)
	}
	return ""
}

// checkStep runs the output checks every step must pass at any offered
// rate, counting each failure into rep.
func checkStep(rep *report, s *stepResult) {
	l, in := s.res.Live, s.res.Ingress
	at := fmt.Sprintf("at %.0f pkt/s", s.rate)
	// laps.Run recycles, undispatched, what it decodes after its context
	// is cancelled; only a step that drained before the cancel must have
	// dispatched every decoded packet.
	if s.drainNs >= 0 || in.Packets < l.Dispatched {
		rep.check(in.Packets == l.Dispatched, diff(in.Packets, l.Dispatched),
			"conservation %s: decoded %d != dispatched %d", at, in.Packets, l.Dispatched)
	}
	rep.check(l.Dispatched == l.Processed+l.Dropped, diff(l.Dispatched, l.Processed+l.Dropped),
		"conservation %s: dispatched %d != processed %d + dropped %d", at, l.Dispatched, l.Processed, l.Dropped)
	rep.check(s.tap.handled() == l.Processed, diff(s.tap.handled(), l.Processed),
		"conservation %s: handler saw %d != processed %d", at, s.tap.handled(), l.Processed)
	rep.check(in.Packets <= s.sent, in.Packets-s.sent,
		"conservation %s: decoded %d > sent %d", at, in.Packets, s.sent)
	rep.check(s.ooo == 0, s.ooo, "order %s: %d packets retired behind a later packet of their flow (handler check)", at, s.ooo)
	rep.check(trueOOO(l) == 0, trueOOO(l), "order %s: engine tracker counted %d exact out-of-order departures", at, trueOOO(l))
	rep.check(in.Malformed == 0, in.Malformed, "wire %s: %d malformed datagrams", at, in.Malformed)
}

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// passes reports whether a ladder trial met the throughput conditions:
// offered on schedule, no loss, no reordering, p99 within the limit,
// and a backlog that drained within the same limit once sending ended.
func (s *stepResult) passes(spec wireSpec) (bool, string) {
	switch {
	case s.invalid != "":
		return false, "invalid: " + s.invalid
	case s.gen.lags[len(s.gen.lags)-1] > int64(drainLimit):
		return false, fmt.Sprintf("host could not offer the rate: generator %.1f ms behind at the end",
			float64(s.gen.lags[len(s.gen.lags)-1])/1e6)
	case s.res.Live.Processed != s.sent:
		return false, fmt.Sprintf("lost %d of %d", s.sent-s.res.Live.Processed, s.sent)
	case s.ooo != 0 || trueOOO(s.res.Live) != 0:
		return false, "reordered"
	case s.drainNs < 0 || s.drainNs > int64(drainLimit):
		return false, fmt.Sprintf("backlog drained in %.1f ms", float64(s.drainNs)/1e6)
	}
	if p99 := quantile(s.lat, 0.99); p99 > int64(spec.latLimit) {
		return false, fmt.Sprintf("p99 %.0f us over the limit", float64(p99)/1e3)
	}
	return true, ""
}

// trueOOO is the engine tracker's exact out-of-order count: its sketch
// estimates past the flow budget are one-sided over-counts, reported
// separately as npsim.est_ooo.
func trueOOO(l laps.EngineStats) uint64 { return l.OutOfOrder - l.EstimatedOOO }

// latWindow is the interval latency quantiles are taken over; a window
// needs minWindowSamples timed packets so its p99 has ten beyond it.
const (
	latWindow        = 250 * time.Millisecond
	minWindowSamples = 1000
	minCleanWindows  = 8
)

// windowQuantiles returns the p50 and p99 (us) of each full latency
// window of a step, and how many full windows the hypervisor stole CPU
// time in; those are left out unless keepStolen is set.
// At smoke-test size a whole segment is one window of any size.
func windowQuantiles(s *stepResult, host *hostMonitor, keepStolen, small bool) (p50, p99 []float64, stolen int) {
	win, least := int64(latWindow), minWindowSamples
	if small {
		win, least = s.genNs+1, 1
	}
	byWin := map[int64][]int64{}
	for i, at := range s.at {
		k := (at - s.g0) / win
		byWin[k] = append(byWin[k], s.lat[i])
	}
	for k, xs := range byWin {
		if len(xs) < least {
			continue
		}
		a := s.g0 + k*win
		// A window's packets retire up to the drain limit after it ends.
		if !host.clean(a, a+win+int64(drainLimit)) {
			stolen++
			if !keepStolen {
				continue
			}
		}
		p50 = append(p50, float64(quantile(xs, 0.50))/1e3)
		p99 = append(p99, float64(quantile(xs, 0.99))/1e3)
	}
	return p50, p99, stolen
}

// wirePlan splits a run's measured time between the phases.
type wirePlan struct {
	trialSecs   float64 // one ladder trial
	ladderSecs  float64 // the whole throughput search
	nominalSecs float64 // all nominal-rate segments together
	nominalSegs int
}

func planWire(o options) wirePlan {
	if o.small {
		return wirePlan{trialSecs: 0.05, ladderSecs: 0.3, nominalSecs: 0.2, nominalSegs: 2}
	}
	return wirePlan{trialSecs: 0.4, ladderSecs: o.seconds * 0.6, nominalSecs: o.seconds * 0.4, nominalSegs: 5}
}

// wireRun accumulates one wire invocation's measurements.
type wireRun struct {
	o      options
	spec   wireSpec
	w      io.Writer
	rep    *report
	setups []float64
	heapMB float64
	// interfered counts ladder trials rerun for stolen CPU time.
	interfered int
}

// step runs one pipeline and folds its checks and set-up time in.
func (r *wireRun) step(rate float64, secs float64, traced bool) (*stepResult, error) {
	s, err := runStep(r.o, r.spec, rate, uint64(rate*secs), traced)
	if err != nil {
		return nil, err
	}
	checkStep(r.rep, s)
	r.setups = append(r.setups, float64(s.setupNs)/1e9)
	r.heapMB = max(r.heapMB, s.heapMB)
	return s, nil
}

// nominal runs the nominal-rate segments, retrying a segment the
// environment spoiled up to twice, and requires zero loss.
func (r *wireRun) nominal(secs float64, segs int, traced bool) ([]*stepResult, error) {
	var out []*stepResult
	for i := 0; i < segs; i++ {
		var s *stepResult
		for attempt := 0; ; attempt++ {
			var err error
			if s, err = r.step(r.spec.nominal, secs/float64(segs), traced); err != nil {
				return nil, err
			}
			if s.invalid == "" {
				break
			}
			fmt.Fprintf(r.w, "nominal %s: segment invalid (%s)\n", r.spec.name, s.invalid)
			if attempt == 2 {
				return nil, errInvalid{s.invalid}
			}
		}
		r.rep.attempted += s.sent
		lost := s.sent - s.res.Live.Processed
		r.rep.check(lost == 0, lost, "loss at the nominal rate %.0f pkt/s: %d of %d packets not retired",
			r.spec.nominal, lost, s.sent)
		out = append(out, s)
	}
	return out, nil
}

// climb is the throughput search over the fixed ladder. A coarse phase
// jumps two rungs per passing trial until a rung fails twice in a row.
// A staircase then
// takes a verdict per rung from two trials that agree, with a third to
// break a tie, so one host stall cannot decide a rung: a pass (the
// repeat confirms it) steps one rung up, a fail one rung down. The
// result is the mean delivered rate of the rungs that passed after the
// staircase first stepped down, which sits at the knee with sub-rung
// resolution.
func (r *wireRun) climb(plan wirePlan) (float64, error) {
	deadline := now() + int64(plan.ladderSecs*1e9)
	i := r.spec.startRung
	trial := func(i int) (*stepResult, bool, error) {
		for attempt := 1; ; attempt++ {
			s, err := r.step(r.spec.rung(i), plan.trialSecs, false)
			if err != nil {
				return nil, false, err
			}
			// A trial the hypervisor stole CPU time from is run again, up
			// to twice; on a host that never stops stealing the third counts.
			if attempt < 3 && !r.o.host.clean(s.g0, s.g0+s.genNs+drainLimit.Nanoseconds()) {
				r.interfered++
				continue
			}
			ok, why := s.passes(r.spec)
			if ok {
				r.rep.attempted += s.sent
			} else {
				fmt.Fprintf(r.w, "ladder %s: rung %d (%.0f pkt/s) trial fails: %s\n", r.spec.name, i, s.rate, why)
			}
			return s, ok, nil
		}
	}
	for failed := 0; failed < 2; {
		_, ok, err := trial(i)
		if err != nil {
			return 0, err
		}
		if ok {
			failed = 0
			i += 2
		} else {
			failed++
		}
	}
	i = max(i-1, 0)
	var all, settled []float64
	reversed := false
	// The staircase runs to the deadline, and past it only until a first
	// rung passes.
	for verdicts := 0; now() < deadline || (len(all) == 0 && verdicts < 20); verdicts++ {
		var passed []float64
		failed := 0
		for len(passed) < 2 && failed < 2 {
			s, ok, err := trial(i)
			if err != nil {
				return 0, err
			}
			if ok {
				passed = append(passed, s.delivered)
			} else {
				failed++
			}
		}
		if failed == 2 {
			reversed = true
			i = max(i-1, 0)
			continue
		}
		rate := (passed[0] + passed[1]) / 2
		fmt.Fprintf(r.w, "ladder %s: rung %d (%.0f pkt/s) passes, delivered %.0f\n", r.spec.name, i, r.spec.rung(i), rate)
		all = append(all, rate)
		if reversed {
			settled = append(settled, rate)
		}
		i++
	}
	fmt.Fprintf(r.w, "ladder %s: %d trials rerun because the hypervisor stole CPU time\n", r.spec.name, r.interfered)
	if len(settled) == 0 && len(all) > 0 {
		// The staircase never stepped down: the highest rung it passed.
		settled = all[len(all)-1:]
	}
	if len(settled) == 0 {
		// At smoke-test size (or under the race detector) even the lowest
		// rungs may not hold; at full size that is a real failure.
		if !r.o.small {
			r.rep.fail(1, "ladder %s: no rung passed", r.spec.name)
		}
		return 0, nil
	}
	var sum float64
	for _, v := range settled {
		sum += v
	}
	return sum / float64(len(settled)), nil
}

// runWire measures one wire workload's end-to-end metrics.
func runWire(o options, spec wireSpec, w io.Writer) (*report, error) {
	if o.trace {
		return runWireTraced(o, spec, w)
	}
	r := &wireRun{o: o, spec: spec, w: w, rep: newReport()}
	plan := planWire(o)
	segs, err := r.nominal(plan.nominalSecs, plan.nominalSegs, false)
	if err != nil {
		return nil, err
	}
	// Host stalls of a few milliseconds (vCPU preemption on a shared
	// machine) land in a fraction of any interval, so latency is taken
	// per 250 ms window of scheduled send time and reported as the median
	// window: the typical quarter second, not the luckiest or the worst.
	var p50, p99, cpu, delivered []float64
	var timed, stolen int
	var retired uint64
	for _, s := range segs {
		cpu = append(cpu, float64(s.cpuNs)/float64(max(s.res.Live.Processed, 1)))
		delivered = append(delivered, s.delivered)
		timed += len(s.lat)
		retired += s.res.Live.Processed
	}
	// Windows the hypervisor stole CPU time in are left out while enough
	// clean ones remain.
	for _, keep := range []bool{false, true} {
		p50, p99, stolen = nil, nil, 0
		for _, s := range segs {
			a, b, n := windowQuantiles(s, o.host, keep, o.small)
			p50, p99, stolen = append(p50, a...), append(p99, b...), stolen+n
		}
		if len(p99) >= minCleanWindows {
			break
		}
	}
	if len(p99) == 0 {
		r.rep.fail(1, "no 250 ms window held the %d timed packets a p99 needs", minWindowSamples)
	}
	fmt.Fprintf(w, "nominal %s: %.0f pkt/s offered, %d packets retired in %d segments, %d timed (1 in %d); %d windows used, %d with stolen CPU time; window p99 quartiles %.0f/%.0f/%.0f us; effective SO_RCVBUF %d B\n",
		spec.name, spec.nominal, retired, len(segs), timed, sampleEvery, len(p99), stolen,
		quartile(p99, 1), quartile(p99, 2), quartile(p99, 3), segs[0].res.Ingress.RcvBuf)
	best, err := r.climb(plan)
	if err != nil {
		return nil, err
	}
	m := r.rep.metrics
	m["max_rate_pps"] = best
	m["lat_p50_us"] = median(p50)
	m["lat_p99_us"] = median(p99)
	m["cpu_ns_per_pkt"] = median(cpu)
	m["sim_pps"] = median(delivered)
	m["heap_peak_mb"] = r.heapMB
	m["setup_s"] = median(r.setups)
	return r.rep, nil
}
