package runtime

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"laps/internal/crc"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/obs/telemetry"
	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/stats"
)

// Policy selects what the dispatcher does with a packet whose target
// ring is full.
type Policy int

const (
	// DropWhenFull discards the packet and counts it — the behaviour of
	// a hardware frame manager with a full descriptor queue, and of the
	// simulator.
	DropWhenFull Policy = iota
	// BlockWhenFull stalls the dispatcher until the ring drains,
	// applying backpressure to the arrival source. Used by paced
	// replays and the conformance harness, where losing packets would
	// change the comparison.
	BlockWhenFull
)

// Config parameterises an Engine.
type Config struct {
	// Workers is the number of worker goroutines ("cores"); >= 1.
	Workers int
	// RingCap is each worker's SPSC ring capacity (rounded up to a
	// power of two); 0 means 256.
	RingCap int
	// Batch is the dispatch/consume batch size; 0 means 32.
	Batch int
	// Sched picks the target worker per packet. Required. Called only
	// from one goroutine: the caller's on an inline engine, the control
	// plane's on a sharded one.
	Sched npsim.Scheduler
	// Policy is the full-ring behaviour (default DropWhenFull).
	Policy Policy
	// DisableFencing turns off ordering-safe migration: a migrated
	// flow's packets go to the new worker immediately, even while older
	// packets of the flow are still queued on the old one. Exposes the
	// reordering the fence exists to prevent; useful for ablation.
	DisableFencing bool
	// Work emulates per-packet processing cost (default WorkNone).
	Work WorkKind
	// WorkFactor scales the modeled service time into real time for
	// WorkSpin/WorkSleep; 0 means 1.
	WorkFactor float64
	// Services is the processing-time model used by Work; the zero
	// value selects npsim.DefaultServices.
	Services [packet.NumServices]npsim.ServiceDef
	// Handler, when set, is invoked by the owning worker for every
	// packet — the application's processing hook. It runs concurrently
	// across workers but serially within one.
	Handler func(worker int, p *packet.Packet)
	// Recorder, when non-nil, receives control-plane telemetry: drops
	// from the dispatcher, out-of-order departures from workers (merged
	// at Stop), fault-tolerance events from the health monitor, plus
	// whatever the scheduler itself emits. Events are stamped with the
	// runtime clock (ns since New).
	Recorder *obs.Recorder
	// Telemetry, when non-nil, registers live metrics on the registry —
	// scrape-time counters over the engine's atomics plus log-linear
	// latency/wait/fence/recovery histograms recorded at the existing
	// emit sites (worker retire, dispatch resolve, fence release,
	// recovery). Recording is lock-free and allocation-free; nil keeps
	// every record site a single predictable branch, same as Recorder.
	Telemetry *telemetry.Registry
	// MetricsInterval, when positive, samples per-worker queue depths
	// and throughput/drop/reorder rates on the wall clock into
	// Result.Series.
	MetricsInterval time.Duration
	// FlowBudget bounds all per-flow state — reorder watermarks and the
	// fence table — according to Memory. 0 keeps today's exact
	// behaviour. Under MemoryAuto the budget is the live-flow count past
	// which the reorder tracker degrades to a sketch (one-sided OOO
	// estimates, see npsim.TrackerConfig) and the fence table to
	// hash-bucket granularity (coarseFence); under MemoryExact it only
	// tightens the exact bounds (tracker FIFO cap, fence sweep cap).
	FlowBudget int
	// Memory selects the bounding strategy past FlowBudget.
	Memory npsim.MemoryClass
	// FlowStateCap bounds the dispatcher's per-flow routing table.
	// When exceeded, entries whose packets have all been retired are
	// swept. The cap is soft: when a sweep finds (nearly) every entry
	// still in flight, sweeping is held off for the next cap/16 new-flow
	// inserts — so under an adversarial all-in-flight load the table can
	// overshoot the cap by cap/16 entries per held-off window while the
	// sweep cost stays amortised O(1) per insert instead of O(cap).
	// 0 means 1<<20.
	FlowStateCap int
	// Faults, when non-nil, injects deterministic worker faults
	// (stall / slow / kill) at batch boundaries. See FaultPlan.
	Faults *FaultPlan
	// Dispatchers selects how many async shards NewSharded builds: N >= 1
	// ingress shards partition flows by CRC16 over the 5-tuple and
	// resolve packet→worker lock-free against the control plane's
	// current ForwardingView snapshot. New builds one inline shard, which
	// consults the scheduler on the caller's goroutine, and rejects a
	// non-zero value so the two constructors cannot be mixed silently.
	Dispatchers int
	// IngressCap is each async shard's ingress ring capacity (rounded up
	// to a power of two); 0 means 4096.
	IngressCap int
	// SampleEvery decimates the flow/load observations each async shard
	// feeds the control plane: 1 in every SampleEvery packets is
	// sampled; 0 means 1 (every packet).
	SampleEvery int
	// FeedbackCap bounds each async shard's observation channel to the
	// control plane; when full, observations are dropped (counted in
	// Result.FeedbackDropped) rather than backpressuring the data plane.
	// 0 means 4096.
	FeedbackCap int
	// Pool, when non-nil, recycles packets through the data plane: the
	// dispatcher returns dropped packets to it and workers return every
	// retired packet after the handler and egress tracking complete. The
	// arrival source must allocate its packets from the same pool and
	// must not retain a packet after handing it to Dispatch; with a
	// Handler set, the handler must not retain the packet past its
	// return. Zero-alloc steady state depends on this being set.
	Pool *packet.Pool
	// DetectWindow enables the health monitor: a worker holding backlog
	// that makes no progress for this long is quarantined and its state
	// recovered onto the surviving workers. 0 disables stall detection
	// (crashed workers are then reaped when the data path next touches
	// them, when a sharded control plane scans, or at Stop).
	//
	// Sizing: the window must comfortably exceed the longest legitimate
	// pause between retirements — in particular a WorkSleep batch's
	// whole emulated service time — or slow workers will be declared
	// dead spuriously.
	DetectWindow time.Duration
}

// flowState is the dispatcher's record of where a flow's packets go and
// how far into that worker's sequence space its newest packet sits.
// The pair doubles as the migration fence: the flow may only switch
// workers once the old worker's retired count passes seq. fencedAt is
// the span anchor: the runtime-clock instant the flow's first fenced
// packet was held (0 = no fence open), carried across dispatches until
// the fence releases so the hold duration is measurable end to end.
type flowState struct {
	core     int32
	seq      uint64
	fencedAt int64
}

// WorkerReport is one worker's end-of-run accounting.
type WorkerReport struct {
	ID         int
	Processed  uint64 // packets retired
	Dropped    uint64 // packets bound for this worker lost to a full ring (or stranded on it)
	OutOfOrder uint64 // out-of-order departures observed at this worker
	Batches    uint64 // non-empty ring consume batches
	Dead       bool   // worker was quarantined by fault recovery
}

// Result is the outcome of a runtime execution.
type Result struct {
	Dispatched   uint64 // packets offered to the scheduler
	Processed    uint64 // packets retired by workers
	Dropped      uint64 // packets lost to full rings (includes Stranded)
	OutOfOrder   uint64 // out-of-order departures (egress tracker)
	Migrations   uint64 // flows actually switched workers
	Fenced       uint64 // packets held on their old worker by a fence
	TrackedFlows int    // flows live in the reorder tracker at stop
	EvictedFlows uint64 // reorder-tracker watermarks evicted (bounded mode)
	// EstimatedOOO is the subset of OutOfOrder flagged by sketch-mode
	// trackers past the flow budget — one-sided over-estimates (the
	// sketch never misses a reordering but can over-report on bucket
	// collisions). 0 on exact runs.
	EstimatedOOO uint64
	// FlowBudgetHits counts budget-crossing degrade events: reorder
	// tracker shards switching exact→sketch plus fence tables switching
	// to hash-bucket granularity. 0 when the budget was never exceeded.
	FlowBudgetHits uint64
	Elapsed        time.Duration
	Workers        []WorkerReport
	// Series is non-nil when MetricsInterval was set.
	Series *stats.Series

	// Fault-tolerance accounting.
	WorkerStalls uint64 // stall detections (no progress for a full window)
	WorkerDeaths uint64 // workers quarantined (crashed or stalled past the window)
	Reinjected   uint64 // stranded packets re-dispatched onto live workers
	Recovered    uint64 // distinct flows remapped off dead workers by recovery
	Forced       uint64 // fences released against an undrainable dead worker
	Stranded     uint64 // packets unrecoverable at Stop (also counted in Dropped)
	// MaxDetect is the worst observed fault-to-quarantine latency. For a
	// stall it is bounded below by DetectWindow by construction.
	MaxDetect time.Duration
	// MaxFenceHold is the longest a drain fence held a migrating flow on
	// its old worker, first fenced packet to release (including forced
	// releases). Zero when no fence ever opened.
	MaxFenceHold time.Duration
	// MaxSnapshotStaleness is the oldest forwarding view any async shard
	// resolved a batch against (age of the view at resolve time). Zero
	// on an inline engine, which schedules live and has no snapshot to
	// go stale.
	MaxSnapshotStaleness time.Duration

	// Async-shard accounting (zero on an inline engine).
	Snapshots       uint64 // forwarding-view publishes by the control plane
	FeedbackDropped uint64 // sampled observations lost to full feedback channels
	Dispatchers     int    // async shards the run used (0 = one inline shard)
}

// Engine is the live data plane: worker goroutines, each consuming one
// SPSC ring per dispatcher shard, fed by shards that resolve every flow
// run to a worker under the migration fence. There is one
// implementation and two shapes of shard:
//
//   - New builds one inline shard. It has no ingress ring and no
//     control-plane goroutine: Dispatch, DispatchTo and DispatchBurst
//     run it on the caller's goroutine against the live scheduler.
//   - NewSharded builds Config.Dispatchers async shards, each a
//     goroutine draining an ingress ring and resolving against the
//     forwarding snapshot a control-plane goroutine publishes.
//
// Dispatch/Ingest and DispatchBurst/IngestBurst are two names for one
// entry point each, so callers of either constructor keep their
// vocabulary; the body branches on the shard shape. Feed an engine
// from a single goroutine, then Stop it to drain and collect the
// Result.
//
// Ordering: per-flow order is preserved by construction. A flow maps
// to exactly one shard (flow-affine ingress), the shard enqueues its
// packets into exactly one ring at a time, and the per-shard migration
// fence — enqueue seq per (shard, worker) checked against the worker's
// per-ring retired count — refuses to move the flow while any of its
// packets are unretired on the old worker. Snapshot staleness can
// delay a migration by one publish; it can never reorder a flow.
type Engine struct {
	cfg     Config
	inline  bool
	workers []*worker
	shards  []*shard

	tracker *sharedTracker
	rec     *obs.Recorder // control-plane events; merged into at Stop
	ingRec  *obs.Recorder // async ingress drop events (nil when inline)
	tel     engineTel     // zero value when Config.Telemetry is nil: every hist is a nil no-op
	sp      npsim.SnapshotProvider
	bs      npsim.BurstScheduler // Sched when it can take a flow run in one call, else nil

	view     atomic.Pointer[dataPlaneView]
	feedback []*feedRing

	// ingScratch stages an async IngestBurst's packets per shard
	// (ingress goroutine only), so a multi-shard burst costs one ring
	// reservation per (shard, burst).
	ingScratch [][]*packet.Packet

	start    time.Time // runtime clock epoch, stamped at construction (pre-Start events need it)
	runStart time.Time // Start instant, for Elapsed
	ctx      context.Context
	wg       sync.WaitGroup // workers
	swg      sync.WaitGroup // async shards
	cpStop   chan struct{}
	cpDone   chan struct{}

	dispatched atomic.Uint64
	dropped    atomic.Uint64 // ingress, full-ring, unroutable and stranded drops
	perWDrop   []atomic.Uint64

	// Control-plane state, written by one goroutine: the control plane's
	// when sharded, the caller's when inline. The counters are atomics
	// so the admin /metrics scraper can read them mid-run.
	health    []workerHealth
	liveIdx   []int
	mon       *healthMon
	pubGen    uint64
	snapshots atomic.Uint64
	stalls    atomic.Uint64
	deaths    atomic.Uint64
	maxDetect atomic.Int64 // ns; single writer (control plane)

	maxFenceHold atomic.Int64 // ns; shard writers race via load-compare-store, see noteMax
	maxStaleness atomic.Int64 // ns; same
	// scanEpoch counts completed health scans; async shards wait on it
	// at shutdown so a death that precedes ingress close is always
	// quarantined (and drained) before the shards exit.
	scanEpoch atomic.Uint64

	sampler     *obs.Sampler
	samplerStop chan struct{}
	samplerDone chan struct{}

	started, stopped bool
}

// Sharded is Engine under the name NewSharded's callers use: both
// constructors build the same type, differing only in their shards.
type Sharded = Engine

// healthMon is the stall detector's state.
type healthMon struct {
	window    time.Duration
	lastProc  []uint64    // retired count at the last beat
	lastBeat  []time.Time // last instant progress (or emptiness) was observed
	calls     uint64      // inline data-path touches, for the scan cadence
	lastCheck time.Time
}

// New builds an engine with one inline shard (workers not yet
// running): the scheduler runs on the caller's goroutine, consulted per
// packet by Dispatch and per flow run by DispatchBurst.
func New(cfg Config) (*Engine, error) {
	if cfg.Dispatchers > 0 {
		return nil, fmt.Errorf("runtime: Config.Dispatchers=%d needs async shards; use NewSharded", cfg.Dispatchers)
	}
	return build(cfg, nil)
}

// NewSharded builds an engine with Config.Dispatchers async shards
// (nothing running yet). cfg.Sched must implement
// npsim.SnapshotProvider — async shards route against snapshots, so a
// scheduler that cannot publish one has no way onto this path.
func NewSharded(cfg Config) (*Engine, error) {
	if cfg.Dispatchers < 1 {
		return nil, fmt.Errorf("runtime: sharded engine needs Dispatchers >= 1, got %d", cfg.Dispatchers)
	}
	sp, ok := cfg.Sched.(npsim.SnapshotProvider)
	if cfg.Sched != nil && !ok {
		return nil, fmt.Errorf("runtime: scheduler %q cannot publish forwarding snapshots (no npsim.SnapshotProvider); Dispatchers>0 requires one", cfg.Sched.Name())
	}
	return build(cfg, sp)
}

// build validates cfg and constructs the engine: one inline shard when
// sp is nil, cfg.Dispatchers async shards otherwise.
func build(cfg Config, sp npsim.SnapshotProvider) (*Engine, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("runtime: need at least one worker, got %d", cfg.Workers)
	}
	if cfg.Sched == nil {
		return nil, fmt.Errorf("runtime: Config.Sched is required")
	}
	if cfg.RingCap <= 0 {
		cfg.RingCap = 256
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 32
	}
	if cfg.WorkFactor == 0 {
		cfg.WorkFactor = 1
	}
	if cfg.FlowStateCap <= 0 {
		cfg.FlowStateCap = 1 << 20
	}
	if cfg.IngressCap <= 0 {
		cfg.IngressCap = 4096
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	if cfg.FeedbackCap <= 0 {
		cfg.FeedbackCap = 4096
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.validate(cfg.Workers); err != nil {
			return nil, err
		}
	}
	var zero [packet.NumServices]npsim.ServiceDef
	if cfg.Services == zero {
		cfg.Services = npsim.DefaultServices()
	}
	n := cfg.Dispatchers
	if sp == nil {
		n = 1
	}
	e := &Engine{
		cfg:      cfg,
		inline:   sp == nil,
		sp:       sp,
		tracker:  newSharedTracker(trackerConfig(cfg)),
		rec:      cfg.Recorder,
		perWDrop: make([]atomic.Uint64, cfg.Workers),
		health:   make([]workerHealth, cfg.Workers),
		// The clock epoch is stamped here, not at Start: recorders are
		// wired to e.Now at construction, and an event emitted before
		// Start must not be stamped against the zero time (whose
		// nanosecond distance overflows int64 into garbage).
		start: time.Now(),
	}
	e.bs, _ = cfg.Sched.(npsim.BurstScheduler)
	if e.rec != nil {
		e.rec.SetClock(e.Now)
		if !e.inline {
			e.ingRec = obs.NewRecorder(obs.DefaultRingCap / (n + 1))
			e.ingRec.SetClock(e.Now)
		}
	}
	if cfg.Telemetry != nil {
		e.tel = newEngineTel(cfg.Telemetry, cfg.Workers, n)
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			id:         i,
			rings:      make([]*Ring, n),
			retired:    make([]atomic.Uint64, n),
			tracker:    e.tracker,
			now:        e.Now,
			work:       cfg.Work,
			workFactor: cfg.WorkFactor,
			services:   cfg.Services,
			handler:    cfg.Handler,
			pool:       cfg.Pool,
			tel:        e.tel.forWorkers(),
		}
		for s := range w.rings {
			w.rings[s] = NewRing(cfg.RingCap)
		}
		w.idleSince.Store(0)
		if cfg.Faults != nil {
			w.faults = cfg.Faults.forWorker(i)
		}
		if e.rec != nil {
			// Workers get private recorders (merged at Stop) because
			// obs.Recorder is single-writer by design.
			w.rec = obs.NewRecorder(obs.DefaultRingCap / cfg.Workers)
			w.rec.SetClock(e.Now)
		}
		e.workers = append(e.workers, w)
		e.liveIdx = append(e.liveIdx, i)
	}
	for s := 0; s < n; s++ {
		e.shards = append(e.shards, newShard(e, s, n))
	}
	if !e.inline {
		e.feedback = make([]*feedRing, n)
		for s := range e.feedback {
			e.feedback[s] = newFeedRing(cfg.FeedbackCap)
		}
	}
	if n > 1 {
		e.ingScratch = make([][]*packet.Packet, n)
		for s := range e.ingScratch {
			e.ingScratch[s] = make([]*packet.Packet, 0, burstChunk)
		}
	}
	if cfg.Telemetry != nil {
		// After the worker and shard loops: the per-worker and per-shard
		// gauge closures capture the constructed objects.
		registerMetrics(cfg.Telemetry, e)
	}
	if cfg.DetectWindow > 0 {
		e.mon = &healthMon{
			window:   cfg.DetectWindow,
			lastProc: make([]uint64, cfg.Workers),
			lastBeat: make([]time.Time, cfg.Workers),
		}
	}
	if e.inline {
		// An inline view changes only on quarantine: publish the
		// all-alive one now, so Flush and the View work before Start.
		e.publish()
		e.shards[0].lastView = e.view.Load()
	}
	return e, nil
}

// Now is the runtime clock: nanoseconds since construction, as a
// sim.Time so schedulers written for the simulator read it unchanged.
func (e *Engine) Now() sim.Time {
	return sim.Time(time.Since(e.start).Nanoseconds())
}

// --- npsim.View (consulted by the scheduler's goroutine) ---

// NumCores returns the worker count.
func (e *Engine) NumCores() int { return len(e.workers) }

// QueueLen returns worker c's backlog as the scheduler should see it:
// ring occupancy across every shard's ring plus in-service packets,
// plus the inline shard's staged-but-unflushed ones. Async shards'
// stage buffers are private to their goroutines, so a sharded view can
// under-read by at most Dispatchers×Batch packets — the same order of
// error a hardware scheduler has against in-flight DMA. A quarantined
// worker reads as permanently full, which is how the scheduler's view
// is "shrunk" to the surviving cores without renumbering them.
func (e *Engine) QueueLen(c int) int {
	if e.health[c] != whAlive {
		return e.QueueCap()
	}
	n := e.workers[c].queueLen()
	if e.inline {
		n += len(e.shards[0].staged[c])
	}
	return n
}

// QueueCap returns a worker's total buffering: per-shard ring capacity
// times the shard count.
func (e *Engine) QueueCap() int {
	return e.workers[0].rings[0].Cap() * len(e.shards)
}

// IdleFor returns how long worker c has been out of work. A quarantined
// worker is never idle (it must not attract work or donate itself), nor
// is one the inline shard holds staged packets for.
func (e *Engine) IdleFor(c int) sim.Time {
	if e.health[c] != whAlive || (e.inline && len(e.shards[0].staged[c]) > 0) {
		return 0
	}
	return e.workers[c].idleFor(e.Now())
}

// Start launches the workers — plus, when sharded, the first
// forwarding view, the shards and the control plane — and the metrics
// sampler when configured. ctx cancellation makes blocking enqueues
// give up; the run itself is ended by Stop.
func (e *Engine) Start(ctx context.Context) {
	if e.started {
		panic("runtime: Engine started twice")
	}
	e.started = true
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
	e.runStart = time.Now()
	if e.mon != nil {
		for i := range e.mon.lastBeat {
			e.mon.lastBeat[i] = e.runStart
		}
		e.mon.lastCheck = e.runStart
	}
	if !e.inline {
		e.publish() // async shards must never observe a nil view
	}
	for _, w := range e.workers {
		w := w
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			w.run(e.cfg.Batch)
		}()
	}
	if !e.inline {
		for _, sh := range e.shards {
			sh := sh
			e.swg.Add(1)
			go func() {
				defer e.swg.Done()
				sh.run()
			}()
		}
		e.cpStop = make(chan struct{})
		e.cpDone = make(chan struct{})
		go e.controlPlane()
	}
	if e.cfg.MetricsInterval > 0 {
		e.startSampler()
	}
}

// Dispatch offers one packet. Inline, the scheduler picks a worker and
// the packet is resolved and staged on the caller's goroutine; sharded,
// the flow's CRC16 picks the shard, preserving per-flow arrival order,
// and the packet is enqueued on that shard's ingress ring. It reports
// whether the packet was accepted (false = dropped under DropWhenFull
// or after context cancellation). Must be called from a single
// goroutine.
func (e *Engine) Dispatch(p *packet.Packet) bool {
	if e.inline {
		return e.DispatchTo(p, e.checkTarget(e.cfg.Sched.Target(p, e)))
	}
	e.dispatched.Add(1)
	if e.tel.on {
		// Enqueued is sim-side bookkeeping the live path never reads;
		// reuse it as the ingest timestamp the worker's latency and
		// ring-wait histograms measure against.
		p.Enqueued = e.Now()
	}
	one := [1]*packet.Packet{p}
	return e.ingest(e.shards[int(crc.PacketHash(p))%len(e.shards)], one[:]) == 1
}

// Ingest is Dispatch, under the name sharded callers use.
func (e *Engine) Ingest(p *packet.Packet) bool { return e.Dispatch(p) }

// DispatchTo routes a packet whose target was already decided (the
// conformance harness mirrors simulator decisions through this). Same
// contract as Dispatch; inline engines only, since async shards take
// their targets from the published view.
func (e *Engine) DispatchTo(p *packet.Packet, target int) bool {
	if !e.inline {
		panic("runtime: DispatchTo needs an inline engine (New)")
	}
	e.dispatched.Add(1)
	if e.tel.on {
		p.Enqueued = e.Now()
	}
	return e.shards[0].dispatchResolved(p, target)
}

// checkTarget panics on a worker index outside the engine. The panic
// lives in badTarget so this check inlines into the burst path.
func (e *Engine) checkTarget(t int) int {
	if uint(t) >= uint(len(e.workers)) {
		e.badTarget(t)
	}
	return t
}

func (e *Engine) badTarget(t int) {
	panic(fmt.Sprintf("runtime: scheduler %q routed to invalid worker %d", e.cfg.Sched.Name(), t))
}

// Flush publishes every packet the inline shard has staged. Call when
// the arrival stream pauses (pacing gaps) so low-rate workers are not
// starved. A no-op when sharded: async shards flush their own stages
// whenever their ingress rings run dry.
func (e *Engine) Flush() {
	if e.inline {
		e.shards[0].flushAll()
	}
}

// --- control plane: the control-plane goroutine when sharded, the
// caller's goroutine when inline ---

// controlPlane owns a sharded engine's scheduler: it drains the
// shards' observation rings through the real scheduler (for its control
// side effects), scans worker health, and republishes the forwarding
// view whenever the scheduler's generation moves.
func (e *Engine) controlPlane() {
	defer close(e.cpDone)
	// One reusable record buffer for the whole loop; a flow run arrives
	// as one record and burst-capable schedulers consume it in one call.
	obsBuf := make([]obsRec, e.cfg.Batch)
	for {
		select {
		case <-e.cpStop:
			return
		default:
		}
		progress := false
		for i := range e.feedback {
			n := e.feedback[i].popBatch(obsBuf)
			for k := 0; k < n; k++ {
				// The returned target is deliberately discarded: the
				// data plane routes only against published snapshots,
				// so decisions take effect atomically and in bulk.
				rec := &obsBuf[k]
				if e.bs != nil {
					e.bs.TargetN(&rec.pkt, int(rec.n), e)
				} else {
					for j := uint32(0); j < rec.n; j++ {
						e.sp.Target(&rec.pkt, e)
					}
				}
			}
			if n > 0 {
				progress = true
			}
		}
		e.scanHealth()
		if g := e.sp.Generation(); g != e.pubGen {
			e.publish()
			progress = true
		}
		if !progress {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// publish swaps in a fresh view carrying the current worker-health
// picture; when sharded it also snapshots the scheduler's forwarding
// state for the shards to resolve against.
func (e *Engine) publish() {
	v := &dataPlaneView{
		health: append([]workerHealth(nil), e.health...),
		live:   append([]int(nil), e.liveIdx...),
	}
	if !e.inline {
		v.fwd = e.sp.Snapshot(e.Now())
		e.pubGen = e.sp.Generation()
		e.snapshots.Add(1)
		if e.rec != nil {
			e.rec.Emit(obs.Event{Kind: obs.EvSnapshotPublish, Service: -1, Core: -1,
				Core2: -1, Val: int64(e.pubGen)})
		}
	}
	v.pubAt = e.Now()
	e.view.Store(v)
}

// maybeScan runs the health scan on an inline engine's caller
// goroutine at a bounded cadence: every 64 data-path touches, and no
// more than ~8 times per detection window.
func (e *Engine) maybeScan() {
	if e.mon == nil {
		return
	}
	e.mon.calls++
	if e.mon.calls&63 != 0 || time.Since(e.mon.lastCheck) < e.mon.window/8 {
		return
	}
	e.scanHealth()
}

// scanHealth quarantines workers whose goroutines have exited, then
// runs the stall heuristic (when DetectWindow is set) at most ~8 times
// per window: a worker holding drainable backlog with no retirements
// for a full window is quarantined. The last live worker is never
// quarantined on the stall heuristic — a wrong guess there would leave
// no data path at all.
func (e *Engine) scanHealth() {
	e.reapDead()
	now := time.Now()
	if e.mon != nil && now.Sub(e.mon.lastCheck) >= e.mon.window/8 {
		e.mon.lastCheck = now
		for i, w := range e.workers {
			if e.health[i] != whAlive || len(e.liveIdx) <= 1 {
				continue
			}
			p := w.processed.Load()
			// Only backlog the worker can actually drain counts: rings +
			// in-service. Staged packets are held by a shard — during a
			// long push-wait on some other worker's ring they would make
			// an idle, healthy worker look stalled.
			if p != e.mon.lastProc[i] || w.queueLen() == 0 {
				e.mon.lastProc[i] = p
				e.mon.lastBeat[i] = now
				continue
			}
			if stalled := now.Sub(e.mon.lastBeat[i]); stalled >= e.mon.window {
				e.stalls.Add(1)
				if e.rec != nil {
					e.rec.Emit(obs.Event{Kind: obs.EvWorkerStall, Service: -1,
						Core: int32(i), Core2: -1, Val: stalled.Nanoseconds()})
				}
				e.quarantine(i)
			}
		}
	}
	e.scanEpoch.Add(1)
}

// reapDead quarantines every live worker whose goroutine has exited
// (kill fault).
func (e *Engine) reapDead() {
	for i, w := range e.workers {
		if e.health[i] == whAlive && w.state.Load() == wsDead {
			e.quarantine(i)
		}
	}
}

// quarantine removes worker i from the live set, seizes its rings when
// possible, and publishes the verdict — each shard drains its own ring
// of the worker when it observes the new view (shard.onViewChange).
func (e *Engine) quarantine(i int) {
	w := e.workers[i]
	if w.seize() {
		e.health[i] = whSeized
	} else {
		e.health[i] = whWedged
	}
	e.deaths.Add(1)
	if fa := w.faultAt.Swap(0); fa > 0 {
		if d := int64(e.Now()) - fa; d > e.maxDetect.Load() {
			e.maxDetect.Store(d)
		}
	}
	live := e.liveIdx[:0]
	for j := range e.workers {
		if e.health[j] == whAlive {
			live = append(live, j)
		}
	}
	e.liveIdx = live
	if e.rec != nil {
		e.rec.Emit(obs.Event{Kind: obs.EvWorkerDead, Service: -1, Core: int32(i),
			Core2: -1, Val: int64(w.queueLen())})
	}
	e.publish()
}

// Stop drains the shards — inline on the caller's goroutine, async by
// closing their ingress rings and waiting for them to exit — stops the
// control plane, closes the worker rings, waits for the workers to
// drain, and collects the Result. The engine cannot be restarted. The
// caller must have stopped feeding it.
func (e *Engine) Stop() *Result {
	if !e.started || e.stopped {
		panic("runtime: Stop on a non-running engine")
	}
	e.stopped = true
	if e.inline {
		e.shards[0].shutdown()
	} else {
		for _, sh := range e.shards {
			sh.in.Close()
		}
		e.swg.Wait()
		close(e.cpStop)
		<-e.cpDone
	}
	for _, w := range e.workers {
		for _, r := range w.rings {
			r.Close()
		}
	}
	e.wg.Wait()
	elapsed := time.Since(e.runStart)

	// Anything left in a ring or stage buffer now is stranded: its
	// worker died too late (or was undrainable) and every survivor has
	// exited. Count it as dropped so conservation holds.
	var stranded uint64
	for i, w := range e.workers {
		var s uint64
		for _, r := range w.rings {
			s += uint64(r.Len())
		}
		for _, sh := range e.shards {
			s += uint64(len(sh.staged[i]))
		}
		if s > 0 {
			stranded += s
			e.perWDrop[i].Add(s)
		}
	}
	e.dropped.Add(stranded)
	if e.samplerStop != nil {
		close(e.samplerStop)
		<-e.samplerDone
	}
	e.mergeEvents()

	res := &Result{
		Dispatched:           e.dispatched.Load(),
		Dropped:              e.dropped.Load(),
		OutOfOrder:           e.tracker.outOfOrder(),
		Migrations:           e.total(cMigrations),
		Fenced:               e.total(cFenced),
		TrackedFlows:         e.tracker.flows(),
		EvictedFlows:         e.tracker.evicted(),
		EstimatedOOO:         e.tracker.estimatedOOO(),
		FlowBudgetHits:       e.tracker.budgetHits() + e.total(cBudgetHits),
		Elapsed:              elapsed,
		WorkerStalls:         e.stalls.Load(),
		WorkerDeaths:         e.deaths.Load(),
		Reinjected:           e.total(cReinjected),
		Recovered:            e.total(cRecovered),
		Forced:               e.total(cForced),
		Stranded:             stranded,
		MaxDetect:            time.Duration(e.maxDetect.Load()),
		MaxFenceHold:         time.Duration(e.maxFenceHold.Load()),
		MaxSnapshotStaleness: time.Duration(e.maxStaleness.Load()),
		Snapshots:            e.snapshots.Load(),
		FeedbackDropped:      e.total(cFeedbackDropped),
	}
	if !e.inline {
		res.Dispatchers = len(e.shards)
	}
	for i, w := range e.workers {
		res.Processed += w.processed.Load()
		res.Workers = append(res.Workers, WorkerReport{
			ID:         i,
			Processed:  w.processed.Load(),
			Dropped:    e.perWDrop[i].Load(),
			OutOfOrder: w.ooo.Load(),
			Batches:    w.batches.Load(),
			Dead:       e.health[i] != whAlive,
		})
	}
	if e.sampler != nil {
		res.Series = e.sampler.Series()
	}
	return res
}

// total sums one per-shard counter across the shards. Safe from any
// goroutine.
func (e *Engine) total(c shardCounter) uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.ctr[c].Load()
	}
	return n
}

// mergeEvents folds the worker, shard and ingress recorders' events
// into the main recorder, re-sorting the combined stream by timestamp
// (shards and the control plane keep emitting — fence spans, drops —
// while workers record, so interleaving is the norm, not the
// exception). The inline shard already writes the main recorder.
func (e *Engine) mergeEvents() {
	if e.rec == nil {
		return
	}
	var all []obs.Event
	for _, w := range e.workers {
		all = append(all, w.rec.Events()...)
	}
	for _, sh := range e.shards {
		if sh.rec != e.rec {
			all = append(all, sh.rec.Events()...)
		}
	}
	all = append(all, e.ingRec.Events()...)
	e.rec.Merge(all)
}

// startSampler launches the wall-clock metrics goroutine. Probes read
// only atomics, so sampling never races the data plane.
func (e *Engine) startSampler() {
	probes := make([]obs.Probe, 0, 2*len(e.workers)+len(e.shards)+4)
	for _, w := range e.workers {
		w := w
		probes = append(probes,
			obs.Probe{Name: fmt.Sprintf("worker%d.q", w.id), Fn: func() float64 {
				return float64(w.queueLen())
			}},
			obs.RateProbe(fmt.Sprintf("worker%d.pps", w.id), w.processed.Load, nil),
		)
	}
	for _, sh := range e.shards {
		if sh.in == nil {
			continue
		}
		sh := sh
		probes = append(probes,
			obs.Probe{Name: fmt.Sprintf("shard%d.in", sh.id), Fn: func() float64 {
				return float64(sh.in.Len())
			}})
	}
	probes = append(probes,
		obs.RateProbe("dispatched", e.dispatched.Load, nil),
		obs.RateProbe("drops", e.dropped.Load, nil),
		obs.RateProbe("ooo", e.ooo, nil),
		obs.RateProbe("fenced", func() uint64 { return e.total(cFenced) }, nil),
	)
	e.sampler = obs.NewSampler(sim.Time(e.cfg.MetricsInterval.Nanoseconds()), probes...)
	e.samplerStop = make(chan struct{})
	e.samplerDone = make(chan struct{})
	go func() {
		defer close(e.samplerDone)
		tick := time.NewTicker(e.cfg.MetricsInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				e.sampler.Sample(e.Now())
			case <-e.samplerStop:
				return
			}
		}
	}()
}

// ooo sums the workers' out-of-order departures.
func (e *Engine) ooo() uint64 {
	var n uint64
	for _, w := range e.workers {
		n += w.ooo.Load()
	}
	return n
}

// processed sums the workers' retirements.
func (e *Engine) processed() uint64 {
	var n uint64
	for _, w := range e.workers {
		n += w.processed.Load()
	}
	return n
}
