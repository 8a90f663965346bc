package runtime

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"laps/internal/crc"
	"laps/internal/flowtab"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/packet"
	"laps/internal/sim"
)

// This file is the data plane's shard: the runtime's answer to the
// paper's hardware split between a line-rate lookup path and a slow
// control processor that rewrites the lookup tables.
//
// A shard owns a private SPSC ring into every worker, so the full data
// plane is a lock-free shards×workers crossbar of single-producer/
// single-consumer rings. Async shards (NewSharded) are goroutines fed
// through per-shard ingress rings, with flows partitioned by CRC16 over
// the 5-tuple — the same hash the map tables use — so a flow's packets
// always traverse the same shard in arrival order. Each resolves
// packet→worker with zero locks against an immutable view published
// through an atomic pointer by the control-plane goroutine, which owns
// the real scheduler: it consumes sampled flow observations from
// bounded per-shard feedback rings (never blocking the shards; a
// within-burst flow run travels as one aggregated record), runs the
// scheduler's full logic for its side effects, and republishes a fresh
// snapshot whenever the scheduler's generation counter moves.
//
// The inline shard (New) is the same machinery run on the caller's
// goroutine: no ingress ring, no control-plane goroutine, targets from
// the live scheduler. It differs from an async shard in four places,
// each a branch on shard.inline (or Engine.inline) — where the target
// comes from (dispatchGroup, dispatchResolved), who runs health scans
// (syncView, shutdown), what happens to a worker that died undetected
// (awaitDead), and what QueueLen/IdleFor count.

// workerHealth is the control plane's verdict on a worker, carried in
// every published view so the shards act on a consistent picture.
type workerHealth uint8

const (
	// whAlive: route to it normally.
	whAlive workerHealth = iota
	// whSeized: quarantined and drainable — each shard must drain its
	// own ring into live workers (in order) when it observes this state.
	whSeized
	// whWedged: quarantined but seizure failed (wedged mid-batch); its
	// backlog is unrecoverable and fences against it are force-released.
	whWedged
)

// dataPlaneView is what the control plane publishes: the worker-health
// picture the shards route against plus, when sharded, the scheduler's
// forwarding snapshot. Immutable after publish.
type dataPlaneView struct {
	fwd    npsim.Forwarder // nil on an inline engine
	health []workerHealth
	live   []int    // indices of whAlive workers
	pubAt  sim.Time // publish instant, the snapshot-staleness reference
}

// shardCounter indexes a shard's event counters (see Engine.total).
type shardCounter int

const (
	cMigrations      shardCounter = iota // flows switched workers
	cFenced                              // packets held on their old worker
	cForced                              // fences released against undrainable workers
	cReinjected                          // stranded packets re-dispatched by recovery
	cRecovered                           // flows remapped off dead workers
	cFeedbackDropped                     // observations lost to a full feedback ring
	cBudgetHits                          // fence table degraded to hash buckets
	numShardCounters
)

// routing outcome of one fence resolution (see shard.resolve).
const (
	routePlain = iota
	routeMigrated
	routeFenced
	routeForced
)

// shard is one dispatcher partition. Every field below the ring is
// touched only by the goroutine running the shard (counters that
// samplers read are atomics).
type shard struct {
	id     int
	e      *Engine
	inline bool  // runs on the caller's goroutine (New)
	in     *Ring // ingress ring; nil when inline

	staged   [][]*packet.Packet
	enqSeq   []uint64 // per worker: packets handed over on this shard's rings
	flows    *flowtab.Table[flowState]
	flowCap  int
	sweepHld int // new-flow inserts to skip sweeping for (after a futile sweep)
	// Hash-bucket fencing past the flow budget (nil = exact). One
	// bucket per hash value this shard serves (h/nshards is a bijection
	// within the shard).
	coarse     *coarseFence
	budgetable bool // FlowBudget set and Memory allows degrading
	lastView   *dataPlaneView
	reaped     []bool // workers whose ring this shard has already drained
	rec        *obs.Recorder
	burst      *burstScratch // flow-run grouping state for the batch resolve
	occ        []int         // per-worker occupancy cache, valid within one burst (-1 = stale)

	sampleEvery int
	obsSkip     int

	ctr [numShardCounters]atomic.Uint64
}

// newShard builds shard id of n. The flow-state cap (and the budget,
// when tighter) is split evenly across the shards.
func newShard(e *Engine, id, n int) *shard {
	cfg := e.cfg
	flowCap := (cfg.FlowStateCap + n - 1) / n
	if cfg.FlowBudget > 0 && (cfg.FlowBudget+n-1)/n < flowCap {
		// The budget is the tighter bound: exact mode sweeps at it,
		// auto/sketch degrade to coarse fencing when sweeping cannot
		// hold the live-flow count under it.
		flowCap = (cfg.FlowBudget + n - 1) / n
	}
	hint := 1 << 12 // async: a shard serves 1/n of the flows
	if e.inline {
		hint = 1 << 14
	}
	if flowCap < hint {
		hint = flowCap
	}
	s := &shard{
		id:          id,
		e:           e,
		inline:      e.inline,
		enqSeq:      make([]uint64, cfg.Workers),
		flows:       flowtab.New[flowState](hint),
		flowCap:     flowCap,
		budgetable:  cfg.Memory == npsim.MemorySketch || (cfg.FlowBudget > 0 && cfg.Memory == npsim.MemoryAuto),
		reaped:      make([]bool, cfg.Workers),
		sampleEvery: cfg.SampleEvery,
		burst:       newBurstScratch(),
		occ:         make([]int, cfg.Workers),
		rec:         e.rec, // inline: the caller's goroutine owns the main recorder
	}
	if !e.inline {
		s.in = NewRing(cfg.IngressCap)
		if e.rec != nil {
			s.rec = obs.NewRecorder(obs.DefaultRingCap / (n + 1))
			s.rec.SetClock(e.Now)
		}
	}
	if cfg.Memory == npsim.MemorySketch {
		// Bounded from the start: new flows fence at bucket granularity
		// immediately instead of waiting for the budget to be crossed.
		s.coarse = newCoarseFence(n)
	}
	for w := 0; w < cfg.Workers; w++ {
		s.staged = append(s.staged, make([]*packet.Packet, 0, cfg.Batch))
	}
	return s
}

// --- async shard goroutine ---

// run drains the ingress ring until it is closed and empty, resolving
// every packet against the freshest published view.
func (s *shard) run() {
	batch := s.e.cfg.Batch
	buf := make([]*packet.Packet, batch)
	idleSpins := 0
	for {
		s.syncView()
		n := s.in.PopBatch(buf)
		if n == 0 {
			if s.in.Closed() && s.in.Len() == 0 {
				s.shutdown()
				return
			}
			// Publish partial batches before idling so low-rate workers
			// are not starved during arrival gaps.
			s.flushAll()
			idleSpins++
			switch {
			case idleSpins < 16:
				runtime.Gosched()
			default:
				time.Sleep(20 * time.Microsecond)
			}
			continue
		}
		idleSpins = 0
		if s.e.tel.on {
			// Snapshot staleness at resolve: how old the view this batch
			// is about to route against is. One clock read per batch.
			if age := int64(s.e.Now() - s.lastView.pubAt); age > 0 {
				s.e.tel.staleness.Record(s.id, age)
				noteMax(&s.e.maxStaleness, age)
			}
		}
		s.dispatchBurst(buf[:n])
		for i := 0; i < n; i++ {
			buf[i] = nil
		}
	}
}

// shutdown is the shard's exit protocol: deliver everything staged,
// make sure every worker that died before the feed stopped is
// quarantined and drained while this shard can still re-inject, and
// flush whatever recovery staged. Inline: scan on the caller's
// goroutine. Async: wait out two full control-plane health scans.
func (s *shard) shutdown() {
	s.flushAll()
	if s.inline {
		s.e.reapDead()
	} else {
		target := s.e.scanEpoch.Load() + 2
		for s.e.scanEpoch.Load() < target {
			s.syncView()
			time.Sleep(5 * time.Microsecond)
		}
	}
	s.syncView()
	s.flushAll()
}

// --- resolution ---

// syncView loads the current view and, when it changed, runs the
// recovery reactions the new view demands before returning. lastView
// is advanced before reacting so re-entrant syncs (from push waits
// inside a drain) see the newest view and never regress it. Inline:
// every call is also a tick of the health-scan cadence.
func (s *shard) syncView() *dataPlaneView {
	if s.inline {
		s.e.maybeScan()
	}
	if v := s.e.view.Load(); v != s.lastView {
		s.lastView = v
		s.onViewChange(v)
	}
	return s.lastView
}

// awaitDead handles worker w found dead while the view still routes to
// it. Inline: quarantine it now. Async: yield until the control plane,
// which scans for this continuously, republishes. Either way the next
// syncView drains w's ring (onViewChange).
func (s *shard) awaitDead(w int) {
	if s.inline {
		s.e.quarantine(w)
	} else {
		runtime.Gosched()
	}
}

// route is one fence resolution: where a flow's packets go now (t) and
// what the flow table said before (st, from worker old). It carries
// its own copy of the flow key and service: once a packet is published
// to a ring the worker may retire it and hand it back to the pool, so
// commit must not read the packet.
type route struct {
	kind         int
	t, old, want int
	st           flowState
	seen, coarse bool
	f            packet.FlowKey
	svc          packet.ServiceID
	h            uint16
}

// resolve looks up the fence state of p's flow (hash h) and decides
// where packets bound for target go — the migration fence's single
// decision point — filling r. It returns false when the flow is fenced
// to a worker that died undetected: the caller must awaitDead(r.old)
// and resolve again after the drain re-points the flow.
func (s *shard) resolve(r *route, v *dataPlaneView, p *packet.Packet, h uint16, target int) bool {
	r.kind, r.t, r.old, r.want = routePlain, target, -1, target
	r.f, r.svc, r.h = p.Flow, p.Service, h
	r.st, r.seen, r.coarse = s.fenceLookup(r.f, h)
	if !r.seen || int(r.st.core) == target {
		return true
	}
	r.old = int(r.st.core)
	switch {
	case s.e.cfg.DisableFencing || s.retiredOn(r.old) >= r.st.seq:
		// The old worker retired every packet this shard gave it for
		// this flow (or we were asked not to care): the switch is
		// ordering-safe.
		r.kind = routeMigrated
	case v.health[r.old] == whAlive && s.e.workers[r.old].state.Load() == wsDead:
		return false
	case v.health[r.old] != whAlive:
		// Quarantined but this shard could not recover the flow's
		// packets (wedged worker, undrainable ring). Holding the fence
		// would wedge the flow too; release it, counted, accepting the
		// bounded reordering risk.
		r.kind = routeForced
	default:
		// Fence: the flow stays on its old worker until the drain
		// completes, so its in-flight packets cannot be overtaken.
		r.kind = routeFenced
		r.t = r.old
	}
	return true
}

// commit applies a route's bookkeeping once n packets of its flow have
// been staged on r.t: migration and fence counters, fence-span events,
// and the flow table (or hash bucket) update.
func (s *shard) commit(r *route, n int) {
	f, svc, h := r.f, r.svc, r.h
	fencedAt := r.st.fencedAt
	switch r.kind {
	case routeForced:
		s.ctr[cForced].Add(1)
		fallthrough
	case routeMigrated:
		s.ctr[cMigrations].Add(1)
		fencedAt = s.endFence(f, svc, r.t, r.old, fencedAt)
	case routeFenced:
		s.ctr[cFenced].Add(uint64(n))
		if fencedAt == 0 {
			// First packet held by this fence: open the span. The anchor
			// rides in the flow table so the hold is measured to the
			// eventual release, however many dispatches later.
			fencedAt = int64(s.e.Now())
			if s.rec != nil {
				s.rec.Emit(obs.Event{Kind: obs.EvFenceStart, Service: int16(svc),
					Core: int32(r.old), Core2: int32(r.want), Flow: f, Val: int64(r.st.seq)})
			}
		}
	}
	if r.coarse {
		s.coarse.put(h, int32(r.t), s.enqSeq[r.t], fencedAt)
	} else {
		s.rememberFlowSeen(f, h, r.t, fencedAt, r.seen)
	}
}

// dispatchResolved resolves and enqueues one packet. Inline, target is
// the caller's decision; async shards ignore it and forward against the
// freshest view on every pass. The loop re-runs whenever the world
// shifts underneath it — a target died, a view change triggered
// recovery — so every decision lands on current state. This is also
// the burst path's fallback for irregular flow runs.
func (s *shard) dispatchResolved(p *packet.Packet, target int) bool {
	h := crc.PacketHash(p)
	for {
		v := s.syncView()
		t := target
		if !s.inline {
			t = s.e.checkTarget(v.fwd.Forward(p))
		}
		if v.health[t] != whAlive {
			nt := s.reroute(h, 0)
			if nt < 0 {
				s.countDrop(p, t) // no live worker reachable
				return false
			}
			t = nt
		} else if s.e.workers[t].state.Load() == wsDead {
			s.awaitDead(t)
			continue
		}
		var r route
		if !s.resolve(&r, v, p, h, t) {
			s.awaitDead(r.old)
			continue
		}
		accepted, retry := s.push(p, r.t) // p must not be read after this
		if retry {
			continue
		}
		if !accepted {
			return false
		}
		s.commit(&r, 1)
		return true
	}
}

// fenceLookup resolves the fence state for a flow: the exact table is
// authoritative while an entry exists (flows fenced before the budget
// hit keep exact routing until they drain); otherwise the hash bucket
// answers once coarse fencing is active. The third result reports which
// regime the flow is in, so the caller writes back to the same place.
func (s *shard) fenceLookup(f packet.FlowKey, h uint16) (flowState, bool, bool) {
	st, seen := s.flows.Get(f, h)
	if seen || s.coarse == nil {
		return st, seen, false
	}
	if b := s.coarse.ref(h); b.core >= 0 {
		return *b, true, true
	}
	return flowState{}, false, true
}

// endFence closes a fence span opened at fencedAt (0 = nothing open):
// it records the hold duration, tracks the maximum for Result, and
// emits the closing span event. Returns the new anchor (always 0). The
// hist lane is the shard id.
func (s *shard) endFence(f packet.FlowKey, svc packet.ServiceID, target, old int, fencedAt int64) int64 {
	if fencedAt == 0 {
		return 0
	}
	hold := int64(s.e.Now()) - fencedAt
	if hold < 0 {
		hold = 0
	}
	s.e.tel.fenceHold.Record(s.id, hold)
	noteMax(&s.e.maxFenceHold, hold)
	if s.rec != nil {
		s.rec.Emit(obs.Event{Kind: obs.EvFenceEnd, Service: int16(svc),
			Core: int32(target), Core2: int32(old), Flow: f, Val: hold})
	}
	return 0
}

// observeN feeds a flow run of n packets to the control plane as one
// aggregated (and sampled) observation record, never blocking: a full
// ring costs observations, not latency. Records are staged locally and
// published once per burst (publishObs), so the cross-core tail store
// happens once per burst instead of once per sample.
func (s *shard) observeN(p *packet.Packet, n int) {
	k := n
	if s.sampleEvery > 1 {
		s.obsSkip += n
		k = s.obsSkip / s.sampleEvery
		s.obsSkip -= k * s.sampleEvery
		if k == 0 {
			return
		}
	}
	if !s.e.feedback[s.id].tryPush(obsRec{pkt: *p, n: uint32(k)}) {
		s.ctr[cFeedbackDropped].Add(uint64(k))
	}
}

// retiredOn is the per-shard fence signal: how many packets this shard
// enqueued on worker w's ring have been fully retired.
func (s *shard) retiredOn(w int) uint64 {
	return s.e.workers[w].retired[s.id].Load()
}

// --- recovery ---

// onViewChange reacts to newly-quarantined workers: for a seized one,
// drain this shard's ring and stage buffer into live workers (oldest
// first, fences re-pointed); for a wedged one, just stop producing (its
// staged packets stay stranded, fences release lazily). reaped guards
// each worker against double drains across nested syncs.
//
// Ordering argument: a flow resident on the dead worker has ALL of its
// unretired packets from this shard inside the stranded backlog (the
// fence guarantees a flow's in-flight packets live on exactly one
// worker), and they are drained in enqueue order. Re-injecting them in
// that order onto one live worker — and re-pointing the fence at it —
// therefore preserves per-flow order by construction; packets retired
// before the fault had already departed in order.
func (s *shard) onViewChange(v *dataPlaneView) {
	for w, h := range v.health {
		if h == whAlive || s.reaped[w] {
			continue
		}
		s.reaped[w] = true
		if h != whSeized {
			continue
		}
		// Recovery is a span: it runs dozens of ring pops and re-pushes,
		// so its duration — not just its occurrence — is what capacity
		// planning needs. Start/End bracket the instant EvRecovery.
		t0 := s.e.Now()
		r := s.e.workers[w].rings[s.id]
		if s.rec != nil {
			s.rec.Emit(obs.Event{Kind: obs.EvRecoveryStart, Service: -1, Core: int32(w),
				Core2: int32(s.id), Val: int64(r.Len() + len(s.staged[w]))})
		}
		var reinjected uint64
		touched := make(map[packet.FlowKey]struct{})
		buf := make([]*packet.Packet, s.e.cfg.Batch)
		for {
			n := r.PopBatch(buf)
			if n == 0 {
				break
			}
			for j := 0; j < n; j++ {
				if s.reinject(buf[j], touched) {
					reinjected++
				}
				buf[j] = nil
			}
		}
		for _, p := range s.staged[w] {
			if s.reinject(p, touched) {
				reinjected++
			}
		}
		s.staged[w] = s.staged[w][:0]
		// Entries still pointing at w were fully retired (everything
		// unretired was just re-pointed by reinject): forget them.
		retired := s.retiredOn(w)
		s.flows.Sweep(func(_ packet.FlowKey, _ uint16, st flowState) bool {
			return int(st.core) == w && retired >= st.seq
		})
		if s.coarse != nil {
			s.coarse.sweepDead(int32(w), retired)
		}
		s.ctr[cReinjected].Add(reinjected)
		s.ctr[cRecovered].Add(uint64(len(touched)))
		dur := int64(s.e.Now() - t0)
		s.e.tel.recovery.Record(s.id, dur)
		if s.rec != nil {
			s.rec.Emit(obs.Event{Kind: obs.EvRecovery, Service: -1, Core: int32(w),
				Core2: -1, Val: int64(reinjected)})
			s.rec.Emit(obs.Event{Kind: obs.EvRecoveryEnd, Service: -1, Core: int32(w),
				Core2: int32(s.id), Val: dur})
		}
	}
}

// reinject pushes one stranded packet onto a live worker, bypassing
// the fence (ordering-safe: the drain delivers the flow's unretired
// packets in enqueue order), and re-points the flow's fence at the new
// home. Reports whether the packet was accepted.
func (s *shard) reinject(p *packet.Packet, touched map[packet.FlowKey]struct{}) bool {
	h := crc.PacketHash(p)
	f := p.Flow // push publishes p; no reads after it
	for attempt := 0; ; attempt++ {
		t := s.reroute(h, attempt)
		if t < 0 {
			s.e.dropped.Add(1)
			s.e.cfg.Pool.Put(p)
			return false
		}
		accepted, retry := s.push(p, t)
		if retry {
			runtime.Gosched()
			continue
		}
		if !accepted {
			return false
		}
		if s.coarse != nil && !s.flows.Has(f, h) {
			// Coarse-fenced flow: re-point its bucket. Rerouting is by
			// hash and a bucket is one hash value within this shard, so
			// every member lands on the same worker and the bucket fence
			// stays sound.
			s.coarse.put(h, int32(t), s.enqSeq[t], 0)
		} else {
			s.flows.Put(f, h, flowState{core: int32(t), seq: s.enqSeq[t]})
		}
		touched[f] = struct{}{}
		return true
	}
}

// reroute deterministically picks a live worker for a flow by its
// cached hash, skipping workers whose goroutines died but are not yet
// quarantined. Returns -1 when none is reachable.
func (s *shard) reroute(h uint16, attempt int) int {
	v := s.lastView
	n := len(v.live)
	if n == 0 {
		return -1
	}
	hi := int(h) + attempt
	for i := 0; i < n; i++ {
		c := v.live[(hi+i)%n]
		if s.e.workers[c].state.Load() != wsDead {
			return c
		}
	}
	return -1
}

// --- staging ---

// push stages p for worker w on this shard's ring, flushing when the
// stage buffer fills. Fullness is decided against a conservative
// occupancy estimate (ring + staged), so flushes never fail: the worker
// only drains the ring between producer steps.
//
// Returns (accepted, retry). retry means the target worker died before
// or while the shard was waiting on its ring — the caller must
// re-resolve the route; nothing was enqueued or counted.
func (s *shard) push(p *packet.Packet, w int) (bool, bool) {
	wk := s.e.workers[w]
	if s.lastView.health[w] != whAlive || wk.state.Load() == wsDead {
		return false, true
	}
	r := wk.rings[s.id]
	for r.Len()+len(s.staged[w]) >= r.Cap() {
		if s.e.cfg.Policy == DropWhenFull || s.e.ctx.Err() != nil {
			s.countDrop(p, w)
			return false, false
		}
		// Backpressure: publish what we have and wait for the drain.
		// Views keep syncing here — if w itself is the worker that died,
		// recovery marks it and we bail out to retry instead of waiting
		// forever.
		s.flushWorker(w)
		s.syncView()
		if s.lastView.health[w] != whAlive || wk.state.Load() == wsDead {
			return false, true
		}
		time.Sleep(5 * time.Microsecond)
	}
	s.staged[w] = append(s.staged[w], p)
	s.enqSeq[w]++
	if len(s.staged[w]) >= s.e.cfg.Batch {
		s.flushWorker(w)
	}
	return true, false
}

// flushWorker publishes worker w's staged packets into this shard's
// ring. By construction (see push) the ring always has room.
func (s *shard) flushWorker(w int) {
	st := s.staged[w]
	if len(st) == 0 {
		return
	}
	if n := s.e.workers[w].rings[s.id].PushBatch(st); n != len(st) {
		panic(fmt.Sprintf("runtime: shard %d ring to worker %d rejected %d staged packets", s.id, w, len(st)-n))
	}
	s.staged[w] = st[:0]
}

// flushAll publishes every staged packet for live workers. Quarantined
// workers are skipped — their stage buffers were drained by recovery.
func (s *shard) flushAll() {
	for w := range s.staged {
		if s.lastView.health[w] == whAlive {
			s.flushWorker(w)
		}
	}
}

// rememberFlowSeen updates the flow's fence record; seen reports
// whether the table already holds the flow (the caller's probe). New
// flows sweep drained entries when the table outgrows its cap. A sweep
// that frees (almost) nothing — everything still in flight — is not
// retried for the next flowCap/16 inserts, keeping the at-cap insert
// path amortised O(1) instead of O(cap) per packet (the table
// overshoots the cap by at most that hold-off per window; see
// Config.FlowStateCap).
func (s *shard) rememberFlowSeen(f packet.FlowKey, h uint16, target int, fencedAt int64, seen bool) {
	if !seen && s.flows.Len() >= s.flowCap {
		if s.sweepHld > 0 {
			s.sweepHld--
		} else {
			swept := s.flows.Sweep(func(_ packet.FlowKey, _ uint16, st flowState) bool {
				return s.retiredOn(int(st.core)) >= st.seq
			})
			if swept < s.flowCap/64+1 {
				s.sweepHld = s.flowCap / 16
			}
		}
		if s.budgetable && s.coarse == nil && s.flows.Len() >= s.flowCap {
			// Sweeping cannot hold the live-flow count under the budget:
			// degrade. New flows fence at hash-bucket granularity from
			// here on; existing exact entries stay authoritative until
			// they drain (rememberFlowSeen is never called for a flow
			// without one again — fenceLookup routes those to buckets).
			s.coarse = newCoarseFence(len(s.e.shards))
			s.ctr[cBudgetHits].Add(1)
			s.coarse.put(h, int32(target), s.enqSeq[target], fencedAt)
			return
		}
	}
	s.flows.Put(f, h, flowState{core: int32(target), seq: s.enqSeq[target], fencedAt: fencedAt})
}

// countDrop records one dropped packet bound for worker w.
func (s *shard) countDrop(p *packet.Packet, w int) {
	s.e.dropped.Add(1)
	s.e.perWDrop[w].Add(1)
	if s.rec != nil {
		s.rec.Emit(obs.Event{Kind: obs.EvDrop, Service: int16(p.Service),
			Core: int32(w), Core2: -1, Flow: p.Flow,
			Val: int64(s.e.workers[w].rings[s.id].Len() + len(s.staged[w]))})
	}
	s.e.cfg.Pool.Put(p)
}
