package runtime

import (
	"time"

	"laps/internal/crc"
	"laps/internal/obs"
	"laps/internal/packet"
)

// The burst path: dispatch a slice of packets through the same
// scheduler, fence and recovery machinery as the per-packet path, but
// pay the per-packet costs once per within-burst flow run.
//
// Grouping is by flow, not by destination worker: a run of one flow's
// packets has a single routing decision, a single flow-table probe and
// update, and a single batched AFD observation, and it is staged onto
// one ring in arrival order — which is exactly the per-flow ordering
// contract. Packets of *different* flows may leave the dispatcher in a
// different interleaving than per-packet dispatch would produce, but no
// ordering contract observes inter-flow order (the reorder trackers are
// per flow), so the reordering the paper worries about cannot happen
// here.
//
// The fast path only commits a run wholesale: target alive, fence state
// regular, and the whole run fits the target ring (checked against a
// per-burst occupancy cache, one Len() per touched worker per burst).
// Anything irregular — dead or dying workers, rings at capacity, fences
// against workers that died undetected — re-enters the per-packet path
// for that run, so blocking, dropping and recovery semantics are
// byte-for-byte those of Dispatch.

// burstChunk bounds how many packets one grouping pass handles; longer
// bursts are processed in chunks so the scratch state stays small and
// cache-resident. 256 covers the largest ingress datagram (MaxRecords).
const burstChunk = 256

// flowGroup is one flow's run within a chunk: a linked list (through
// burstScratch.next) of packet indices in arrival order.
type flowGroup struct {
	head, tail int32
	n          int32
	slot       int32
	hash       uint16
}

// burstScratch is the reusable grouping state: an open-addressed slot
// table keyed by the CRC16 flow hash resolving to groups, and a next[]
// chain threading each group's packet indices. Zero allocations after
// construction.
type burstScratch struct {
	slots  []int32 // slot -> group index+1; 0 = empty
	next   []int32 // packet index -> next packet of the same flow, -1 = end
	groups []flowGroup
}

func newBurstScratch() *burstScratch {
	return &burstScratch{
		slots:  make([]int32, 2*burstChunk),
		next:   make([]int32, burstChunk),
		groups: make([]flowGroup, 0, burstChunk),
	}
}

// group partitions ps (len <= burstChunk) into flow runs in
// first-occurrence order. Unprimed packets are hashed here, inside the
// single pass that needs the value — a separate priming sweep would
// touch every cold packet pointer twice per burst.
func (b *burstScratch) group(ps []*packet.Packet) []flowGroup {
	mask := uint32(len(b.slots) - 1)
	for i, p := range ps {
		h := crc.PacketHash(p)
		idx := uint32(h) & mask
		for {
			gi := b.slots[idx]
			if gi == 0 {
				b.slots[idx] = int32(len(b.groups) + 1)
				b.next[i] = -1
				b.groups = append(b.groups, flowGroup{
					head: int32(i), tail: int32(i), n: 1, slot: int32(idx), hash: h,
				})
				break
			}
			g := &b.groups[gi-1]
			if g.hash == h && ps[g.head].Flow == p.Flow {
				b.next[g.tail] = int32(i)
				b.next[i] = -1
				g.tail = int32(i)
				g.n++
				break
			}
			idx = (idx + 1) & mask
		}
	}
	return b.groups
}

// reset clears the slot table (touching only used slots) for the next
// chunk.
func (b *burstScratch) reset() {
	for i := range b.groups {
		b.slots[b.groups[i].slot] = 0
	}
	b.groups = b.groups[:0]
}

// DispatchBurst routes a burst of packets, amortising scheduler, flow
// table, AFD and ring costs over each within-burst flow run (see the
// comment above for the ordering argument). Inline, the burst is
// resolved on the caller's goroutine: the scheduler is consulted once
// per run — a npsim.BurstScheduler observes all n references in one
// batched update; a plain Scheduler sees the run's first packet and the
// whole run follows its decision — and staged packets are published
// with one ring reservation per (worker, burst). Sharded, packets are
// partitioned per shard (flow affinity, so per-flow arrival order is
// preserved) and each shard's share lands on its ingress ring with one
// reservation per (shard, burst). Returns the number of packets
// accepted (the rest were dropped per policy). Same contract as
// Dispatch otherwise: single goroutine, packets are owned by the engine
// once accepted.
func (e *Engine) DispatchBurst(ps []*packet.Packet) int {
	if len(ps) == 0 {
		return 0
	}
	e.dispatched.Add(uint64(len(ps)))
	if e.tel.on {
		now := e.Now()
		for _, p := range ps {
			p.Enqueued = now
		}
	}
	if e.inline {
		return e.shards[0].dispatchBurst(ps)
	}
	if len(e.shards) == 1 {
		return e.ingest(e.shards[0], ps)
	}
	accepted := 0
	for _, p := range ps {
		sh := int(p.Hash) % len(e.shards)
		e.ingScratch[sh] = append(e.ingScratch[sh], p)
	}
	for si := range e.ingScratch {
		stage := e.ingScratch[si]
		if len(stage) == 0 {
			continue
		}
		accepted += e.ingest(e.shards[si], stage)
		for i := range stage {
			stage[i] = nil
		}
		e.ingScratch[si] = stage[:0]
	}
	return accepted
}

// IngestBurst is DispatchBurst, under the name sharded callers use.
func (e *Engine) IngestBurst(ps []*packet.Packet) int { return e.DispatchBurst(ps) }

// ingest pushes one async shard's share of a burst onto its ingress
// ring, retrying partial batches under BlockWhenFull and dropping the
// remainder under DropWhenFull (or after cancellation).
func (e *Engine) ingest(sh *shard, ps []*packet.Packet) int {
	accepted := 0
	for len(ps) > 0 {
		n := sh.in.PushBatch(ps)
		accepted += n
		ps = ps[n:]
		if len(ps) == 0 {
			break
		}
		if e.cfg.Policy == DropWhenFull || e.ctx.Err() != nil {
			for _, p := range ps {
				e.dropped.Add(1)
				if e.ingRec != nil {
					e.ingRec.Emit(obs.Event{Kind: obs.EvDrop, Service: int16(p.Service),
						Core: -1, Core2: -1, Flow: p.Flow, Val: int64(sh.in.Len())})
				}
				e.cfg.Pool.Put(p)
			}
			break
		}
		time.Sleep(5 * time.Microsecond)
	}
	return accepted
}

// dispatchBurst resolves a burst as flow runs: one view for the whole
// chunk, one target/flow-table/fence update per run, one ring
// publication per (worker, chunk). Irregular runs fall back to the
// per-packet resolution loop (dispatchResolved), which may sync the
// view and trigger recovery mid-burst — later runs then resolve against
// the fresher world, exactly as consecutive per-packet dispatches
// would. Returns the number of packets accepted.
func (s *shard) dispatchBurst(ps []*packet.Packet) int {
	accepted := 0
	for len(ps) > 0 {
		chunk := ps
		if len(chunk) > burstChunk {
			chunk = ps[:burstChunk]
		}
		ps = ps[len(chunk):]
		accepted += s.dispatchChunk(chunk)
	}
	return accepted
}

func (s *shard) dispatchChunk(ps []*packet.Packet) int {
	s.syncView()
	for i := range s.occ {
		s.occ[i] = -1
	}
	groups := s.burst.group(ps)
	accepted := 0
	for gi := range groups {
		g := &groups[gi]
		accepted += s.dispatchGroup(ps, g)
	}
	s.burst.reset()
	if s.inline {
		// No goroutine of its own to flush when idle: publish now.
		s.flushAll()
	} else {
		s.publishObs()
	}
	return accepted
}

// dispatchGroup routes one flow run, resolving the fence once for the
// whole run; counter deltas match what n per-packet dispatches would
// record (one migration per switch, one fenced count per held packet).
// The fast path only commits a run wholesale — target alive, no dead
// worker to reap, and the whole run fits the ring — so a partially
// dropped run never records enqueue sequence numbers for packets that
// never reached the ring (which would fence the flow against
// retirements that can never happen).
func (s *shard) dispatchGroup(ps []*packet.Packet, g *flowGroup) int {
	first := ps[g.head]
	n := int(g.n)
	v := s.lastView
	var target int
	if s.inline {
		// Inline: the live scheduler decides, once for the whole run.
		if s.e.bs != nil {
			target = s.e.checkTarget(s.e.bs.TargetN(first, n, s.e))
		} else {
			target = s.e.checkTarget(s.e.cfg.Sched.Target(first, s.e))
		}
	} else {
		// Async: the run is one observation for the control plane, and
		// the view decides.
		s.observeN(first, n)
		target = s.e.checkTarget(v.fwd.Forward(first))
	}
	if v.health[target] != whAlive || s.e.workers[target].state.Load() == wsDead {
		return s.dispatchGroupSlow(ps, g, target)
	}
	var r route
	if !s.resolve(&r, v, first, g.hash, target) {
		return s.dispatchGroupSlow(ps, g, target)
	}
	t := r.t
	ring := s.e.workers[t].rings[s.id]
	if s.occ[t] < 0 {
		s.occ[t] = ring.Len() + len(s.staged[t])
	}
	if s.occ[t]+n > ring.Cap() {
		return s.dispatchGroupSlow(ps, g, target)
	}
	stage := s.staged[t]
	for i := g.head; i >= 0; i = s.burst.next[i] {
		stage = append(stage, ps[i])
	}
	s.staged[t] = stage
	s.occ[t] += n
	s.enqSeq[t] += uint64(n)
	s.commit(&r, n)
	if len(s.staged[t]) >= s.e.cfg.Batch {
		s.flushWorker(t)
	}
	return n
}

// dispatchGroupSlow feeds one run through the per-packet resolution
// loop (reaping, rerouting, blocking, dropping); the run's target was
// already decided (and, async, observed), so packets re-enter below
// it. Recovery may have moved packets between rings, so the occupancy
// cache is invalidated afterwards.
func (s *shard) dispatchGroupSlow(ps []*packet.Packet, g *flowGroup, target int) int {
	accepted := 0
	for i := g.head; i >= 0; i = s.burst.next[i] {
		if s.dispatchResolved(ps[i], target) {
			accepted++
		}
	}
	for i := range s.occ {
		s.occ[i] = -1
	}
	return accepted
}

// publishObs makes the burst's staged observation records visible to
// the control plane.
func (s *shard) publishObs() {
	s.e.feedback[s.id].publish()
}
