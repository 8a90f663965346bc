package npsim

import (
	"fmt"

	"laps/internal/crc"
	"laps/internal/flowtab"
	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/sketch"
	"laps/internal/stats"
)

// MemoryClass selects how per-flow state is bounded once a flow budget
// is in play. It is the single memory knob shared by the reorder
// trackers, the fence tables and the flow-affinity tables (see
// docs/SCALE.md).
type MemoryClass uint8

const (
	// MemoryAuto keeps exact per-flow state until the live flow count
	// exceeds the budget, then degrades to the sketch/coarse variants.
	// With a zero budget it never degrades. This is the zero value.
	MemoryAuto MemoryClass = iota
	// MemoryExact never degrades. A non-zero budget bounds the exact
	// tables by eviction (tracker: FIFO; fence: sweep) instead.
	MemoryExact
	// MemorySketch starts in the bounded-memory sketch/coarse regime
	// immediately, sized by the budget.
	MemorySketch
)

// String renders the class the way the -memory CLI flags spell it.
func (m MemoryClass) String() string {
	switch m {
	case MemoryExact:
		return "exact"
	case MemorySketch:
		return "sketch"
	default:
		return "auto"
	}
}

// ParseMemoryClass parses "exact", "sketch" or "auto".
func ParseMemoryClass(s string) (MemoryClass, error) {
	switch s {
	case "auto", "":
		return MemoryAuto, nil
	case "exact":
		return MemoryExact, nil
	case "sketch":
		return MemorySketch, nil
	}
	return MemoryAuto, fmt.Errorf("unknown memory class %q (want exact, sketch or auto)", s)
}

// TrackerConfig configures a ReorderTracker. The zero value is an
// unbounded exact tracker with the default size hint.
type TrackerConfig struct {
	// SizeHint pre-sizes the exact table for about this many flows
	// (default 1<<14). Sharded callers pass small hints so the combined
	// tables stay cache-resident.
	SizeHint int
	// FlowBudget bounds per-flow state. 0 = unbounded. Its meaning
	// depends on Memory: under MemoryAuto it is the live-flow count
	// past which the tracker degrades to a sketch; under MemoryExact it
	// is a hard cap enforced by FIFO eviction; under MemorySketch it
	// sizes the sketch (width = next power of two >= budget, min 1024).
	FlowBudget int
	// Memory selects the bounding strategy. See MemoryClass.
	Memory MemoryClass
}

// sketchDepth is the row count of tracker sketches: 4 rows push the
// false-positive bound to (n/w)^4 while keeping the record path at four
// cache lines.
const sketchDepth = 4

// sketchWidth sizes a tracker sketch from a flow budget: the next power
// of two at or above the budget, never below 1024 buckets. Memory is
// width × sketchDepth × 24 bytes, constant in the live flow count.
func sketchWidth(budget int) int {
	w := 1024
	for w < budget {
		w <<= 1
	}
	return w
}

// newTrackerSketch builds a tracker's sketch for the given budget with
// churn aging on: a bucket untouched for width records reads as empty,
// so the false-positive bound tracks recently-active flows instead of
// every flow ever seen (docs/SCALE.md). The staleness cost — a flow
// silent for a full width of departures can lose its watermark — is
// the documented bounded-staleness caveat on the one-sided guarantee.
func newTrackerSketch(budget int) *sketch.ReorderSketch {
	sk := sketch.NewReorderSketch(sketchWidth(budget), sketchDepth)
	sk.SetHorizon(uint64(sk.Width()))
	return sk
}

// ReorderTracker detects out-of-order departures at egress: a packet is
// out of order if some packet of the same flow with a *larger* flow
// sequence number already departed. Dropped packets leave gaps but gaps
// are not reorderings.
//
// Memory behavior: in exact mode the tracker keeps one 16-byte
// watermark (high seq + its departure time) per distinct flow key ever
// recorded and never evicts — flow state cannot be aged out without
// risking false negatives on late stragglers. Memory therefore grows
// linearly with the number of distinct flows (~29 bytes of key+value
// per flow plus table overhead; about 5 MB per million flows).
// TrackerConfig.FlowBudget bounds this: MemoryExact evicts FIFO past
// the budget (an evicted flow that sends again is treated as new, so a
// capped tracker can under-count across eviction boundaries — the
// Evicted counter makes that observable); MemoryAuto degrades to a
// sketch.ReorderSketch once live flows exceed the budget, seeding the
// sketch from the exact table so no watermark is lost at the switch.
// Sketch mode never misses a reordering from a flow active within the
// last width departures (the estimate is one-sided; buckets idle longer
// age out so churned-away flows stop contaminating the bound) but can
// over-report with probability <= (recently active flows / width)^depth
// per packet; OOO recorded in sketch mode is additionally counted in
// EstimatedOOO so results distinguish exact from estimated counts.
type ReorderTracker struct {
	// next holds, per flow, one past the highest FlowSeq that has
	// departed plus the time that packet departed (the reorder-lag
	// reference point). Open-addressed and keyed by the packet's cached
	// flow hash: Record runs once per departing packet, so it must
	// neither rehash the 13-byte key nor allocate in steady state.
	next      *flowtab.Table[watermark]
	ooo       uint64
	delivered uint64

	cap      int         // MemoryExact budget; 0 = unbounded
	fifo     []fifoEntry // insertion order, fifo[fifoHead:] are live
	fifoHead int
	evicted  uint64

	mode       MemoryClass
	budget     int // MemoryAuto degrade threshold / MemorySketch sizing
	sk         *sketch.ReorderSketch
	sketchOn   bool
	estimated  uint64 // OOO flagged while in sketch mode
	budgetHits uint64 // exact→sketch degrade transitions
}

// watermark is one flow's reorder state: one past the highest FlowSeq
// that has departed, and when that packet departed.
type watermark struct {
	next uint64
	t    sim.Time
}

// fifoEntry remembers an inserted flow with its hash so FIFO eviction
// never rehashes.
type fifoEntry struct {
	key  packet.FlowKey
	hash uint16
}

// NewTracker builds a tracker from a TrackerConfig. This is the one
// constructor.
func NewTracker(cfg TrackerConfig) *ReorderTracker {
	hint := cfg.SizeHint
	if hint <= 0 {
		hint = 1 << 14
	}
	switch cfg.Memory {
	case MemorySketch:
		return &ReorderTracker{
			next:     flowtab.New[watermark](1 << 4),
			mode:     MemorySketch,
			budget:   cfg.FlowBudget,
			sk:       newTrackerSketch(cfg.FlowBudget),
			sketchOn: true,
		}
	case MemoryExact:
		if cfg.FlowBudget <= 0 {
			return &ReorderTracker{next: flowtab.New[watermark](hint), mode: MemoryExact}
		}
		if cfg.SizeHint <= 0 && cfg.FlowBudget < hint {
			hint = cfg.FlowBudget
		}
		return &ReorderTracker{
			next: flowtab.New[watermark](hint),
			mode: MemoryExact,
			cap:  cfg.FlowBudget,
			fifo: make([]fifoEntry, 0, hint),
		}
	default: // MemoryAuto
		if cfg.FlowBudget > 0 && cfg.FlowBudget < hint && cfg.SizeHint <= 0 {
			hint = cfg.FlowBudget
		}
		return &ReorderTracker{
			next:   flowtab.New[watermark](hint),
			mode:   MemoryAuto,
			budget: cfg.FlowBudget,
		}
	}
}

// Record notes one departing packet and reports whether it was out of
// order.
func (r *ReorderTracker) Record(p *packet.Packet) bool {
	ooo, _, _ := r.RecordAt(p, 0)
	return ooo
}

// RecordAt notes one departing packet at departure time now and, when
// the packet is out of order, reports its reorder extent: lagPkts is
// how many sequence numbers behind the flow's high-water mark it
// arrived, lagTime how long after the overtaking packet it departed
// (0 when now or the stored watermark time is unavailable). The two
// extents are the per-event distributions the live telemetry
// histograms aggregate — reordering *extent*, not count, is what
// diagnoses migration pathologies.
func (r *ReorderTracker) RecordAt(p *packet.Packet, now sim.Time) (ooo bool, lagPkts uint64, lagTime sim.Time) {
	r.delivered++
	if r.sketchOn {
		return r.recordSketch(p, now)
	}
	h := crc.PacketHash(p)
	if r.cap == 0 {
		if r.budget > 0 && r.next.Len() > r.budget {
			// MemoryAuto crossed its budget on the previous insert:
			// degrade to the sketch and record there from now on.
			r.degradeToSketch()
			return r.recordSketch(p, now)
		}
		// Unbounded tracker: one probe sequence serves both the lookup
		// and the watermark update. Ref inserts a zero watermark on
		// first sight, which the in-order branch then overwrites —
		// exactly what Get-miss + Put did, minus the second probe.
		w := r.next.Ref(p.Flow, h)
		if p.FlowSeq+1 > w.next {
			w.next, w.t = p.FlowSeq+1, now
			return false, 0, 0
		}
		r.ooo++
		lagPkts = w.next - 1 - p.FlowSeq
		if now > w.t {
			lagTime = now - w.t
		}
		return true, lagPkts, lagTime
	}
	cur, seen := r.next.Get(p.Flow, h)
	if p.FlowSeq+1 > cur.next {
		if !seen && r.cap > 0 {
			if r.next.Len() >= r.cap {
				r.evictOldest()
			}
			r.fifo = append(r.fifo, fifoEntry{key: p.Flow, hash: h})
		}
		r.next.Put(p.Flow, h, watermark{next: p.FlowSeq + 1, t: now})
		return false, 0, 0
	}
	r.ooo++
	lagPkts = cur.next - 1 - p.FlowSeq
	if now > cur.t {
		lagTime = now - cur.t
	}
	return true, lagPkts, lagTime
}

// recordSketch is the bounded-memory record path.
func (r *ReorderTracker) recordSketch(p *packet.Packet, now sim.Time) (bool, uint64, sim.Time) {
	ooo, lagPkts, lagT := r.sk.Record(p.Flow, p.FlowSeq, int64(now))
	if !ooo {
		return false, 0, 0
	}
	r.ooo++
	r.estimated++
	return true, lagPkts, sim.Time(lagT)
}

// degradeToSketch switches a MemoryAuto tracker from exact to sketch
// mode: every exact watermark seeds the sketch (so the one-sided
// no-false-negative invariant holds across the transition), then the
// exact table is released.
func (r *ReorderTracker) degradeToSketch() {
	r.sk = newTrackerSketch(r.budget)
	r.next.Range(func(k packet.FlowKey, _ uint16, w watermark) bool {
		r.sk.Seed(k, w.next, int64(w.t))
		return true
	})
	r.next = flowtab.New[watermark](1 << 4)
	r.sketchOn = true
	r.budgetHits++
}

// evictOldest drops the least-recently-inserted flow's watermark.
func (r *ReorderTracker) evictOldest() {
	e := r.fifo[r.fifoHead]
	r.next.Delete(e.key, e.hash)
	r.fifo[r.fifoHead] = fifoEntry{}
	r.fifoHead++
	r.evicted++
	// Compact the queue once the dead prefix dominates, keeping
	// amortised O(1) eviction without unbounded slice growth.
	if r.fifoHead > len(r.fifo)/2 && r.fifoHead > 1024 {
		r.fifo = append(r.fifo[:0], r.fifo[r.fifoHead:]...)
		r.fifoHead = 0
	}
}

// Evicted reports how many flow watermarks a bounded tracker has
// discarded; each is a potential missed reordering.
func (r *ReorderTracker) Evicted() uint64 { return r.evicted }

// OutOfOrder returns the number of out-of-order departures so far
// (exact and estimated combined).
func (r *ReorderTracker) OutOfOrder() uint64 { return r.ooo }

// EstimatedOOO returns how many of the out-of-order departures were
// flagged by the sketch rather than an exact watermark. Zero while the
// tracker is exact; sketch counts are one-sided over-estimates.
func (r *ReorderTracker) EstimatedOOO() uint64 { return r.estimated }

// BudgetHits returns how many times the tracker crossed its flow budget
// and degraded from exact to sketch state (0 or 1 per run).
func (r *ReorderTracker) BudgetHits() uint64 { return r.budgetHits }

// Estimating reports whether the tracker is currently in sketch mode —
// OOO counts recorded now are estimates, not exact.
func (r *ReorderTracker) Estimating() bool { return r.sketchOn }

// Delivered returns the number of departures recorded.
func (r *ReorderTracker) Delivered() uint64 { return r.delivered }

// Flows returns the number of distinct flows tracked exactly — the
// exact table's memory footprint is proportional to this. In sketch
// mode the table has been released and Flows reports 0; SketchBytes
// gives the (constant) sketch footprint instead.
func (r *ReorderTracker) Flows() int { return r.next.Len() }

// SketchBytes returns the sketch's bucket memory in bytes, or 0 while
// the tracker is exact.
func (r *ReorderTracker) SketchBytes() int {
	if r.sk == nil {
		return 0
	}
	return r.sk.Bytes()
}

// Reset discards all per-flow watermarks and zeroes the counters,
// releasing the tracker's memory. Use at run boundaries when a single
// tracker outlives many traffic windows. The configured bound is kept;
// a MemoryAuto tracker that had degraded reverts to exact.
func (r *ReorderTracker) Reset() {
	// Keep the already-allocated slots (their size is already bounded
	// by the constructor's hint plus observed growth).
	r.next.Reset()
	r.ooo = 0
	r.delivered = 0
	r.fifo = r.fifo[:0]
	r.fifoHead = 0
	r.evicted = 0
	r.estimated = 0
	r.budgetHits = 0
	if r.sk != nil {
		r.sk.Reset()
	}
	r.sketchOn = r.mode == MemorySketch
}

// Metrics aggregates everything the paper's figures report.
type Metrics struct {
	Injected  uint64 // packets offered to the scheduler
	Enqueued  uint64 // packets accepted into some queue
	Dropped   uint64 // packets lost to full queues (Fig 7a / 9a)
	Completed uint64 // packets fully processed

	OutOfOrder  uint64 // out-of-order departures (Fig 7c / 9b)
	ColdCache   uint64 // packets paying the I-cache cold penalty (Fig 7b)
	Migrations  uint64 // flow-to-new-core transitions (Fig 9c)
	FMPenalties uint64 // packets paying the flow-migration penalty

	// EstimatedOOO is the subset of OutOfOrder flagged by the sketch
	// tracker past the flow budget (one-sided over-estimates);
	// FlowBudgetHits counts budget-crossing degrade events across the
	// tracker and the flow-affinity table. Both 0 on exact runs.
	EstimatedOOO   uint64
	FlowBudgetHits uint64

	PerSvcInjected [packet.NumServices]uint64
	PerSvcDropped  [packet.NumServices]uint64
	PerSvcDone     [packet.NumServices]uint64

	TotalLatency sim.Time // sum over completed packets of departure-arrival
	BusyTime     sim.Time // sum of per-core busy time

	// Latency is a log2 histogram (ns) of arrival→departure times per
	// service, for tail-latency reporting ("latency sensitive network
	// processors", paper §I).
	Latency [packet.NumServices]stats.Histogram
}

// LatencyP99 returns an upper bound for the service's 99th-percentile
// latency.
func (m *Metrics) LatencyP99(s packet.ServiceID) sim.Time {
	return sim.Time(m.Latency[s].Quantile(0.99))
}

// LatencyMean returns the service's mean latency.
func (m *Metrics) LatencyMean(s packet.ServiceID) sim.Time {
	return sim.Time(m.Latency[s].Mean())
}

// DropRate returns dropped/injected (0 when nothing was injected).
func (m *Metrics) DropRate() float64 {
	if m.Injected == 0 {
		return 0
	}
	return float64(m.Dropped) / float64(m.Injected)
}

// OOORate returns out-of-order departures per completed packet.
func (m *Metrics) OOORate() float64 {
	if m.Completed == 0 {
		return 0
	}
	return float64(m.OutOfOrder) / float64(m.Completed)
}

// ColdCacheRate returns the fraction of completed packets that paid the
// cold-cache penalty.
func (m *Metrics) ColdCacheRate() float64 {
	if m.Completed == 0 {
		return 0
	}
	return float64(m.ColdCache) / float64(m.Completed)
}

// MeanLatency returns the average arrival-to-departure latency.
func (m *Metrics) MeanLatency() sim.Time {
	if m.Completed == 0 {
		return 0
	}
	return m.TotalLatency / sim.Time(m.Completed)
}

// Utilization returns aggregate core busy time divided by cores × span.
func (m *Metrics) Utilization(cores int, span sim.Time) float64 {
	if cores == 0 || span == 0 {
		return 0
	}
	return float64(m.BusyTime) / (float64(cores) * float64(span))
}
