package runtime

import (
	"sync"

	"laps/internal/crc"
	"laps/internal/npsim"
	"laps/internal/packet"
	"laps/internal/sim"
)

// reorderShards is the shard count of the concurrent egress tracker.
// Sharding by flow hash keeps two workers from contending unless they
// are simultaneously retiring packets of flows that collide on a shard
// — rare at 32 shards and a handful of workers.
const reorderShards = 32

// sharedTracker is a concurrency-safe egress reorder detector. The
// per-flow watermark logic is npsim.ReorderTracker's; this type only
// adds sharded locking so every worker can record departures without a
// global serialisation point.
type sharedTracker struct {
	shards [reorderShards]struct {
		mu sync.Mutex
		t  *npsim.ReorderTracker
		_  [40]byte // keep shards on distinct cache lines
	}
}

// trackerConfig maps an engine Config onto the per-flow tracker knobs:
// FlowBudget + Memory bound the watermarks; the zero config is exact
// and unbounded.
func trackerConfig(cfg Config) npsim.TrackerConfig {
	if cfg.FlowBudget > 0 || cfg.Memory == npsim.MemorySketch {
		return npsim.TrackerConfig{FlowBudget: cfg.FlowBudget, Memory: cfg.Memory}
	}
	return npsim.TrackerConfig{}
}

// newSharedTracker builds a tracker from a TrackerConfig whose
// FlowBudget, if any, is split across shards (minimum 1 flow per
// shard).
func newSharedTracker(cfg npsim.TrackerConfig) *sharedTracker {
	s := &sharedTracker{}
	per := cfg
	if cfg.FlowBudget > 0 {
		per.FlowBudget = (cfg.FlowBudget + reorderShards - 1) / reorderShards
	}
	if per.SizeHint <= 0 {
		// Start each shard small and let it grow to its slice of the
		// working set: 32 shards at the default 16k-flow pre-size
		// would burn ~20 MB of tables and miss cache on every record.
		per.SizeHint = 1 << 7
	}
	for i := range s.shards {
		s.shards[i].t = npsim.NewTracker(per)
	}
	return s
}

// record notes one departure at time now (0 when the caller is not
// tracking time) and reports whether it was out of order plus the
// reorder extent: sequence-number lag and time lag behind the flow's
// high-water mark. Safe for concurrent use.
func (s *sharedTracker) record(p *packet.Packet, now sim.Time) (bool, uint64, sim.Time) {
	sh := &s.shards[crc.PacketHash(p)%reorderShards]
	sh.mu.Lock()
	ooo, lagPkts, lagTime := sh.t.RecordAt(p, now)
	sh.mu.Unlock()
	return ooo, lagPkts, lagTime
}

// recordBatch notes a batch of departures with no time stamps (the
// telemetry-off fast path), locking each tracker shard once per
// consecutive same-shard run instead of once per packet. Flow-grouped
// bursts arrive as same-flow runs, so this is typically one lock per
// flow run. Returns the number of out-of-order departures.
func (s *sharedTracker) recordBatch(buf []*packet.Packet, n int) uint64 {
	var ooo uint64
	i := 0
	for i < n {
		si := crc.PacketHash(buf[i]) % reorderShards
		j := i + 1
		for j < n && crc.PacketHash(buf[j])%reorderShards == si {
			j++
		}
		sh := &s.shards[si]
		sh.mu.Lock()
		for k := i; k < j; k++ {
			if o, _, _ := sh.t.RecordAt(buf[k], 0); o {
				ooo++
			}
		}
		sh.mu.Unlock()
		i = j
	}
	return ooo
}

// sum folds one tracker statistic across shards, reading each shard
// under its lock.
func (s *sharedTracker) sum(stat func(*npsim.ReorderTracker) uint64) uint64 {
	var n uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += stat(sh.t)
		sh.mu.Unlock()
	}
	return n
}

// outOfOrder sums out-of-order departures across shards.
func (s *sharedTracker) outOfOrder() uint64 { return s.sum((*npsim.ReorderTracker).OutOfOrder) }

// estimatedOOO sums sketch-flagged out-of-order departures.
func (s *sharedTracker) estimatedOOO() uint64 { return s.sum((*npsim.ReorderTracker).EstimatedOOO) }

// budgetHits sums exact→sketch degrade transitions.
func (s *sharedTracker) budgetHits() uint64 { return s.sum((*npsim.ReorderTracker).BudgetHits) }

// evicted sums evicted flow watermarks.
func (s *sharedTracker) evicted() uint64 { return s.sum((*npsim.ReorderTracker).Evicted) }

// flows sums tracked flows.
func (s *sharedTracker) flows() int {
	return int(s.sum(func(t *npsim.ReorderTracker) uint64 { return uint64(t.Flows()) }))
}
