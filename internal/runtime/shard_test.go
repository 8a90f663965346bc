package runtime

import (
	"context"
	stdrt "runtime"
	"sync"
	"testing"
	"time"

	"laps/internal/afd"
	"laps/internal/core"
	"laps/internal/crc"
	"laps/internal/npsim"
	"laps/internal/obs"
	"laps/internal/packet"
	"laps/internal/sim"
	"laps/internal/trace"
)

// snapHash is the minimal SnapshotProvider: a static hash scheduler
// whose forwarding state never changes (generation stays 0).
type snapHash struct{ n int }

func (h snapHash) Name() string { return "snaphash" }
func (h snapHash) Target(p *packet.Packet, _ npsim.View) int {
	return int(crc.FlowHash(p.Flow)) % h.n
}
func (h snapHash) Generation() uint64                  { return 0 }
func (h snapHash) Snapshot(_ sim.Time) npsim.Forwarder { return offsetFwd{n: h.n} }

// snapFlap re-homes every flow each period control-plane observations —
// a migration storm delivered through the real snapshot pipeline, so
// shards only ever see it via published views.
type snapFlap struct {
	n, period int
	count     int
	gen       uint64
}

func (f *snapFlap) Name() string { return "snapflap" }
func (f *snapFlap) Target(p *packet.Packet, _ npsim.View) int {
	f.count++
	if f.count%f.period == 0 {
		f.gen++
	}
	return (int(crc.FlowHash(p.Flow)) + int(f.gen)) % f.n
}
func (f *snapFlap) Generation() uint64 { return f.gen }
func (f *snapFlap) Snapshot(_ sim.Time) npsim.Forwarder {
	return offsetFwd{n: f.n, off: int(f.gen)}
}

type offsetFwd struct{ n, off int }

func (o offsetFwd) Forward(p *packet.Packet) int {
	return (int(crc.FlowHash(p.Flow)) + o.off) % o.n
}

// feedSharded generates n packets over the given services with correct
// per-flow sequence numbers, ingesting each one.
func feedSharded(tb testing.TB, e *Sharded, n int, services int, seed uint64) {
	tb.Helper()
	srcs := make([]trace.Source, services)
	for s := range srcs {
		srcs[s] = trace.NewSynthetic(trace.SynthConfig{
			Name: "rt", Flows: 500, Skew: 1.1, Seed: seed + uint64(s)*977,
		})
	}
	seqs := make(map[packet.FlowKey]uint64, 4096)
	for i := 0; i < n; i++ {
		svc := packet.ServiceID(i % services)
		rec, _ := srcs[svc].Next()
		p := &packet.Packet{
			ID:      uint64(i + 1),
			Flow:    rec.Flow,
			Service: svc,
			Size:    rec.Size,
			Arrival: e.Now(),
			FlowSeq: seqs[rec.Flow],
		}
		seqs[rec.Flow]++
		e.Ingest(p)
		if i%feedYield == feedYield-1 {
			stdrt.Gosched()
		}
	}
}

func checkShardedConservation(t *testing.T, res *Result) {
	t.Helper()
	if res.Processed+res.Dropped != res.Dispatched {
		t.Fatalf("conservation violated: processed %d + dropped %d != dispatched %d",
			res.Processed, res.Dropped, res.Dispatched)
	}
	var perW uint64
	for _, w := range res.Workers {
		perW += w.Processed
	}
	if perW != res.Processed {
		t.Fatalf("per-worker sum %d != processed %d", perW, res.Processed)
	}
}

// TestShardedFencedOrderingStorm is the sharded tier-1 stress test: a
// migration storm delivered exclusively through snapshot publishes,
// four flow-affine shards, per-shard fencing. Zero out-of-order
// departures is an absolute invariant (runs under -race in CI).
func TestShardedFencedOrderingStorm(t *testing.T) {
	e, err := NewSharded(Config{
		Workers:     4,
		Dispatchers: 4,
		RingCap:     64,
		Batch:       16,
		Sched:       &snapFlap{n: 4, period: 400},
		Policy:      BlockWhenFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feedSharded(t, e, 120000, 2, 42)
	res := e.Stop()
	checkShardedConservation(t, res)
	if res.OutOfOrder != 0 {
		t.Fatalf("fencing failed: %d out-of-order departures", res.OutOfOrder)
	}
	if res.Dropped != 0 {
		t.Fatalf("block-mode run dropped %d packets", res.Dropped)
	}
	if res.Migrations == 0 {
		t.Fatal("snapshot-driven migration storm produced no migrations")
	}
	if res.Snapshots < 2 {
		t.Fatalf("flapping generation published only %d snapshots", res.Snapshots)
	}
	if res.Dispatchers != 4 {
		t.Fatalf("result reports %d dispatchers, want 4", res.Dispatchers)
	}
	t.Logf("sharded storm: dispatched=%d migrations=%d fenced=%d snapshots=%d feedbackDropped=%d",
		res.Dispatched, res.Migrations, res.Fenced, res.Snapshots, res.FeedbackDropped)
}

// TestShardedLAPSLive drives the real LAPS scheduler behind the
// control plane: observations feed AFD and the imbalance logic, and
// every decision reaches the shards as a published ForwardingView.
func TestShardedLAPSLive(t *testing.T) {
	l := core.New(core.Config{
		TotalCores: 4,
		Services:   2,
		AFD:        afd.Config{Seed: 7},
	})
	e, err := NewSharded(Config{
		Workers:     4,
		Dispatchers: 2,
		RingCap:     64,
		Batch:       8,
		Sched:       l,
		Policy:      BlockWhenFull,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feedSharded(t, e, 60000, 2, 7)
	res := e.Stop()
	checkShardedConservation(t, res)
	if res.OutOfOrder != 0 {
		t.Fatalf("LAPS sharded run reordered %d packets despite fencing", res.OutOfOrder)
	}
	if res.Snapshots == 0 {
		t.Fatal("no forwarding view was ever published")
	}
}

// flowLog records per-flow retirement sequences across workers.
type flowLog struct {
	mu   sync.Mutex
	seqs map[packet.FlowKey][]uint64
}

func newFlowLog() *flowLog { return &flowLog{seqs: make(map[packet.FlowKey][]uint64)} }

func (fl *flowLog) handler(_ int, p *packet.Packet) {
	fl.mu.Lock()
	fl.seqs[p.Flow] = append(fl.seqs[p.Flow], p.FlowSeq)
	fl.mu.Unlock()
}

// TestShardedConformanceAcrossShardCounts is the cross-shard
// conformance gate: the same Traffic+Seed on one inline shard and at
// Dispatchers=1 and Dispatchers=4 must retire identical per-flow packet
// sequences — every flow complete, every flow in strict FlowSeq order
// (OOO==0), zero drops — under fencing and a migration storm (live
// scheduler decisions inline, snapshot-driven when sharded).
func TestShardedConformanceAcrossShardCounts(t *testing.T) {
	run := func(shards int) (*Result, *flowLog) {
		fl := newFlowLog()
		cfg := Config{
			Workers:     4,
			Dispatchers: shards,
			RingCap:     64,
			Batch:       16,
			Sched:       &snapFlap{n: 4, period: 300},
			Policy:      BlockWhenFull,
			Handler:     fl.handler,
		}
		newEngine := NewSharded
		if shards == 0 {
			newEngine = New
		}
		e, err := newEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Start(context.Background())
		feedSharded(t, e, 40000, 2, 99)
		res := e.Stop()
		checkShardedConservation(t, res)
		if res.Dropped != 0 {
			t.Fatalf("Dispatchers=%d dropped %d packets in block mode", shards, res.Dropped)
		}
		if res.OutOfOrder != 0 {
			t.Fatalf("Dispatchers=%d reordered %d packets", shards, res.OutOfOrder)
		}
		return res, fl
	}
	res1, log1 := run(1)
	for _, shards := range []int{0, 4} {
		resN, logN := run(shards)
		if res1.Processed != resN.Processed {
			t.Fatalf("retired counts differ: Dispatchers=1 %d vs Dispatchers=%d %d",
				res1.Processed, shards, resN.Processed)
		}
		if len(log1.seqs) != len(logN.seqs) {
			t.Fatalf("flow sets differ: %d vs %d flows (Dispatchers=%d)", len(log1.seqs), len(logN.seqs), shards)
		}
		for f, s1 := range log1.seqs {
			sN, ok := logN.seqs[f]
			if !ok {
				t.Fatalf("flow %v retired at Dispatchers=1 but missing at %d", f, shards)
			}
			if len(s1) != len(sN) {
				t.Fatalf("flow %v: %d packets at Dispatchers=1 vs %d at %d", f, len(s1), len(sN), shards)
			}
			for i := range s1 {
				// Fencing makes each run's per-flow retirement strictly
				// FlowSeq-ordered, so both must be the identity sequence.
				if s1[i] != uint64(i) || sN[i] != uint64(i) {
					t.Fatalf("flow %v retired out of sequence at position %d: %d (D=1) / %d (D=%d)",
						f, i, s1[i], sN[i], shards)
				}
			}
		}
	}
}

// TestShardedChaosRecovery is the multi-shard chaos gate: seeded
// stalls plus a kill mid-run with Dispatchers>1, under Block policy so
// nothing may legitimately drop. Each shard drains its own ring of the
// dead worker; ordering and conservation stay absolute.
func TestShardedChaosRecovery(t *testing.T) {
	const window = 80 * time.Millisecond
	plan := &FaultPlan{Faults: []Fault{
		{Worker: 1, After: 1500, Kind: FaultStall, Duration: 800 * time.Millisecond},
		{Worker: 3, After: 2000, Kind: FaultKill},
	}}
	rec := obs.NewRecorder(1 << 14)
	e, err := NewSharded(Config{
		Workers:      4,
		Dispatchers:  4,
		RingCap:      64,
		Batch:        16,
		Sched:        snapHash{n: 4},
		Policy:       BlockWhenFull,
		Faults:       plan,
		DetectWindow: window,
		Recorder:     rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feedSharded(t, e, 60000, 2, 42)
	res := e.Stop()
	checkShardedConservation(t, res)
	if res.Dropped != 0 {
		t.Fatalf("block-mode chaos run dropped %d packets (stranded %d)", res.Dropped, res.Stranded)
	}
	if res.OutOfOrder != 0 {
		t.Fatalf("recovery reordered %d packets", res.OutOfOrder)
	}
	if res.WorkerDeaths < 2 {
		t.Fatalf("expected the kill and the stall quarantine, got %d deaths", res.WorkerDeaths)
	}
	if res.WorkerStalls == 0 {
		t.Fatal("no stall detection despite an over-window stall with backlog")
	}
	if !res.Workers[3].Dead {
		t.Fatal("killed worker 3 not marked dead")
	}
	if res.Reinjected == 0 || res.Recovered == 0 {
		t.Fatalf("recovery moved nothing: reinjected=%d recovered flows=%d",
			res.Reinjected, res.Recovered)
	}
	if res.MaxDetect <= 0 || res.MaxDetect > 3*window {
		t.Fatalf("detection latency %v outside (0, %v]", res.MaxDetect, 3*window)
	}
	if rec.Count(obs.EvWorkerDead) != res.WorkerDeaths {
		t.Fatalf("recorder has %d EvWorkerDead, result says %d",
			rec.Count(obs.EvWorkerDead), res.WorkerDeaths)
	}
	// Every shard drains its own ring per quarantined worker, so the
	// recovery events multiply by the shard count.
	if rec.Count(obs.EvRecovery) < res.WorkerDeaths {
		t.Fatalf("got %d EvRecovery for %d deaths across 4 shards",
			rec.Count(obs.EvRecovery), res.WorkerDeaths)
	}
	t.Logf("sharded chaos: deaths=%d stalls=%d reinjected=%d flows=%d maxDetect=%v",
		res.WorkerDeaths, res.WorkerStalls, res.Reinjected, res.Recovered, res.MaxDetect)
}

// TestShardedDropPolicy: a slow worker behind tiny rings under
// DropWhenFull must shed load with exact accounting.
func TestShardedDropPolicy(t *testing.T) {
	e, err := NewSharded(Config{
		Workers:     1,
		Dispatchers: 2,
		RingCap:     2,
		Batch:       2,
		IngressCap:  8,
		Sched:       snapHash{n: 1},
		Work:        WorkSleep,
		WorkFactor:  0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feedSharded(t, e, 3000, 1, 5)
	res := e.Stop()
	checkShardedConservation(t, res)
	if res.Dropped == 0 {
		t.Fatal("tiny rings with a slow worker dropped nothing")
	}
}

// TestShardedTelemetry checks recorder integration: snapshot publishes
// land in the recorder (count matching the result), and the merged
// event stream is timestamp-ordered.
func TestShardedTelemetry(t *testing.T) {
	rec := obs.NewRecorder(1 << 14)
	e, err := NewSharded(Config{
		Workers:         2,
		Dispatchers:     2,
		RingCap:         64,
		Batch:           8,
		Sched:           &snapFlap{n: 2, period: 200},
		Policy:          BlockWhenFull,
		Recorder:        rec,
		MetricsInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	feedSharded(t, e, 20000, 1, 11)
	time.Sleep(3 * time.Millisecond)
	res := e.Stop()
	checkShardedConservation(t, res)
	if got := rec.Count(obs.EvSnapshotPublish); got != res.Snapshots {
		t.Fatalf("recorder has %d EvSnapshotPublish, result says %d", got, res.Snapshots)
	}
	if res.Series == nil || res.Series.Len() == 0 {
		t.Fatal("metrics interval set but no series sampled")
	}
	evs := rec.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("event %d out of timestamp order after merge", i)
		}
	}
}

// TestShardedValidation covers construction errors on both engines.
func TestShardedValidation(t *testing.T) {
	if _, err := New(Config{Workers: 1, Sched: snapHash{n: 1}, Dispatchers: 2}); err == nil {
		t.Fatal("New accepted Dispatchers > 0")
	}
	if _, err := NewSharded(Config{Workers: 1, Sched: snapHash{n: 1}}); err == nil {
		t.Fatal("sharded engine accepted Dispatchers < 1")
	}
	if _, err := NewSharded(Config{Workers: 0, Dispatchers: 1, Sched: snapHash{n: 1}}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := NewSharded(Config{Workers: 1, Dispatchers: 1}); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	// A scheduler without snapshot support cannot ride the sharded path.
	if _, err := NewSharded(Config{Workers: 1, Dispatchers: 1, Sched: hashSched{n: 1}}); err == nil {
		t.Fatal("non-SnapshotProvider scheduler accepted by the sharded engine")
	}
}
