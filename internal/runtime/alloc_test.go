//go:build !race

// Zero-allocation regression guard for the live dispatch path. Excluded
// under the race detector: its instrumentation allocates on its own,
// which would fail this pin spuriously (the -race CI lane still runs
// every functional test in this package).

package runtime

import (
	"context"
	"testing"

	"laps/internal/crc"
	"laps/internal/obs"
	"laps/internal/obs/telemetry"
	"laps/internal/packet"
)

// TestDispatchZeroAllocSteadyState pins the tentpole contract: with a
// packet pool wired in and the flow tables warmed, the full live cycle
// — pool Get, prime, Dispatch, fence lookup, ring hand-off, worker
// retirement, reorder tracking, pool Put — allocates nothing per
// packet. WorkNone isolates the data path itself. The telemetry
// subtest re-runs the pin with event recording and the full histogram
// set enabled: Record and Emit must stay allocation-free too.
func TestDispatchZeroAllocSteadyState(t *testing.T) {
	t.Run("plain", func(t *testing.T) { testDispatchZeroAlloc(t, false) })
	t.Run("telemetry", func(t *testing.T) { testDispatchZeroAlloc(t, true) })
}

func testDispatchZeroAlloc(t *testing.T, instrumented bool) {
	pool := packet.NewPool()
	cfg := Config{
		Workers: 2,
		RingCap: 1024,
		Batch:   64,
		Sched:   hashSched{n: 2},
		Policy:  BlockWhenFull,
		Pool:    pool,
	}
	if instrumented {
		cfg.Recorder = obs.NewRecorder(0)
		cfg.Telemetry = telemetry.NewRegistry()
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())

	const flows = 512
	var keys [flows]packet.FlowKey
	for i := range keys {
		keys[i] = packet.FlowKey{SrcIP: uint32(i), DstIP: 0xcafe, SrcPort: 80, DstPort: uint16(i), Proto: 17}
	}
	var seqs [flows]uint64
	var id uint64
	next := 0
	cycle := func() {
		i := next % flows
		next++
		p := pool.Get()
		id++
		p.ID = id
		p.Flow = keys[i]
		p.Size = 256
		p.FlowSeq = seqs[i]
		seqs[i]++
		crc.Prime(p) // ingress hash point, as the generator does it
		e.Dispatch(p)
	}
	// Warm up: grow the flow tables and ring stages to the working set.
	for i := 0; i < 20000; i++ {
		cycle()
	}
	// Seed the pool past the maximum possible in-flight population so a
	// transient producer/consumer imbalance never forces Pool.Get to
	// allocate mid-measurement.
	for i := 0; i < 8192; i++ {
		pool.Put(new(packet.Packet))
	}

	avg := testing.AllocsPerRun(5000, cycle)

	e.Flush()
	res := e.Stop()
	if res.Dropped != 0 {
		t.Fatalf("BlockWhenFull run dropped %d packets", res.Dropped)
	}
	if avg != 0 {
		t.Fatalf("live dispatch steady state allocates %.3f per packet, want 0", avg)
	}
	if instrumented {
		if n := cfg.Telemetry.Snapshot()["laps_packet_latency_seconds"].(map[string]any)["count"].(uint64); n == 0 {
			t.Fatal("telemetry enabled but no latency samples recorded")
		}
	}
}

// TestDispatchBurstZeroAlloc pins the burst path's allocation contract
// on an inline engine: grouping a 64-packet burst by flow, resolving
// each group once, staging whole runs and flushing allocates nothing
// per burst once warm — the scratch tables are engine-owned and the
// flow groups reuse the chunk-sized arrays.
func TestDispatchBurstZeroAlloc(t *testing.T) {
	pool := packet.NewPool()
	e, err := New(Config{
		Workers: 2,
		RingCap: 1024,
		Batch:   64,
		Sched:   hashSched{n: 2},
		Policy:  BlockWhenFull,
		Pool:    pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())

	const flows, burst = 512, 64
	var keys [flows]packet.FlowKey
	for i := range keys {
		keys[i] = packet.FlowKey{SrcIP: uint32(i), DstIP: 0xcafe, SrcPort: 80, DstPort: uint16(i), Proto: 17}
	}
	var seqs [flows]uint64
	var id uint64
	next := 0
	buf := make([]*packet.Packet, burst)
	cycle := func() {
		for i := range buf {
			k := next % flows
			next++
			p := pool.Get()
			id++
			p.ID = id
			p.Flow = keys[k]
			p.Size = 256
			p.FlowSeq = seqs[k]
			seqs[k]++
			crc.Prime(p)
			buf[i] = p
		}
		e.DispatchBurst(buf)
	}
	for i := 0; i < 500; i++ {
		cycle()
	}
	for i := 0; i < 8192; i++ {
		pool.Put(new(packet.Packet))
	}

	avg := testing.AllocsPerRun(2000, cycle)

	res := e.Stop()
	if res.Dropped != 0 {
		t.Fatalf("BlockWhenFull run dropped %d packets", res.Dropped)
	}
	if avg != 0 {
		t.Fatalf("burst dispatch steady state allocates %.3f per burst, want 0", avg)
	}
}

// TestIngestBurstZeroAlloc pins the same contract on the sharded data
// plane's ingest edge: partitioning a burst across shards and pushing
// per-shard runs with batched ring reservations allocates nothing.
func TestIngestBurstZeroAlloc(t *testing.T) {
	pool := packet.NewPool()
	e, err := NewSharded(Config{
		Workers:     2,
		Dispatchers: 2,
		RingCap:     1024,
		Batch:       64,
		Sched:       snapHash{n: 2},
		Policy:      BlockWhenFull,
		Pool:        pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())

	const flows, burst = 512, 64
	var keys [flows]packet.FlowKey
	for i := range keys {
		keys[i] = packet.FlowKey{SrcIP: uint32(i), DstIP: 0xbeef, SrcPort: 80, DstPort: uint16(i), Proto: 17}
	}
	var seqs [flows]uint64
	var id uint64
	next := 0
	buf := make([]*packet.Packet, burst)
	cycle := func() {
		for i := range buf {
			k := next % flows
			next++
			p := pool.Get()
			id++
			p.ID = id
			p.Flow = keys[k]
			p.Size = 256
			p.FlowSeq = seqs[k]
			seqs[k]++
			crc.Prime(p)
			buf[i] = p
		}
		e.IngestBurst(buf)
	}
	for i := 0; i < 500; i++ {
		cycle()
	}
	for i := 0; i < 8192; i++ {
		pool.Put(new(packet.Packet))
	}

	avg := testing.AllocsPerRun(2000, cycle)

	res := e.Stop()
	if res.Dropped != 0 {
		t.Fatalf("BlockWhenFull run dropped %d packets", res.Dropped)
	}
	if avg != 0 {
		t.Fatalf("sharded burst ingest steady state allocates %.3f per burst, want 0", avg)
	}
}
