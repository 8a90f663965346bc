package main

import (
	"fmt"
	"io"

	"laps"
	"laps/internal/afd"
	"laps/internal/crc"
	"laps/internal/flowtab"
	"laps/internal/ingress"
	"laps/internal/npsim"
	"laps/internal/obs/telemetry"
	"laps/internal/packet"
)

// recordIn is one generated input packet, as the replay ladder feeds it
// to single layers.
type recordIn struct {
	flow packet.FlowKey
	svc  laps.ServiceID
	size int
	seq  uint64
}

// numberFlows assigns per-flow sequence numbers in input order.
func numberFlows(recs []recordIn) []recordIn {
	seqs := flowtab.New[uint64](1 << 12)
	for i := range recs {
		s := seqs.Ref(recs[i].flow, crc.FlowHash(recs[i].flow))
		recs[i].seq = *s
		*s++
	}
	return recs
}

// wireRecords draws n records from a wire workload's own source.
func wireRecords(spec wireSpec, seed uint64, n int) []recordIn {
	src := spec.source(seed)
	out := make([]recordIn, n)
	for i := range out {
		r := src.next()
		out[i] = recordIn{flow: r.Flow, svc: r.Service, size: r.Size, seq: r.Seq}
	}
	return out
}

// replayLadder feeds a workload's own inputs through single public
// functions, one layer at a time, and reports each one's ns per packet
// (median of three passes) plus their sum next to the measured
// end-to-end CPU cost per packet. recs is the datagram size, budget
// the workload's flow budget.
func replayLadder(rep *report, recs []recordIn, perDgram, budget int, seed uint64, e2eCPU float64, w io.Writer) {
	n := len(recs)
	pkts := make([]packet.Packet, n)
	wire := make([]ingress.Record, n)
	for i, r := range recs {
		pkts[i] = packet.Packet{Flow: r.flow, Service: r.svc, Size: r.size, FlowSeq: r.seq}
		crc.Prime(&pkts[i])
		wire[i] = ingress.Record{Flow: r.flow, Service: r.svc, Size: r.size, Seq: r.seq}
	}
	var dgrams [][]byte
	for i := 0; i < n; i += perDgram {
		dgrams = append(dgrams, ingress.EncodeDatagram(nil, wire[i:min(i+perDgram, n)]))
	}

	var sink uint64
	stages := []struct {
		name string
		run  func()
	}{
		{"replay.decode_ns", func() {
			for _, d := range dgrams {
				k, _ := ingress.DecodeDatagram(d, func(r ingress.Record) { sink += r.Seq })
				sink += uint64(k)
			}
		}},
		{"replay.prime_ns", func() {
			for i := range pkts {
				pkts[i].HashOK = false
				crc.Prime(&pkts[i])
			}
		}},
		{"replay.flowtab_ref_ns", func() {
			t := flowtab.New[uint64](1 << 12)
			for i := range pkts {
				*t.Ref(pkts[i].Flow, pkts[i].Hash)++
			}
		}},
		{"replay.tracker_record_ns", func() {
			tr := npsim.NewTracker(npsim.TrackerConfig{FlowBudget: budget, Memory: laps.MemoryAuto})
			for i := range pkts {
				tr.RecordAt(&pkts[i], laps.Time(i))
			}
			sink += tr.OutOfOrder()
		}},
		{"replay.afd_observe_ns", func() {
			d := afd.New(afd.Config{Seed: seed})
			for i := range pkts {
				d.ObserveH(pkts[i].Flow, pkts[i].Hash)
			}
		}},
		{"replay.hist_record_ns", func() {
			h := telemetry.NewHist(telemetry.HistOpts{Lanes: 1})
			for i := range pkts {
				h.Record(0, int64(pkts[i].Size)*int64(i&1023))
			}
		}},
	}
	var sum float64
	line := "replay ladder (ns/pkt over the workload's own inputs):"
	for _, s := range stages {
		var passes []float64
		for k := 0; k < 3; k++ {
			t0 := now()
			s.run()
			passes = append(passes, float64(now()-t0)/float64(n))
		}
		v := median(passes)
		rep.metrics[s.name] = v
		sum += v
		line += fmt.Sprintf(" %s=%.1f", s.name[len("replay."):len(s.name)-len("_ns")], v)
	}
	rep.metrics["replay.sum_ns"] = sum
	rep.metrics["replay.e2e_cpu_ns_per_pkt"] = e2eCPU
	fmt.Fprintf(w, "%s; sum %.1f ns/pkt vs measured end-to-end CPU %.1f ns/pkt (%.1f ns/pkt outside these stages) [%d]\n",
		line, sum, e2eCPU, e2eCPU-sum, sink&1)
}
