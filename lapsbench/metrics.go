package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metricDef names one printed metric and its unit. The two tables
// below are the benchmark's contract with BENCHMARK.json; the smoke
// test holds them equal.
type metricDef struct{ name, unit string }

// endToEnd are printed with --trace 0. Every workload prints every one;
// README.md says what each means on each workload.
var endToEnd = []metricDef{
	{"max_rate_pps", "pkt/s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"cpu_ns_per_pkt", "ns"},
	{"sim_pps", "pkt/s"},
	{"heap_peak_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer are printed with --trace 1. A layer a workload does not
// reach prints 0.
var perLayer = []metricDef{
	{"gen.lag_p99_us", "us"},
	{"gen.send_ns_per_dgram", "ns"},
	{"ingress.wait_us_p50", "us"},
	{"ingress.wait_us_p99", "us"},
	{"ingress.pkts_per_batch", "count"},
	{"ingress.vector_len", "count"},
	{"ingress.grows", "count"},
	{"ingress.shrinks", "count"},
	{"ingress.socket_share_max", "ratio"},
	{"runtime.dispatch_ns_per_pkt", "ns"},
	{"runtime.queue_us_p50", "us"},
	{"runtime.queue_us_p99", "us"},
	{"runtime.pkts_per_consume_batch", "count"},
	{"runtime.worker_skew", "ratio"},
	{"runtime.migrations", "count"},
	{"runtime.fenced", "count"},
	{"runtime.max_fence_hold_ms", "ms"},
	{"runtime.snapshots", "count"},
	{"runtime.feedback_dropped", "count"},
	{"npsim.tracked_flows", "count"},
	{"npsim.est_ooo", "count"},
	{"npsim.flow_budget_hits", "count"},
	{"npsim.evicted", "count"},
	{"npsim.drop_ratio", "ratio"},
	{"npsim.ooo_ratio", "ratio"},
	{"npsim.migrations", "count"},
	{"core.target_ns", "ns"},
	{"core.decisions", "count"},
	{"core.migrations", "count"},
	{"core.core_requests", "count"},
	{"core.grants", "count"},
	{"core.surplus_marks", "count"},
	{"trace.next_ns", "ns"},
	{"sim.self_ns_per_pkt", "ns"},
	{"go.alloc_bytes_per_pkt", "B"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.stage_gap_pct", "%"},
	{"replay.decode_ns", "ns"},
	{"replay.prime_ns", "ns"},
	{"replay.flowtab_ref_ns", "ns"},
	{"replay.tracker_record_ns", "ns"},
	{"replay.afd_observe_ns", "ns"},
	{"replay.hist_record_ns", "ns"},
	{"replay.sum_ns", "ns"},
	{"replay.e2e_cpu_ns_per_pkt", "ns"},
}

// stampEnv prints the environment every result is recorded with.
func stampEnv(w io.Writer, o options) {
	rmem := "unknown"
	if b, err := os.ReadFile("/proc/sys/net/core/rmem_max"); err == nil {
		rmem = strings.TrimSpace(string(b))
	}
	commit := os.Getenv("LAPSBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	fmt.Fprintf(w, "env workload=%s seed=%d seconds=%g trace=%t nproc=%d gomaxprocs=%d go=%s os=%s/%s net.core.rmem_max=%s net=loopback(127.0.0.1) commit=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH, rmem, commit)
}

// cpuNanos is the process's user+system CPU time so far.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// goCounters reads the Go runtime's allocation and GC counters.
type goCounters struct{ allocBytes, gcCycles uint64 }

func readGoCounters() goCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return goCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

func (c goCounters) sub(o goCounters) goCounters {
	return goCounters{allocBytes: c.allocBytes - o.allocBytes, gcCycles: c.gcCycles - o.gcCycles}
}

// heapWatch samples the Go heap in use every few milliseconds while it
// runs and keeps the peak.
type heapWatch struct {
	stop       chan struct{}
	done       sync.WaitGroup
	base, peak uint64
}

func watchHeap() *heapWatch {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	h := &heapWatch{stop: make(chan struct{}), base: s[0].Value.Uint64()}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak above the heap in use at
// the start, in MB.
func (h *heapWatch) end() float64 {
	close(h.stop)
	h.done.Wait()
	if h.peak < h.base {
		return 0
	}
	return float64(h.peak-h.base) / (1 << 20)
}

// quantile returns the q-quantile of xs (sorted in place) by the
// nearest-rank rule.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }) {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the median of xs (copied, not reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartile returns the k-th quartile (k = 1, 2, 3) of xs.
func quartile(xs []float64, k int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(len(s)*k/4, len(s)-1)]
}

func meanInt(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}
