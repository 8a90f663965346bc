package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostMonitor samples the machine's stolen CPU time: time the
// hypervisor ran someone else on this machine's CPUs. Stalls it causes
// land in latency tails and throughput trials as if the program had
// stalled, so the benchmark measures in intervals without steal where
// it can, and reports how much steal there was.
type hostMonitor struct {
	stop chan struct{}
	done sync.WaitGroup

	mu      sync.Mutex
	samples []hostSample
}

type hostSample struct {
	at           int64 // benchmark clock, ns
	total, steal uint64
}

// hostPeriod is how often the monitor reads /proc/stat.
const hostPeriod = 20 * time.Millisecond

// watchHost starts the monitor; it returns nil where /proc/stat is
// unreadable, and a nil monitor reports every interval clean.
func watchHost() *hostMonitor {
	if _, _, ok := hostTicks(); !ok {
		return nil
	}
	h := &hostMonitor{stop: make(chan struct{})}
	h.sample()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(hostPeriod)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				h.sample()
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *hostMonitor) sample() {
	total, steal, ok := hostTicks()
	if !ok {
		return
	}
	h.mu.Lock()
	h.samples = append(h.samples, hostSample{at: now(), total: total, steal: steal})
	h.mu.Unlock()
}

// end stops the monitor and returns the share of CPU time stolen over
// its whole life.
func (h *hostMonitor) end() float64 {
	if h == nil {
		return 0
	}
	close(h.stop)
	h.done.Wait()
	first, last := h.samples[0], h.samples[len(h.samples)-1]
	if last.total == first.total {
		return 0
	}
	return float64(last.steal-first.steal) / float64(last.total-first.total)
}

// stolen reports the CPU ticks stolen in an interval covering [a, b]:
// from the last sample at or before a to the first at or after b.
func (h *hostMonitor) stolen(a, b int64) uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	n := len(h.samples)
	i := sort.Search(n, func(k int) bool { return h.samples[k].at > a }) - 1
	j := sort.Search(n, func(k int) bool { return h.samples[k].at >= b })
	if i < 0 {
		i = 0
	}
	if j >= n {
		j = n - 1
	}
	if j <= i {
		return 0
	}
	return h.samples[j].steal - h.samples[i].steal
}

// clean reports whether at most 1% of the CPU time in [a, b] was
// stolen; at USER_HZ=100 that means none for intervals under half a
// second.
func (h *hostMonitor) clean(a, b int64) bool {
	ticks := float64(b-a) / 1e7 * float64(runtime.NumCPU())
	return float64(h.stolen(a, b)) <= 0.01*ticks
}

// hostTicks reads the machine's total and stolen CPU time (USER_HZ
// ticks) from /proc/stat; ok is false where it is unavailable.
func hostTicks() (total, steal uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, v := range f[1:9] { // user .. steal; guest time is inside user
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal, true
}
