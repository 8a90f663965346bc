// Command lapsbench is the repository benchmark. One invocation runs one
// workload generated from a seed, checks the program's outputs, and
// prints every metric by name and unit; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation beyond the per-packet checks; with --trace 1 they are
// the per-layer ones, taken from outside the program by timing calls
// into each layer's public functions and reading the counters the
// layers export. See README.md for the workloads and how to read the
// traced run.
//
// Run it from the repository root through lapsbench/run.sh, which builds
// it first:
//
//	bash lapsbench/run.sh --workload wire-steady --seed 1 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string

	// small shrinks every phase to smoke-test size.
	small bool
	// host tracks stolen CPU time, so measurements can skip intervals
	// the hypervisor interfered with.
	host *hostMonitor
	// plantReorder makes the wire handler present two sequence numbers
	// of one flow to the order check swapped, so the smoke test can
	// prove a reorder reaches the failure count.
	plantReorder bool
}

// report is what a workload produces: the JSON fields plus the
// human-readable lines printed before them.
type report struct {
	attempted uint64
	failed    uint64
	problems  []string // failed checks, one line each
	metrics   map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

// fail records a failed output check; n is how many operations it
// affected (at least 1).
func (r *report) fail(n uint64, format string, args ...any) {
	if n == 0 {
		n = 1
	}
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check records a failed check when ok is false.
func (r *report) check(ok bool, n uint64, format string, args ...any) {
	if !ok {
		r.fail(n, format, args...)
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// errInvalid marks a run the environment spoiled (generator lag, a
// receive buffer too small for the burst, an idle socket); such a run
// is not a measurement and not a program failure.
type errInvalid struct{ reason string }

func (e errInvalid) Error() string { return "run invalid: " + e.reason }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lapsbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: wire-steady, wire-churn or sim-paper")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 20, "measured time per run, in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome-trace JSON written by a traced run (default .bench_build/<workload>.trace.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "lapsbench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		fmt.Fprintln(stderr, "lapsbench: --seconds must be positive")
		return 2
	}
	o.trace = traceFlag == 1
	if o.traceOut == "" {
		o.traceOut = ".bench_build/" + o.workload + ".trace.json"
	}
	return execute(o, stdout, stderr)
}

// execute runs one workload and prints its result; it returns the exit
// code.
func execute(o options, stdout, stderr io.Writer) int {
	rep, err := runWorkload(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "lapsbench:", err)
		return 1
	}
	return emit(o, rep, stdout, stderr)
}

// runWorkload runs the chosen workload and reports host interference.
func runWorkload(o options, stdout io.Writer) (*report, error) {
	stampEnv(stdout, o)
	o.host = watchHost()
	var rep *report
	var err error
	switch o.workload {
	case "wire-steady", "wire-churn":
		rep, err = runWire(o, wireSpecs[o.workload], stdout)
	case "sim-paper":
		rep, err = runSim(o, stdout)
	default:
		return nil, fmt.Errorf("unknown workload %q (want wire-steady, wire-churn or sim-paper)", o.workload)
	}
	fmt.Fprintf(stdout, "host: %.2f%% of CPU time stolen by the hypervisor during the run\n", 100*o.host.end())
	return rep, err
}

// emit prints the failed checks and the metric lines, then the JSON
// result as the last line. The exit code is 0 only when every check
// passed.
func emit(o options, rep *report, stdout, stderr io.Writer) int {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	out := resultOut{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Correct = false
		rep.problems = append(rep.problems, "nothing was attempted")
	}
	for _, p := range rep.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
		fmt.Fprintln(stderr, "lapsbench: check failed:", p)
	}
	for _, d := range defs {
		v := rep.metrics[d.name]
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "metric %-32s %16.6g %s\n", d.name, v, d.unit)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "lapsbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// since is the benchmark's clock: monotonic nanoseconds since start.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }
