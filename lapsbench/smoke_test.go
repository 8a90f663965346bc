package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the program must honour.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return f
}

// smoke runs one workload at smoke-test size and returns its exit code,
// its output and the parsed last line.
func smoke(t *testing.T, o options) (int, string, resultOut) {
	t.Helper()
	o.seed, o.seconds, o.small = 3, 1, true
	o.traceOut = filepath.Join(t.TempDir(), "trace.json")
	var out, errb bytes.Buffer
	code := execute(o, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultOut
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%t: last line is not the JSON result: %v\n%s\n%s", o.workload, o.trace, err, out.String(), errb.String())
	}
	return code, out.String(), res
}

// TestSmokeEveryMetricPrinted runs every workload of BENCHMARK.json at a
// small size, untraced and traced, and checks each prints exactly the
// metrics BENCHMARK.json names, with their units, and passes its checks.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	f := readBenchmark(t)
	for _, set := range []struct {
		trace bool
		want  []struct{ Name, Unit string }
		defs  []metricDef
	}{{false, f.EndToEnd, endToEnd}, {true, f.PerLayer, perLayer}} {
		if len(set.want) != len(set.defs) {
			t.Fatalf("trace=%t: BENCHMARK.json names %d metrics, the program %d", set.trace, len(set.want), len(set.defs))
		}
		for i, m := range set.want {
			if set.defs[i].name != m.Name || set.defs[i].unit != m.Unit {
				t.Errorf("trace=%t metric %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					set.trace, i, m.Name, m.Unit, set.defs[i].name, set.defs[i].unit)
			}
		}
		for _, wl := range f.Workloads {
			code, out, res := smoke(t, options{workload: wl.Name, trace: set.trace})
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: exit %d, correct=%t failed=%d attempted=%d\n%s",
					wl.Name, set.trace, code, res.Correct, res.Failed, res.Attempted, out)
			}
			if len(res.Metrics) != len(set.want) {
				t.Errorf("%s trace=%t: %d metrics printed, want %d", wl.Name, set.trace, len(res.Metrics), len(set.want))
			}
			for _, m := range set.want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s printed as %+v (present %t), want unit %s", wl.Name, set.trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestSmokePlantedReorderFails swaps two sequence numbers of one flow on
// their way into the order check and expects the run to fail because
// of it.
func TestSmokePlantedReorderFails(t *testing.T) {
	code, out, res := smoke(t, options{workload: "wire-steady", plantReorder: true})
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("planted reorder not reported: exit %d correct=%t failed=%d\n%s", code, res.Correct, res.Failed, out)
	}
	if !strings.Contains(out, "handler check") {
		t.Errorf("failure not attributed to the order check:\n%s", out)
	}
}
