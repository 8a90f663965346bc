package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// maxSpans bounds the spans a traced run keeps in memory.
const maxSpans = 20000

// span is one Chrome trace-event "complete" event; times in us.
type span struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// spanLog keeps a traced run's sampled spans in memory and writes them
// as Chrome-trace JSON at the end. A nil log records nothing.
type spanLog struct {
	path  string
	spans []span
}

func newSpanLog(o options) *spanLog { return &spanLog{path: o.traceOut} }

// add records a span starting at t0 (benchmark clock, ns) lasting d ns.
func (l *spanLog) add(name, cat string, t0, d int64) {
	l.addArgs(name, cat, 0, t0, d, nil)
}

// addArgs records a span on lane tid with arguments.
func (l *spanLog) addArgs(name, cat string, tid int, t0, d int64, args map[string]any) {
	if l == nil || len(l.spans) >= maxSpans {
		return
	}
	l.spans = append(l.spans, span{Name: name, Cat: cat, Ph: "X", Ts: float64(t0) / 1e3, Dur: float64(d) / 1e3, Pid: 1, Tid: tid, Args: args})
}

// write saves the trace; a failure to write it is reported, not fatal,
// since the metrics do not depend on it.
func (l *spanLog) write(w io.Writer) {
	if l == nil {
		return
	}
	err := os.MkdirAll(filepath.Dir(l.path), 0o755)
	if err == nil {
		var b []byte
		if b, err = json.Marshal(map[string]any{"traceEvents": l.spans, "displayTimeUnit": "ns"}); err == nil {
			err = os.WriteFile(l.path, b, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(w, "trace: not written: %v\n", err)
		return
	}
	fmt.Fprintf(w, "trace: %d spans written to %s (open in chrome://tracing or ui.perfetto.dev)\n", len(l.spans), l.path)
}
