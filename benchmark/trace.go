package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors the monotonic nanosecond clock every span uses.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// spanSample keeps one full span per this many timed calls.
const spanSample = 1000

// layerStat aggregates one layer's calls as seen from the benchmark's
// wrappers. Every call is counted; every stride-th call is timed, so a
// per-tick layer does not pay two clock reads on every tick.
type layerStat struct {
	name   string
	stride int64 // power of two
	calls  atomic.Int64
	timed  atomic.Int64
	ns     atomic.Int64
}

// sample counts a call and reports whether this one is to be timed.
func (l *layerStat) sample() bool {
	return l.calls.Add(1)&(l.stride-1) == 0
}

// tracer holds the traced run's layer aggregates and sampled spans.
// Spans are kept in memory and written once, at exit.
type tracer struct {
	layers   map[string]*layerStat // filled before the traced phase starts
	overhead float64               // ns one begin/end clock pair adds to a timed interval
	// byTrace samples whole traces (every span of one request) instead
	// of every spanSample-th timed call.
	byTrace bool
	seq     atomic.Int64
	traces  atomic.Int64
	ids     atomic.Int64

	mu    sync.Mutex
	spans []span
}

// span is one recorded interval. Spans of one session or request share
// a trace ID; Parent is the span that caused this one.
type span struct {
	Name       string
	Start, End int64
	ID, Parent int64
	Trace      int64
	Lane       int
}

func newTracer() *tracer {
	return &tracer{layers: map[string]*layerStat{}, overhead: clockOverheadNS()}
}

// layer returns the named layer's aggregate, creating it. Call before
// the traced phase: the map is read concurrently afterwards.
func (t *tracer) layer(name string, stride int64) *layerStat {
	if l, ok := t.layers[name]; ok {
		return l
	}
	l := &layerStat{name: name, stride: stride}
	t.layers[name] = l
	return l
}

// newTrace numbers a session or request. Its root span's ID is the
// trace number; other spans take IDs from above spanIDBase, so the two
// never collide.
func (t *tracer) newTrace() int64 { return t.traces.Add(1) }

const spanIDBase = 1 << 40

func (t *tracer) newID() int64 { return spanIDBase + t.ids.Add(1) }

// observe feeds one timed call into its layer and keeps it as a full
// span if it falls in the 1-in-spanSample sample. s carries the span's
// links; a zero ID gets a fresh one.
func (t *tracer) observe(l *layerStat, start, end int64, s span) {
	l.timed.Add(1)
	l.ns.Add(end - start)
	keep := t.seq.Add(1)%spanSample == 0
	if t.byTrace {
		keep = s.Trace%spanSample == 0
	}
	if keep {
		s.Name, s.Start, s.End = l.name, start, end
		if s.ID == 0 {
			s.ID = t.newID()
		}
		t.keep(s)
	}
}

// child links a span to its session or request: same trace, parented
// by the root span whose ID is the trace ID.
func child(trace int64) span { return span{Trace: trace, Parent: trace} }

// keep records a span unconditionally (sessions, requests' roots).
func (t *tracer) keep(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// nsPerCall is the layer's mean timed interval with the clock pair's
// own cost removed.
func (t *tracer) nsPerCall(name string) float64 {
	l := t.layers[name]
	if l == nil || l.timed.Load() == 0 {
		return 0
	}
	return max(float64(l.ns.Load())/float64(l.timed.Load())-t.overhead, 0)
}

func (t *tracer) calls(name string) int64 {
	if l := t.layers[name]; l != nil {
		return l.calls.Load()
	}
	return 0
}

// clockOverheadNS estimates what a begin/end pair of nowNS calls adds
// to a measured interval: the median of back-to-back pairs.
func clockOverheadNS() float64 {
	d := make([]float64, 4096)
	for i := range d {
		a := nowNS()
		b := nowNS()
		d[i] = float64(b - a)
	}
	return percentile(sortedCopy(d), 0.5)
}

// writeChrome writes the kept spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string           `json:"name"`
		Ph   string           `json:"ph"`
		TS   float64          `json:"ts"`
		Dur  float64          `json:"dur"`
		PID  int              `json:"pid"`
		TID  int              `json:"tid"`
		Args map[string]int64 `json:"args"`
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]int64{"id": s.ID, "parent": s.Parent, "trace": s.Trace},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// BudgetRow is one layer's line in a workload's time budget: its cost
// per call times its calls per op, against the end-to-end time per op.
type BudgetRow struct {
	Layer      string  `json:"layer"`
	Source     string  `json:"source"` // live (wrapper), replay, or bench (timed around the benchmark's own call)
	NsPerCall  float64 `json:"ns_per_call"`
	CallsPerOp float64 `json:"calls_per_op"`
	NsPerOp    float64 `json:"ns_per_op"`
	Share      float64 `json:"share"`
}

// budget turns layer rows into shares of the untraced end-to-end time
// per op and appends the unexplained remainder.
func budget(rows []BudgetRow, e2eNsPerOp float64) []BudgetRow {
	explained := 0.0
	for i := range rows {
		rows[i].NsPerOp = rows[i].NsPerCall * rows[i].CallsPerOp
		rows[i].Share = rows[i].NsPerOp / e2eNsPerOp
		explained += rows[i].NsPerOp
	}
	return append(rows,
		BudgetRow{Layer: "unexplained", NsPerOp: e2eNsPerOp - explained, Share: 1 - explained/e2eNsPerOp},
		BudgetRow{Layer: "end_to_end", Source: "untraced", CallsPerOp: 1, NsPerCall: e2eNsPerOp, NsPerOp: e2eNsPerOp, Share: 1})
}

func writeBudget(w io.Writer, workload string, rows []BudgetRow) {
	fmt.Fprintf(w, "%s budget: %-22s %-8s %12s %12s %12s %7s\n", workload, "layer", "source", "ns/call", "calls/op", "ns/op", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%s budget: %-22s %-8s %12.1f %12.3f %12.1f %6.1f%%\n",
			workload, r.Layer, r.Source, r.NsPerCall, r.CallsPerOp, r.NsPerOp, 100*r.Share)
	}
}

// blockNS times fn over whole blocks of calls until at least minDur has
// elapsed and returns the mean ns per call, where one invocation of fn
// makes calls calls. Replays of
// nanosecond-scale layers use it: a clock read per call would cost
// more than the call.
func blockNS(minDur time.Duration, calls int, fn func()) float64 {
	var total time.Duration
	n := 0
	for total < minDur || n == 0 {
		start := time.Now()
		fn()
		total += time.Since(start)
		n += calls
	}
	return float64(total.Nanoseconds()) / float64(n)
}
