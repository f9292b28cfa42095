package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory until the run ends. A nil *tracer records
// nothing, so the untraced run calls the same code with tracing off.
type tracer struct {
	t0    time.Time
	spans []span
}

// span is one timed call: id is its index in tracer.spans, parent the
// id of the span that caused it (-1 for a root), iter the iteration it
// belongs to (-1 outside the timed loop).
type span struct {
	name       string
	id, parent int
	iter       int
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, iter int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		name: name, id: len(t.spans), parent: parent, iter: iter,
		start: time.Since(t.t0),
	})
	return len(t.spans) - 1
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	s := &t.spans[id]
	s.end = time.Since(t.t0)
	return s.end - s.start
}

// call runs f inside a span and returns f's wall time, which it
// measures whether or not tracing is on.
func (t *tracer) call(name string, parent, iter int, f func()) time.Duration {
	id := t.begin(name, parent, iter)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	t.end(id)
	return d
}

// durations returns the duration in milliseconds of every span with
// the given name, in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// selfRow is one line of the self-time table.
type selfRow struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part its child spans cover; children of one span
// never overlap, because the benchmark calls one layer at a time.
func (t *tracer) selfTimes() []selfRow {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	byName := map[string]*selfRow{}
	var rows []*selfRow
	for i, s := range t.spans {
		r := byName[s.name]
		if r == nil {
			r = &selfRow{name: s.name}
			byName[s.name] = r
			rows = append(rows, r)
		}
		r.count++
		r.total += s.end - s.start
		r.self += s.end - s.start - child[i]
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	out := make([]selfRow, len(rows))
	for i, r := range rows {
		out[i] = *r
	}
	return out
}

// writeSelfTimes prints the self-time table.
func (t *tracer) writeSelfTimes(w io.Writer) {
	rows := t.selfTimes()
	var all time.Duration
	for _, r := range rows {
		all += r.self
	}
	fmt.Fprintf(w, "%-30s %7s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %7d %12.3f %12.3f %6.1f%%\n",
			r.name, r.count, ms(r.total), ms(r.self), 100*share(float64(r.self), float64(all)))
	}
}

// chromeEvent is one Chrome trace-event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON, which
// chrome://tracing and Perfetto load directly.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.name, Cat: "perfbench", Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": s.id, "parent": s.parent, "iter": s.iter},
		}
	}
	enc := json.NewEncoder(bw)
	err = enc.Encode(struct {
		TraceEvents     []chromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}{events, "ms", meta})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
