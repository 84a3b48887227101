package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// program. Spans of one benchmark op share Op; Parent is the index of
// the span that caused this one, or -1 at the top of an op.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run; they are written out
// once, when the run ends. Spans may be opened from several goroutines
// (the planner replica lowers GPUs concurrently, as BuildPlan does).
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span // guarded by mu
	op    int    // guarded by mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp starts a new benchmark op and returns its id.
func (t *tracer) newOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op++
	return t.op
}

// begin opens a span of op under parent and returns its index.
func (t *tracer) begin(name string, op, parent int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes returns, for every closed span, its duration minus the part
// of its interval that its children cover. Children may overlap each
// other (concurrent per-GPU work); the covered part is their union.
func (t *tracer) selfTimes() []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		var iv [][2]time.Duration
		for _, c := range children[i] {
			if cs := t.spans[c]; cs.End >= 0 {
				iv = append(iv, [2]time.Duration{max(cs.Start, s.Start), min(cs.End, s.End)})
			}
		}
		self[i] = s.End - s.Start - unionLen(iv)
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var cur [2]time.Duration
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		switch {
		case !open:
			cur, open = x, true
		case x[0] <= cur[1]:
			cur[1] = max(cur[1], x[1])
		default:
			total += cur[1] - cur[0]
			cur = x
		}
	}
	if open {
		total += cur[1] - cur[0]
	}
	return total
}

// selfMsByOp sums, per op, the self time in ms of the spans named name.
func (t *tracer) selfMsByOp(self []time.Duration, name string) map[int]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]float64{}
	for i, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out[s.Op] += float64(self[i]) / 1e6
		}
	}
	return out
}

// write dumps every span, with its self time, as JSON.
func (t *tracer) write(path string, stamp map[string]any) error {
	self := t.selfTimes()
	type out struct {
		span
		SelfNs time.Duration `json:"self_ns"`
	}
	t.mu.Lock()
	all := make([]out, len(t.spans))
	for i, s := range t.spans {
		all[i] = out{s, self[i]}
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"env": stamp, "spans": all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
