package main

// Span recording and per-layer statistics for the traced run.  Spans
// are recorded from the benchmark's own code around each call into a
// layer (the program itself is not instrumented), kept in memory and
// written out as Chrome trace-event JSON when the run ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval.
type span struct {
	id, parent int
	name       string
	start, end time.Duration // since the tracer's origin
}

// tracer records spans; a nil tracer records nothing.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, start: now, end: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the self time in ms of every
// closed span with that name: its duration minus the part of its
// interval that its children cover.
func (t *tracer) selfTimes() map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.parent != 0 && s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered, reach time.Duration
		reach = s.start
		for _, k := range kids {
			lo, hi := max(k.start, reach), min(k.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.name] = append(out[s.name], float64(s.end-s.start-covered)/1e6)
	}
	return out
}

// write saves the spans as Chrome trace-event JSON.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerStats collects per-layer samples and counters of a traced run.
type layerStats struct {
	mu      sync.Mutex
	samples map[string][]float64 // reported as their median
	sums    map[string]float64   // reported divided by their count
	counts  map[string]float64
}

func newLayerStats() *layerStats {
	return &layerStats{samples: map[string][]float64{}, sums: map[string]float64{}, counts: map[string]float64{}}
}

// sample records one observation of a median-reported metric.
func (ls *layerStats) sample(name string, v float64) {
	ls.mu.Lock()
	ls.samples[name] = append(ls.samples[name], v)
	ls.mu.Unlock()
}

// add records one observation of a mean-reported metric.
func (ls *layerStats) add(name string, v float64) {
	ls.mu.Lock()
	ls.sums[name] += v
	ls.counts[name]++
	ls.mu.Unlock()
}

// value is the reported value of name (0 without observations).
func (ls *layerStats) value(name string) float64 {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if s := ls.samples[name]; len(s) > 0 {
		return median(s)
	}
	if n := ls.counts[name]; n > 0 {
		return ls.sums[name] / n
	}
	return 0
}
