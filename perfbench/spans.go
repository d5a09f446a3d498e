package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around its
// own call sites. Spans of one operation share op; parent is the enclosing
// span's id (0 for none).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Op      int     `json:"op"`
	Layer   string  `json:"layer"`
	Label   string  `json:"label,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced phases pass nil and pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record adds a finished span and returns its id.
func (t *tracer) record(layer, label string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Layer: layer, Label: label,
		StartUS: float64(start.Sub(t.t0)) / float64(time.Microsecond),
		EndUS:   float64(end.Sub(t.t0)) / float64(time.Microsecond),
	})
	return id
}

// begin opens a span whose end is filled in by end.
func (t *tracer) begin(layer, label string, parent, op int) int {
	now := time.Now()
	return t.record(layer, label, parent, op, now, now)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := float64(time.Since(t.t0)) / float64(time.Microsecond)
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns each layer's self time in seconds: the sum over its
// spans of the span's duration minus the part its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Layer] += (s.EndUS - s.StartUS - covered(s, children[s.ID])) / 1e6
	}
	return self
}

// covered is how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	ks := append([]span(nil), kids...)
	sort.Slice(ks, func(i, j int) bool { return ks[i].StartUS < ks[j].StartUS })
	var total, curS, curE float64
	first := true
	for _, k := range ks {
		s, e := max(k.StartUS, parent.StartUS), min(k.EndUS, parent.EndUS)
		if e <= s {
			continue
		}
		if first || s > curE {
			if !first {
				total += curE - curS
			}
			curS, curE, first = s, e, false
		} else if e > curE {
			curE = e
		}
	}
	if !first {
		total += curE - curS
	}
	return total
}

// write saves the spans and the run's stamp as one JSON document.
func (t *tracer) write(path string, st stamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	doc := struct {
		Stamp stamp  `json:"stamp"`
		Spans []span `json:"spans"`
	}{st, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
