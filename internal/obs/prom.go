package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// This file is a minimal, dependency-free implementation of the Prometheus
// text exposition format (version 0.0.4): counters, gauges, and fixed-bucket
// cumulative histograms, registered on a Registry and written by WriteText.
// It covers exactly what the evaluation service needs — no labels beyond the
// histogram's `le`, no protobuf, no push — and its output is validated by a
// line-oriented format checker in the package tests.

// Registry holds metrics and renders them in registration order.
type Registry struct {
	mu      sync.Mutex
	metrics []promMetric
	names   map[string]bool
}

// promMetric is one registered family: a header plus one or more samples.
type promMetric interface {
	meta() (name, help, typ string)
	// samples appends "name[{labels}] value" lines, without the trailing
	// newline, to dst.
	samples(dst []string) []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// register adds m, panicking on duplicate or syntactically invalid names
// (both are programmer errors caught at construction time).
func (r *Registry) register(m promMetric) {
	name, _, _ := m.meta()
	if !validMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic("obs: duplicate metric name " + name)
	}
	r.names[name] = true
	r.metrics = append(r.metrics, m)
}

// validMetricName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			('0' <= c && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// WriteText renders every metric in the text exposition format.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	metrics := append([]promMetric(nil), r.metrics...)
	r.mu.Unlock()
	var lines []string
	for _, m := range metrics {
		name, help, typ := m.meta()
		lines = append(lines, "# HELP "+name+" "+help, "# TYPE "+name+" "+typ)
		lines = m.samples(lines)
	}
	for _, l := range lines {
		if _, err := io.WriteString(w, l+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// ServeText writes the registry as an HTTP response with the Prometheus
// text-format content type.
func (r *Registry) ServeText(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = r.WriteText(w)
}

// formatFloat renders a sample value the way Prometheus clients do.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing integer counter.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// NewCounter registers a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Add increments the counter; negative deltas are ignored (counters only
// go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) meta() (string, string, string) { return c.name, c.help, "counter" }
func (c *Counter) samples(dst []string) []string {
	return append(dst, c.name+" "+strconv.FormatInt(c.v.Load(), 10))
}

// FloatCounter is a monotonically increasing float counter, for totals
// such as seconds spent. Its zero value, unregistered, is also the
// lock-free float accumulator behind each histogram's sum.
type FloatCounter struct{ bits atomic.Uint64 }

// NewFloatCounter registers a float counter.
func (r *Registry) NewFloatCounter(name, help string) *FloatCounter {
	c := new(FloatCounter)
	r.NewCounterFunc(name, help, c.Value)
	return c
}

// Add increments the counter; negative and NaN deltas are ignored.
func (c *FloatCounter) Add(v float64) {
	if v > 0 {
		c.add(v)
	}
}

// add accumulates any v with a CAS loop.
func (c *FloatCounter) add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the current total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// funcMetric is a counter or gauge whose value is computed at scrape time —
// used to expose state held elsewhere (pool occupancy, registry sizes) and
// derived values (hit ratios, averages) without maintaining a second copy.
type funcMetric struct {
	name, help, typ string
	fn              func() float64
}

// NewCounterFunc registers a counter collected from fn at scrape time. fn
// must be monotonic for the result to be a valid Prometheus counter.
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(&funcMetric{name: name, help: help, typ: "counter", fn: fn})
}

// NewGaugeFunc registers a gauge collected from fn at scrape time.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&funcMetric{name: name, help: help, typ: "gauge", fn: fn})
}

func (f *funcMetric) meta() (string, string, string) { return f.name, f.help, f.typ }
func (f *funcMetric) samples(dst []string) []string {
	return append(dst, f.name+" "+formatFloat(f.fn()))
}

// Histogram is a fixed-bucket cumulative histogram. Observe is lock-free
// (one atomic add into the bucket, one CAS loop on the sum), so it is safe
// on request paths.
type Histogram struct {
	name, help string
	bounds     []float64 // ascending upper bounds, +Inf excluded
	buckets    []atomic.Int64
	sum        FloatCounter
}

// NewHistogram registers a histogram with the given ascending upper bounds
// (+Inf is implicit). The bounds slice is copied.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	bounds = append([]float64(nil), bounds...)
	if !sort.Float64sAreSorted(bounds) {
		panic("obs: histogram bounds for " + name + " not ascending")
	}
	h := &Histogram{
		name: name, help: help, bounds: bounds,
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	r.register(h)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: le semantics
	h.buckets[i].Add(1)
	h.sum.add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of the observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

func (h *Histogram) meta() (string, string, string) { return h.name, h.help, "histogram" }
func (h *Histogram) samples(dst []string) []string {
	// Cumulative buckets derived from one pass over the per-bucket counts,
	// so `le="+Inf"` always equals `_count` even while observations race
	// with the scrape.
	var cum int64
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		dst = append(dst, fmt.Sprintf("%s_bucket{le=%q} %d", h.name, formatFloat(b), cum))
	}
	cum += h.buckets[len(h.bounds)].Load()
	dst = append(dst, fmt.Sprintf("%s_bucket{le=\"+Inf\"} %d", h.name, cum))
	dst = append(dst, h.name+"_sum "+formatFloat(h.sum.Value()))
	dst = append(dst, h.name+"_count "+strconv.FormatInt(cum, 10))
	return dst
}

// HistogramState is a point-in-time histogram snapshot collected by a
// NewHistogramFunc callback: ascending upper bounds (+Inf excluded),
// per-bucket counts with one extra trailing overflow bucket
// (len(Counts) == len(Bounds)+1), and the sum of observations.
type HistogramState struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
}

// histogramFunc is a histogram whose state is collected at scrape time —
// used to re-expose histograms maintained elsewhere (runtime/metrics' GC
// pause distribution) without shadow accounting on every observation.
type histogramFunc struct {
	name, help string
	fn         func() HistogramState
}

// NewHistogramFunc registers a histogram collected from fn at scrape time.
// fn must return counts consistent with its bounds (see HistogramState);
// extra counts land in the +Inf bucket, missing ones read as zero, so a
// sloppy producer degrades rather than corrupting the exposition.
func (r *Registry) NewHistogramFunc(name, help string, fn func() HistogramState) {
	r.register(&histogramFunc{name: name, help: help, fn: fn})
}

func (h *histogramFunc) meta() (string, string, string) { return h.name, h.help, "histogram" }
func (h *histogramFunc) samples(dst []string) []string {
	st := h.fn()
	var cum uint64
	for i, b := range st.Bounds {
		if i < len(st.Counts) {
			cum += st.Counts[i]
		}
		dst = append(dst, fmt.Sprintf("%s_bucket{le=%q} %d", h.name, formatFloat(b), cum))
	}
	for i := len(st.Bounds); i < len(st.Counts); i++ {
		cum += st.Counts[i]
	}
	dst = append(dst, fmt.Sprintf("%s_bucket{le=\"+Inf\"} %d", h.name, cum))
	dst = append(dst, h.name+"_sum "+formatFloat(st.Sum))
	dst = append(dst, h.name+"_count "+strconv.FormatUint(cum, 10))
	return dst
}

// LatencyBuckets returns the default request-latency bounds in seconds,
// spanning 1ms..60s.
func LatencyBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
		0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// RateBuckets returns the default engine-throughput bounds in
// references/second, spanning 100K..1G refs/s.
func RateBuckets() []float64 {
	return []float64{1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6,
		1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8, 1e9}
}
