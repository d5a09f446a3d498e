package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden pins the exact exposition bytes for a registry with
// one of each instrument kind. The format has no room for drift: Prometheus
// scrapers parse it line by line.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_requests_total", "Requests received.")
	c.Add(3)
	c.Add(-5) // ignored: counters only go up
	r.NewGaugeFunc("test_ratio", "A derived ratio.", func() float64 { return 0.25 })
	r.NewCounterFunc("test_seconds_total", "Seconds spent.", func() float64 { return 1.5 })
	h := r.NewHistogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5000)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_requests_total Requests received.
# TYPE test_requests_total counter
test_requests_total 3
# HELP test_ratio A derived ratio.
# TYPE test_ratio gauge
test_ratio 0.25
# HELP test_seconds_total Seconds spent.
# TYPE test_seconds_total counter
test_seconds_total 1.5
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="10"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 5000.55
test_latency_seconds_count 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	if err := CheckExposition(b.String()); err != nil {
		t.Errorf("golden output fails the format checker: %v", err)
	}
}

func TestHistogramEdges(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "h.", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	h.Observe(math.NaN())
	if got := h.Count(); got != 1 {
		t.Fatalf("count = %d, want 1 (NaN dropped, boundary kept)", got)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `h_bucket{le="1"} 1`) {
		t.Errorf("boundary observation not in its le bucket:\n%s", b.String())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "h.", LatencyBuckets())
	var wg sync.WaitGroup
	const per = 1000
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g*per+i) / per)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != 8*per {
		t.Fatalf("count = %d, want %d", got, 8*per)
	}
}

func TestRegistryPanicsOnBadNames(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("ok_name", "x")
	for _, bad := range []string{"", "1leading_digit", "has space", "ok_name"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %q did not panic", bad)
				}
			}()
			r.NewCounter(bad, "x")
		}()
	}
}

// TestCheckExpositionRejects drives the checker over malformed expositions:
// a checker that accepts anything would make the golden tests vacuous.
func TestCheckExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"sample before TYPE": "orphan_metric 1\n",
		"bad value":          "# HELP m m.\n# TYPE m counter\nm abc\n",
		"blank line":         "# HELP m m.\n# TYPE m counter\n\nm 1\n",
		"duplicate TYPE":     "# TYPE m counter\n# TYPE m counter\n",
		"unknown type":       "# TYPE m summary\n",
		"non-cumulative histogram": "# HELP h h.\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"inf != count": "# HELP h h.\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
		"missing inf bucket": "# HELP h h.\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
	}
	for name, text := range cases {
		if err := CheckExposition(text); err == nil {
			t.Errorf("%s: checker accepted\n%s", name, text)
		}
	}
}

// TestHistogramSum pins the Sum accessor against the exposed _sum sample:
// NaN observations are dropped from both the count and the sum, and
// negative observations still add in.
func TestHistogramSum(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "h.", []float64{1})
	if got := h.Sum(); got != 0 {
		t.Fatalf("empty sum = %v, want 0", got)
	}
	for _, v := range []float64{0.25, math.NaN(), 2, -0.5, math.NaN()} {
		h.Observe(v)
	}
	if got, n := h.Sum(), h.Count(); got != 1.75 || n != 3 {
		t.Fatalf("sum, count = %v, %d; want 1.75, 3 (NaN skipped)", got, n)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "h_sum 1.75\nh_count 3\n") {
		t.Errorf("exposition disagrees with Sum/Count:\n%s", b.String())
	}
}

// TestFloatCounter pins the float counter: fractional totals, ignored
// negative and NaN deltas, and a counter-typed family in the exposition.
func TestFloatCounter(t *testing.T) {
	r := NewRegistry()
	c := r.NewFloatCounter("test_seconds_total", "Seconds spent.")
	for _, v := range []float64{0.5, -3, math.NaN(), 1.25} {
		c.Add(v)
	}
	if got := c.Value(); got != 1.75 {
		t.Fatalf("value = %v, want 1.75", got)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP test_seconds_total Seconds spent.\n" +
		"# TYPE test_seconds_total counter\n" +
		"test_seconds_total 1.75\n"
	if got := b.String(); got != want {
		t.Errorf("exposition:\n got: %q\nwant: %q", got, want)
	}
}
