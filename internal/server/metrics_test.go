package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// promSamples parses an exposition's unlabelled samples into name → value.
func promSamples(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// TestMetricsJSONMatchesPrometheus drives mixed traffic — a cold evaluate
// and its memo hit, a sweep, a rejected evaluate and an async job — and
// then checks that every ?format=json counter equals the Prometheus sample
// it is exposed as: both formats read one store.
func TestMetricsJSONMatchesPrometheus(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})

	eval := `{"mix":"FGO1","ref_limit":20000}`
	for i := 0; i < 2; i++ {
		if code, b := post(t, hs.URL+"/v1/evaluate", eval); code != http.StatusOK {
			t.Fatalf("evaluate status %d: %s", code, b)
		}
	}
	if code, b := post(t, hs.URL+"/v1/sweep", `{"mixes":["FGO1"],"sizes":[1024,4096],"ref_limit":20000}`); code != http.StatusOK {
		t.Fatalf("sweep status %d: %s", code, b)
	}
	if code, b := post(t, hs.URL+"/v1/evaluate", `{"mix":"no-such-mix"}`); code != http.StatusBadRequest {
		t.Fatalf("bad evaluate status %d: %s, want 400", code, b)
	}
	id := createJob(t, hs.URL, `{"evaluate":{"mix":"CGO1","ref_limit":20000}}`)
	if evs := streamEvents(t, hs.URL, id, ""); evs[len(evs)-1].Type != "done" {
		t.Fatalf("job ended %s", evs[len(evs)-1].Type)
	}

	// JSON first: the Prometheus scrape after it is one more request.
	_, b := get(t, hs.URL+"/metrics?format=json")
	var snap MetricsSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	var keys map[string]float64
	if err := json.Unmarshal(b, &keys); err != nil {
		t.Fatal(err)
	}
	_, b = get(t, hs.URL+"/metrics")
	prom := promSamples(t, string(b))

	if snap.MemoHits != 1 || snap.MemoMisses != 3 || snap.SimRuns != 3 ||
		snap.Errors != 1 || snap.EvaluateRequests != 3 || snap.SweepRequests != 1 ||
		snap.JobRequests != 1 || snap.InFlight != 0 {
		t.Errorf("traffic not counted as driven: %+v", snap)
	}
	pairs := map[string]string{
		"memo_hits":            "cacheeval_memo_hits_total",
		"memo_misses":          "cacheeval_memo_misses_total",
		"flight_joins":         "cacheeval_flight_joins_total",
		"in_flight":            "cacheeval_in_flight_sims",
		"sim_runs":             "cacheeval_sim_runs_total",
		"sim_seconds":          "cacheeval_sim_seconds_total",
		"timeouts":             "cacheeval_timeouts_total",
		"errors":               "cacheeval_errors_total",
		"stream_hits":          "cacheeval_stream_hits_total",
		"stream_misses":        "cacheeval_stream_misses_total",
		"evaluate_requests":    "cacheeval_evaluate_requests_total",
		"sweep_requests":       "cacheeval_sweep_requests_total",
		"job_requests":         "cacheeval_jobs_requests_total",
		"memo_entries":         "cacheeval_memo_entries",
		"stream_entries":       "cacheeval_stream_entries",
		"memo_hit_ratio":       "cacheeval_memo_hit_ratio",
		"stream_hit_ratio":     "cacheeval_stream_hit_ratio",
		"sim_seconds_avg":      "cacheeval_sim_seconds_avg",
		"evaluate_seconds_avg": "cacheeval_evaluate_seconds_avg",
		"sweep_seconds_avg":    "cacheeval_sweep_seconds_avg",
	}
	for key := range keys {
		if _, ok := pairs[key]; !ok && key != "requests" && !strings.HasSuffix(key, "_ns_total") {
			t.Errorf("JSON key %s is not checked against the exposition", key)
		}
	}
	for key, family := range pairs {
		got, ok := prom[family]
		if !ok {
			t.Errorf("exposition has no %s sample", family)
			continue
		}
		if got != keys[key] {
			t.Errorf("%s = %v in JSON but %s = %v", key, keys[key], family, got)
		}
	}
	if got := prom["cacheeval_requests_total"]; got != keys["requests"]+1 {
		t.Errorf("requests = %v in JSON but cacheeval_requests_total = %v, want one more",
			keys["requests"], got)
	}
	// The per-endpoint request counts and handler time are the latency
	// histograms' count and sum.
	for _, ep := range []string{"evaluate", "sweep"} {
		count := prom["cacheeval_"+ep+"_duration_seconds_count"]
		sum := prom["cacheeval_"+ep+"_duration_seconds_sum"]
		if keys[ep+"_requests"] != count {
			t.Errorf("%s_requests = %v, histogram count = %v", ep, keys[ep+"_requests"], count)
		}
		if ns := keys[ep+"_ns_total"]; sum <= 0 || math.Abs(ns/1e9-sum) > 1e-9*count {
			t.Errorf("%s_ns_total = %v, histogram sum = %vs", ep, ns, sum)
		}
	}
}
