package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsSurface pins the operator-facing metrics surface of a fresh
// server: every Prometheus family's name and type, in exposition order,
// and every key of the ?format=json snapshot, in encoding order. Dashboards
// and alerts key on these names, so adding, renaming, retyping or
// reordering one must show up here as a deliberate edit.
func TestMetricsSurface(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})

	code, b := get(t, hs.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	var types []string
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	wantTypes := strings.TrimSpace(`
cacheeval_requests_total counter
cacheeval_errors_total counter
cacheeval_timeouts_total counter
cacheeval_evaluate_requests_total counter
cacheeval_sweep_requests_total counter
cacheeval_sim_runs_total counter
cacheeval_sim_seconds_total counter
cacheeval_memo_hits_total counter
cacheeval_memo_misses_total counter
cacheeval_stream_hits_total counter
cacheeval_stream_misses_total counter
cacheeval_flight_joins_total counter
cacheeval_memo_hit_ratio gauge
cacheeval_stream_hit_ratio gauge
cacheeval_sim_seconds_avg gauge
cacheeval_evaluate_seconds_avg gauge
cacheeval_sweep_seconds_avg gauge
cacheeval_in_flight_sims gauge
cacheeval_http_in_flight_requests gauge
cacheeval_worker_pool_busy gauge
cacheeval_worker_pool_capacity gauge
cacheeval_memo_entries gauge
cacheeval_stream_entries gauge
cacheeval_evaluate_duration_seconds histogram
cacheeval_sweep_duration_seconds histogram
cacheeval_engine_refs_total counter
cacheeval_engine_refs_per_second histogram
cacheeval_engine_compulsory_misses_total counter
cacheeval_engine_capacity_misses_total counter
cacheeval_engine_conflict_misses_total counter
cacheeval_sampled_runs_total counter
cacheeval_sampled_fallbacks_total counter
cacheeval_sampled_rounds_total counter
cacheeval_sampled_achieved_rel_error histogram
cacheeval_sampled_achieved_vs_budget_ratio histogram
cacheeval_sampled_fraction histogram
cacheeval_parallel_runs_total counter
cacheeval_parallel_serial_fallbacks_total counter
cacheeval_parallel_segments_total counter
cacheeval_parallel_aligned_runs_total counter
cacheeval_parallel_boundaries_total counter
cacheeval_parallel_boundaries_converged_total counter
cacheeval_parallel_convergence_distance_refs histogram
cacheeval_hierarchy_l2_fetches_total counter
cacheeval_hierarchy_l2_fetch_misses_total counter
cacheeval_hierarchy_l2_writes_total counter
cacheeval_hierarchy_l2_write_misses_total counter
cacheeval_hierarchy_victim_hits_total counter
cacheeval_jobs_requests_total counter
cacheeval_jobs_created_total counter
cacheeval_jobs_evicted_total counter
cacheeval_jobs_events_emitted_total counter
cacheeval_jobs_active gauge
cacheeval_jobs_queued gauge
cacheeval_jobs_held gauge
cacheeval_jobs_subscribers gauge
cacheeval_go_goroutines gauge
cacheeval_go_heap_inuse_bytes gauge
cacheeval_go_gc_pause_seconds histogram
`)
	if got := strings.Join(types, "\n"); got != wantTypes {
		t.Errorf("exposition families:\n got:\n%s\nwant:\n%s", got, wantTypes)
	}

	code, b = get(t, hs.URL+"/metrics?format=json")
	if code != http.StatusOK {
		t.Fatalf("/metrics?format=json status %d", code)
	}
	dec := json.NewDecoder(strings.NewReader(string(b)))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("JSON metrics do not open an object: %v %v", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var v any
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	wantKeys := strings.Join([]string{
		"requests", "memo_hits", "memo_misses", "flight_joins", "in_flight",
		"sim_runs", "sim_seconds", "timeouts", "errors",
		"stream_hits", "stream_misses",
		"evaluate_requests", "sweep_requests", "evaluate_ns_total", "sweep_ns_total",
		"job_requests", "memo_entries", "stream_entries",
		"memo_hit_ratio", "stream_hit_ratio",
		"sim_seconds_avg", "evaluate_seconds_avg", "sweep_seconds_avg",
	}, " ")
	if got := strings.Join(keys, " "); got != wantKeys {
		t.Errorf("JSON metrics keys:\n got: %s\nwant: %s", got, wantKeys)
	}
}
