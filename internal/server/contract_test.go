package server

import (
	"bufio"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The observable engine-event contract: the bytes of every engine-originated
// job-stream event type (cmd/cachewatch and README "Jobs and live progress"
// decode them) and the Prometheus samples the engine events feed. Both
// tests drive real requests end to end, so any change to how engines report
// — or to how the stream and the metrics consume those reports — that moves
// a byte fails here.

// wallClock matches the payload fields derived from wall-clock time; the
// goldens mask their values and pin everything else byte for byte.
// Concurrent segments interleave their progress ticks, so a parallel
// stage's running reference count is masked too.
var (
	wallClock    = regexp.MustCompile(`"(elapsed_ms|refs_per_sec)":[-+.e0-9]+`)
	parallelRefs = regexp.MustCompile(`(:parallel","refs"):[0-9]+`)
)

// jobEventData runs one job to completion and returns, in stream order, the
// raw data of its engine events (lifecycle and cell events dropped), each
// as "type data" with wall-clock values masked.
func jobEventData(t *testing.T, baseURL, body string) []string {
	t.Helper()
	id := createJob(t, baseURL, body)
	var out []string
	for _, ev := range streamEvents(t, baseURL, id, "") {
		switch ev.Type {
		case "accepted", "started", "summary", "done", "cell":
			continue
		case "failed", "canceled":
			t.Fatalf("job %s ended %s: %s", body, ev.Type, ev.Data)
		}
		data := wallClock.ReplaceAllString(string(ev.Data), `"$1":*`)
		if ev.Type == "progress" {
			data = parallelRefs.ReplaceAllString(data, `$1:*`)
		}
		out = append(out, ev.Type+" "+data)
	}
	return out
}

func TestJobEventPayloadGolden(t *testing.T) {
	t.Parallel()
	srv, hs := newTestServer(t, Config{})
	srv.jobProgress = 0 // stream every engine progress tick: deterministic

	dm := `"design":{"Unified":{"Size":4096,"LineSize":16,"Assoc":1},"PurgeInterval":20000}`
	runs := [][]string{
		// An exact per-size evaluation: the run lifecycle (a progress tick
		// every 65536 references) and the 3C attribution.
		jobEventData(t, hs.URL, `{"evaluate":{"mix":"FGO1","ref_limit":150000,`+dm+`}}`),
		// A victim buffer alone, then in front of a second level.
		jobEventData(t, hs.URL, `{"evaluate":{"mix":"FGO1","ref_limit":70000,"victim":4,`+dm+`}}`),
		jobEventData(t, hs.URL, `{"evaluate":{"mix":"FGO1","ref_limit":70000,"victim":4,"l2":{"size":65536},`+dm+`}}`),
		// A sampled evaluation that meets its budget in its second round.
		jobEventData(t, hs.URL, `{"evaluate":{"mix":"FGO1","mode":"sampled","error_budget":0.1,"design":{"Unified":{"Size":4096,"LineSize":16}}}}`),
		// One whose only round counts too few misses (achieved rendered
		// as -1) and falls back to exact simulation.
		jobEventData(t, hs.URL, `{"evaluate":{"mix":"FGO1","mode":"sampled","error_budget":0.2,"design":{"Unified":{"Size":65536,"LineSize":256}}}}`),
		// A time-parallel evaluation: a purge-aligned plan and its boundary.
		jobEventData(t, hs.URL, `{"evaluate":{"mix":"FGO1","ref_limit":150000,"parallel":2}}`),
	}
	var parts []string
	for _, r := range runs {
		parts = append(parts, strings.Join(r, "\n"))
	}
	got := strings.Join(parts, "\n--\n")
	want := strings.TrimSpace(`
run_start {"stage":"simulate:FGO1"}
progress {"stage":"simulate:FGO1","refs":65536,"refs_per_sec":*}
progress {"stage":"simulate:FGO1","refs":131072,"refs_per_sec":*}
run_end {"stage":"simulate:FGO1","refs":150000,"elapsed_ms":*,"refs_per_sec":*}
miss_causes {"stage":"simulate:FGO1","compulsory":2968,"capacity":9016,"conflict":6586}
--
run_start {"stage":"simulate:FGO1"}
progress {"stage":"simulate:FGO1","refs":65536,"refs_per_sec":*}
run_end {"stage":"simulate:FGO1","refs":70000,"elapsed_ms":*,"refs_per_sec":*}
miss_causes {"stage":"simulate:FGO1","compulsory":2223,"capacity":3163,"conflict":2635}
hierarchy {"stage":"simulate:FGO1","l2_fetches":0,"l2_fetch_misses":0,"l2_writes":0,"l2_write_misses":0,"victim_hits":865}
--
run_start {"stage":"simulate:FGO1"}
progress {"stage":"simulate:FGO1","refs":65536,"refs_per_sec":*}
run_end {"stage":"simulate:FGO1","refs":70000,"elapsed_ms":*,"refs_per_sec":*}
hierarchy {"stage":"simulate:FGO1","l2_fetches":7156,"l2_fetch_misses":3927,"l2_writes":2313,"l2_write_misses":0,"victim_hits":865}
--
run_start {"stage":"simulate:FGO1:sampled","total_refs":250000}
sampled_round {"stage":"simulate:FGO1","round":0,"achieved_rel_error":0.1485452816344587,"error_budget":0.1,"sampled_fraction":0.1}
sampled_round {"stage":"simulate:FGO1","round":1,"achieved_rel_error":0.09383907441881652,"error_budget":0.1,"sampled_fraction":0.26478840835032785}
run_end {"stage":"simulate:FGO1:sampled","refs":91920,"elapsed_ms":*,"refs_per_sec":*}
sampled {"stage":"simulate:FGO1","error_budget":0.1,"achieved_rel_error":0.09383907441881652,"sampled_fraction":0.36768,"rounds":2,"fell_back":false}
--
run_start {"stage":"simulate:FGO1:sampled","total_refs":250000}
sampled_round {"stage":"simulate:FGO1","round":0,"achieved_rel_error":-1,"error_budget":0.2,"sampled_fraction":0.1}
run_start {"stage":"simulate:FGO1"}
progress {"stage":"simulate:FGO1","refs":65536,"refs_per_sec":*}
progress {"stage":"simulate:FGO1","refs":131072,"refs_per_sec":*}
progress {"stage":"simulate:FGO1","refs":196608,"refs_per_sec":*}
run_end {"stage":"simulate:FGO1","refs":250000,"elapsed_ms":*,"refs_per_sec":*}
miss_causes {"stage":"simulate:FGO1","compulsory":193,"capacity":0,"conflict":0}
run_end {"stage":"simulate:FGO1:sampled","refs":275360,"elapsed_ms":*,"refs_per_sec":*}
sampled {"stage":"simulate:FGO1","error_budget":0.2,"achieved_rel_error":0,"sampled_fraction":1.10144,"rounds":1,"fell_back":true}
--
run_start {"stage":"simulate:FGO1:parallel","total_refs":150000}
progress {"stage":"simulate:FGO1:parallel","refs":*,"total_refs":150000,"refs_per_sec":*}
progress {"stage":"simulate:FGO1:parallel","refs":*,"total_refs":150000,"refs_per_sec":*}
progress {"stage":"simulate:FGO1:parallel","refs":*,"total_refs":150000,"refs_per_sec":*}
progress {"stage":"simulate:FGO1:parallel","refs":*,"total_refs":150000,"refs_per_sec":*}
run_end {"stage":"simulate:FGO1:parallel","refs":150000,"elapsed_ms":*,"refs_per_sec":*}
parallel {"stage":"simulate:FGO1","segments":2,"aligned":true,"fell_back":false}
parallel_boundary {"stage":"simulate:FGO1","distance_refs":0,"converged":true}
`)
	if got != want {
		t.Fatalf("engine event payloads changed:\n got:\n%s\nwant:\n%s", got, want)
	}
	types := map[string]bool{}
	for _, line := range strings.Split(got, "\n") {
		types[strings.SplitN(line, " ", 2)[0]] = true
	}
	for _, typ := range []string{"run_start", "progress", "run_end", "sampled_round", "sampled",
		"parallel", "parallel_boundary", "hierarchy", "miss_causes"} {
		if !types[typ] {
			t.Errorf("golden covers no %s event", typ)
		}
	}
	if !strings.Contains(got, `"achieved_rel_error":-1,`) {
		t.Error("golden covers no unusable sampled round")
	}
}

// engineFamilies are the metric families engine events feed.
var engineFamilies = regexp.MustCompile(`^cacheeval_(engine|sampled|parallel|hierarchy)_`)

func TestEngineMetricsExpositionGolden(t *testing.T) {
	t.Parallel()
	_, hs := newTestServer(t, Config{})
	for _, req := range []struct{ path, body string }{
		// Per-size engine (non-LRU policy) with 3C attribution.
		{"/v1/sweep", `{"mixes":["FGO1"],"sizes":[1024,8192],"policy":"fifo","ref_limit":100000}`},
		// Sampled engine: a run that meets its budget and one that falls
		// back after an unusable round.
		{"/v1/evaluate", `{"mix":"FGO1","mode":"sampled","error_budget":0.1,"design":{"Unified":{"Size":4096,"LineSize":16}}}`},
		{"/v1/evaluate", `{"mix":"FGO1","mode":"sampled","error_budget":0.2,"design":{"Unified":{"Size":65536,"LineSize":256}}}`},
		// Time-parallel engine: a purge-aligned plan, then a stream too
		// short to segment. (A parallel sweep's grid jobs and segments
		// share one budget, so its plans depend on scheduling.)
		{"/v1/evaluate", `{"mix":"FGO1","ref_limit":150000,"parallel":2}`},
		{"/v1/evaluate", `{"mix":"FGO1","ref_limit":50000,"parallel":2}`},
		// Victim buffer in front of a second level.
		{"/v1/evaluate", `{"mix":"FGO1","ref_limit":100000,"victim":4,"l2":{"size":65536},` +
			`"design":{"Unified":{"Size":4096,"LineSize":16,"Assoc":1},"PurgeInterval":20000}}`},
	} {
		if code, b := post(t, hs.URL+req.path, req.body); code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", req.path, req.body, code, b)
		}
	}
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || !engineFamilies.MatchString(line) {
			continue
		}
		// Throughput is wall-clock: pin only how many runs it observed.
		if strings.HasPrefix(line, "cacheeval_engine_refs_per_second") &&
			!strings.HasPrefix(line, "cacheeval_engine_refs_per_second_count") {
			continue
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n")
	want := strings.TrimSpace(`
cacheeval_engine_capacity_misses_total 35858
cacheeval_engine_compulsory_misses_total 13110
cacheeval_engine_conflict_misses_total 10006
cacheeval_engine_refs_per_second_count 14
cacheeval_engine_refs_total 1717280
cacheeval_hierarchy_l2_fetch_misses_total 5530
cacheeval_hierarchy_l2_fetches_total 10882
cacheeval_hierarchy_l2_write_misses_total 0
cacheeval_hierarchy_l2_writes_total 3421
cacheeval_hierarchy_victim_hits_total 1295
cacheeval_parallel_aligned_runs_total 1
cacheeval_parallel_boundaries_converged_total 1
cacheeval_parallel_boundaries_total 1
cacheeval_parallel_convergence_distance_refs_bucket{le="+Inf"} 1
cacheeval_parallel_convergence_distance_refs_bucket{le="1.048576e+06"} 1
cacheeval_parallel_convergence_distance_refs_bucket{le="1024"} 1
cacheeval_parallel_convergence_distance_refs_bucket{le="16384"} 1
cacheeval_parallel_convergence_distance_refs_bucket{le="256"} 1
cacheeval_parallel_convergence_distance_refs_bucket{le="262144"} 1
cacheeval_parallel_convergence_distance_refs_bucket{le="4096"} 1
cacheeval_parallel_convergence_distance_refs_bucket{le="65536"} 1
cacheeval_parallel_convergence_distance_refs_count 1
cacheeval_parallel_convergence_distance_refs_sum 0
cacheeval_parallel_runs_total 2
cacheeval_parallel_segments_total 2
cacheeval_parallel_serial_fallbacks_total 1
cacheeval_sampled_achieved_rel_error_bucket{le="+Inf"} 1
cacheeval_sampled_achieved_rel_error_bucket{le="0.001"} 0
cacheeval_sampled_achieved_rel_error_bucket{le="0.002"} 0
cacheeval_sampled_achieved_rel_error_bucket{le="0.005"} 0
cacheeval_sampled_achieved_rel_error_bucket{le="0.01"} 0
cacheeval_sampled_achieved_rel_error_bucket{le="0.02"} 0
cacheeval_sampled_achieved_rel_error_bucket{le="0.05"} 0
cacheeval_sampled_achieved_rel_error_bucket{le="0.1"} 1
cacheeval_sampled_achieved_rel_error_bucket{le="0.2"} 1
cacheeval_sampled_achieved_rel_error_bucket{le="0.5"} 1
cacheeval_sampled_achieved_rel_error_count 1
cacheeval_sampled_achieved_rel_error_sum 0.09383907441881652
cacheeval_sampled_achieved_vs_budget_ratio_bucket{le="+Inf"} 1
cacheeval_sampled_achieved_vs_budget_ratio_bucket{le="0.05"} 0
cacheeval_sampled_achieved_vs_budget_ratio_bucket{le="0.1"} 0
cacheeval_sampled_achieved_vs_budget_ratio_bucket{le="0.25"} 0
cacheeval_sampled_achieved_vs_budget_ratio_bucket{le="0.5"} 0
cacheeval_sampled_achieved_vs_budget_ratio_bucket{le="0.75"} 0
cacheeval_sampled_achieved_vs_budget_ratio_bucket{le="0.9"} 0
cacheeval_sampled_achieved_vs_budget_ratio_bucket{le="1"} 1
cacheeval_sampled_achieved_vs_budget_ratio_count 1
cacheeval_sampled_achieved_vs_budget_ratio_sum 0.9383907441881651
cacheeval_sampled_fallbacks_total 1
cacheeval_sampled_fraction_bucket{le="+Inf"} 2
cacheeval_sampled_fraction_bucket{le="0.05"} 0
cacheeval_sampled_fraction_bucket{le="0.1"} 0
cacheeval_sampled_fraction_bucket{le="0.2"} 0
cacheeval_sampled_fraction_bucket{le="0.3"} 0
cacheeval_sampled_fraction_bucket{le="0.5"} 1
cacheeval_sampled_fraction_bucket{le="0.75"} 1
cacheeval_sampled_fraction_bucket{le="1"} 1
cacheeval_sampled_fraction_bucket{le="1.5"} 2
cacheeval_sampled_fraction_bucket{le="2"} 2
cacheeval_sampled_fraction_count 2
cacheeval_sampled_fraction_sum 1.46912
cacheeval_sampled_rounds_total 3
cacheeval_sampled_runs_total 2
`)
	if got != want {
		t.Fatalf("engine metric samples changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
