package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"os"
	"reflect"
	"testing"
	"time"

	"cacheeval/internal/experiments"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

func specSeeds(mixes []workload.Mix) []uint64 {
	var out []uint64
	for _, m := range mixes {
		for _, s := range m.Specs {
			out = append(out, s.Seed)
		}
	}
	return out
}

func TestSeedDeterminesSpecSeeds(t *testing.T) {
	for name, mixes := range map[string]func(uint64) []workload.Mix{
		"paper-grid":    func(s uint64) []workload.Mix { return paperGrid(s).mixes },
		"nonstack-grid": func(s uint64) []workload.Mix { return nonstackGrid(s).mixes },
		"long-trace":    longMixes,
	} {
		a, b, c := specSeeds(mixes(7)), specSeeds(mixes(7)), specSeeds(mixes(8))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave different spec seeds on two calls", name)
		}
		for i := range a {
			if a[i] == c[i] {
				t.Errorf("%s: member %d has spec seed %d under seeds 7 and 8", name, i, a[i])
			}
		}
	}
	// The corpus itself is untouched.
	if got, want := specSeeds(workload.StandardMixes()), specSeeds(workload.StandardMixes()); !reflect.DeepEqual(got, want) {
		t.Fatal("corpus seeds changed")
	}
	base := workload.StandardMixes()[2]
	if seededMix(base, 7, 0).Specs[0].Seed == base.Specs[0].Seed {
		t.Fatal("seededMix did not reseed")
	}
}

type scheduled struct {
	Class, Kind, Path, Body string
	Pair                    int
}

func flatten(lists [serviceClients][]svcRequest) [serviceClients][]scheduled {
	var out [serviceClients][]scheduled
	for c, l := range lists {
		for _, r := range l {
			out[c] = append(out[c], scheduled{r.class, r.kind, r.path, string(r.body), r.pair})
		}
	}
	return out
}

func TestSeedDeterminesSchedule(t *testing.T) {
	_, a := schedule(7, false)
	_, b := schedule(7, false)
	_, c := schedule(8, false)
	if !reflect.DeepEqual(flatten(a), flatten(b)) {
		t.Fatal("seed 7 gave two different schedules")
	}
	fa, fc := flatten(a), flatten(c)
	same := 0
	for i := range fa[0] {
		if fa[0][i] == fc[0][i] {
			same++
		}
	}
	if same > len(fa[0])/2 {
		t.Fatalf("seeds 7 and 8 share %d of %d requests", same, len(fa[0]))
	}
	// The span phase's schedule asks for span summaries but sends the same
	// requests.
	_, tr := schedule(7, true)
	for cl := range a {
		for i := range a[cl] {
			x, y := a[cl][i], tr[cl][i]
			if x.class != y.class || x.kind != y.kind || x.path != y.path || x.pair != y.pair {
				t.Fatalf("client %d request %d: traced %+v differs from untraced %+v", cl, i, y, x)
			}
		}
	}
}

func TestScheduleShape(t *testing.T) {
	_, lists := schedule(1, false)
	fresh := map[string]bool{}
	for c, l := range lists {
		if len(l) != scheduleLen {
			t.Fatalf("client %d has %d requests", c, len(l))
		}
		var repeats int
		for _, r := range l {
			switch {
			case r.class == "repeat":
				repeats++
			case r.pair > 0:
				// Pairs appear in both lists on purpose.
			case fresh[r.path+string(r.body)]:
				t.Fatalf("fresh %s request repeats an earlier key: %s", r.kind, r.body)
			default:
				fresh[r.path+string(r.body)] = true
			}
		}
		if share := float64(repeats) / float64(len(l)); share < 0.6 || share > 0.75 {
			t.Errorf("client %d: repeat share %.2f", c, share)
		}
	}
	for i := range lists[0] {
		if lists[0][i].pair != lists[1][i].pair {
			t.Fatalf("request %d: pair %d vs %d", i, lists[0][i].pair, lists[1][i].pair)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{0, 0.5, false, 0},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || got != tc.want {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
	if r := reportPercentile(seq(15), 0.5); r.Value != nil || r.Samples != 15 {
		t.Errorf("thin tail reported %+v", r)
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 || median(nil) != 0 {
		t.Error("median")
	}
}

// smallGrid sweeps two short mixes, returning what checkGrid needs.
func smallGrid(t *testing.T, c gridConfig) (*experiments.SweepResult, map[string][]trace.Ref) {
	t.Helper()
	std := workload.StandardMixes()
	mixes := []workload.Mix{seededMix(std[2], 3, 20000), seededMix(std[14], 3, 4000)}
	streams := map[string][]trace.Ref{}
	for _, m := range mixes {
		refs, err := experiments.Options{}.CollectMixContext(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		streams[m.Name] = refs
	}
	o := c.opts
	o.Sizes = []int{512, 2048, 8192}
	o.StreamSource = func(_ context.Context, m workload.Mix) ([]trace.Ref, error) { return streams[m.Name], nil }
	res, err := experiments.SweepMixesContext(context.Background(), o, mixes)
	if err != nil {
		t.Fatal(err)
	}
	return res, streams
}

func TestGridGateFailsOnPerturbedResult(t *testing.T) {
	for _, c := range append(paperGrid(0).configs, nonstackGrid(0).configs...) {
		res, streams := smallGrid(t, c)
		rng := rand.New(rand.NewPCG(1, 2))
		if errs := checkGrid(res, streams, c, rng, 4); len(errs) > 0 {
			t.Fatalf("%s: clean sweep fails the gate: %v", c.name, errs)
		}
		// A miss moved between kinds; with every cell sampled, the
		// reference re-simulation must see it.
		cell := &res.Cells[1][2].UnifiedDemand
		cell.Ref.Misses[0]++
		cell.Ref.Misses[1]--
		if errs := checkGrid(res, streams, c, rng, 200); len(errs) == 0 {
			t.Fatalf("%s: perturbed miss counts pass the gate", c.name)
		}
		cell.Ref.Misses[0]--
		cell.Ref.Misses[1]++
		cell.Ref.Refs[2]++
		if errs := checkGrid(res, streams, c, rng, 0); len(errs) == 0 {
			t.Fatalf("%s: a miscounted reference passes the invariants", c.name)
		}
	}
}

func TestLongTraceGateFailsOnPerturbedResult(t *testing.T) {
	std := workload.StandardMixes()
	lt := &longTrace{mixes: []workload.Mix{seededMix(std[2], 5, 500_000)}, streams: map[string][]trace.Ref{}}
	refs, err := experiments.Options{}.CollectMixContext(context.Background(), lt.mixes[0])
	if err != nil {
		t.Fatal(err)
	}
	lt.streams[lt.mixes[0].Name] = refs
	run := func(o experiments.Options) *experiments.SweepResult {
		o.Workers, o.StreamSource, o.Sizes = 1, lt.source(), []int{1024, 8192}
		res, err := experiments.SweepMixesContext(context.Background(), o, lt.mixes)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	par := run(experiments.Options{Parallel: parallelOpts()})
	samp := run(experiments.Options{Sampled: nil})
	for i := range par.Parallel {
		samp.Sampled = append(samp.Sampled, experiments.SampledPass{Mix: par.Parallel[i].Mix,
			Split: par.Parallel[i].Split, Prefetch: par.Parallel[i].Prefetch})
		samp.Sampled[i].Info.FellBack, samp.Sampled[i].Info.FallbackReason = true, "test"
	}
	rng := rand.New(rand.NewPCG(1, 2))
	if errs := append(lt.check(context.Background(), par, rng), lt.checkSampled(par, samp)...); len(errs) > 0 {
		t.Fatalf("clean long-trace op fails the gate: %v", errs)
	}
	samp.Sampled[0].Info.FellBack, samp.Sampled[0].Info.AchievedRelError = false, 2*errorBudget
	if errs := lt.checkSampled(par, samp); len(errs) == 0 {
		t.Fatal("a sampled pass over its budget passes the gate")
	}
	samp.Sampled[0].Info.FellBack = true
	samp.Cells[0][1].SplitDemand.Ref.Misses[0]++
	if errs := lt.checkSampled(par, samp); len(errs) == 0 {
		t.Fatal("a fallen-back pass that differs from exact passes the gate")
	}
}

func TestServiceGateFailsOnPerturbedResult(t *testing.T) {
	warmKey := "/v1/evaluate{}"
	warm := map[string][]byte{warmKey: []byte(`{"report":{"x":1},"cached":false,"elapsed_ms":3}`)}
	repeat := &svcRequest{class: "repeat", kind: "repeat", path: "/v1/evaluate", body: []byte("{}")}
	phaseWith := func(body string, status int) *svcPhase {
		ph := &svcPhase{}
		ph.records[0] = []svcRecord{{req: repeat, status: status, body: []byte(body)}}
		return ph
	}
	for _, tc := range []struct {
		body   string
		status int
		failed int
	}{
		{`{"report":{"x":1},"cached":true,"elapsed_ms":0.1}`, 200, 0},
		{`{"report":{"x":2},"cached":true,"elapsed_ms":0.1}`, 200, 1},
		{`{"error":"busy"}`, 503, 1},
	} {
		env := &runEnv{layer: map[string]float64{}, report: map[string]any{}}
		checkService(context.Background(), env, phaseWith(tc.body, tc.status), warm, 1)
		if env.attempted != 1 || env.failed != tc.failed {
			t.Errorf("body %s status %d: attempted %d failed %d, want failed %d",
				tc.body, tc.status, env.attempted, env.failed, tc.failed)
		}
	}
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestServiceMixEndToEnd drives one short traced service-mix run through
// the command's entry point: both clients, the pair barrier, jobs, the
// handler wrapper and the correctness gate, under -race when asked.
func TestServiceMixEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three servers and runs two one-second phases")
	}
	// The run writes its span file under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "service-mix", "--seed", "3", "--seconds", "1", "--trace", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v; stderr %s", res, errOut.String())
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("per-layer metric %s missing", m.name)
		}
	}
	if res.Metrics["server.handler_us.repeat"].Value == 0 || res.Metrics["http.roundtrip_us"].Value == 0 {
		t.Errorf("no handler or transport time: %+v", res.Metrics)
	}
}

func TestEndToEndValuesUseParts(t *testing.T) {
	ms := time.Millisecond
	env := &runEnv{setups: []time.Duration{3 * time.Second, time.Second, 2 * time.Second}}
	env.untraced = phase{wall: 2 * time.Second, ops: []opRecord{
		{dur: ms, work: 10, parts: [2][]time.Duration{{ms}, nil}},
		{dur: 5 * ms, work: 30, parts: [2][]time.Duration{{3 * ms}, {7 * ms, 9 * ms}}},
		{dur: 2 * ms, work: 60, parts: [2][]time.Duration{{2 * ms}, {8 * ms}}},
	}}
	v := endToEndValues(env)
	for name, want := range map[string]float64{"setup_s": 2, "throughput": 50, "part_a_ms": 2, "part_b_ms": 8} {
		if v[name] != want {
			t.Errorf("%s = %v, want %v", name, v[name], want)
		}
	}
}
