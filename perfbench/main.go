// Command perfbench is the repository benchmark. One invocation runs one
// seeded workload for a fixed measuring time, checks every output it
// produced, and prints its metrics; the last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload paper-grid --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (host time, tracing
// off). With --trace 1 the run measures the same phase twice, untraced and
// traced, and reports the per-layer metrics from the traced phase plus the
// difference between the two as the tracing overhead; the spans are written
// to .bench_build/perfbench/. README.md lists every metric and workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// processStart anchors setup_s: set-up time counts from process start.
var processStart = time.Now()

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(ctx context.Context, env *runEnv) error{
	"paper-grid":    runPaperGrid,
	"nonstack-grid": runNonstackGrid,
	"long-trace":    runLongTrace,
	"service-mix":   runServiceMix,
}

// endToEnd and perLayer are the metric catalogues BENCHMARK.json declares,
// in the order they are printed. Every run reports every metric of its
// kind; a layer a workload does not exercise reads 0. Each workload times
// its operations in two parts, a and b, that a change can move apart
// (README.md names them per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput", "1/s"},
	{"part_a_ms", "ms"},
	{"part_b_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"workload.gen_refs_per_s", "1/s"},
	{"materialize.busy_s", "s"},
	{"materialize.refs", "count"},
	{"engine.multisystem.calls", "count"},
	{"engine.multisystem.busy_s", "s"},
	{"engine.multisystem.ns_per_ref_size", "ns"},
	{"engine.fanout.calls", "count"},
	{"engine.fanout.busy_s", "s"},
	{"engine.fanout.ns_per_ref_size", "ns"},
	{"engine.persize.calls", "count"},
	{"engine.persize.busy_s", "s"},
	{"engine.persize.ns_per_ref_size", "ns"},
	{"engine.hierarchy.calls", "count"},
	{"engine.hierarchy.busy_s", "s"},
	{"engine.hierarchy.ns_per_ref_size", "ns"},
	{"engine.sampled.calls", "count"},
	{"engine.sampled.busy_s", "s"},
	{"engine.sampled.ns_per_ref_size", "ns"},
	{"engine.sampled.refs_per_s", "1/s"},
	{"engine.sampled.fraction", "ratio"},
	{"engine.sampled.rounds", "count"},
	{"engine.sampled.fallbacks", "count"},
	{"engine.sampled.max_rel_err", "ratio"},
	{"engine.sampled.default_rounds", "count"},
	{"engine.sampled.default_refs_per_s", "1/s"},
	{"engine.parallel.calls", "count"},
	{"engine.parallel.busy_s", "s"},
	{"engine.parallel.ns_per_ref_size", "ns"},
	{"engine.parallel.refs_per_s", "1/s"},
	{"engine.parallel.segments", "count"},
	{"engine.parallel.aligned_frac", "ratio"},
	{"engine.parallel.reconcile_frac", "ratio"},
	{"engine.parallel.fallbacks", "count"},
	{"engine.parallel.serial_s", "s"},
	{"engine.parallel.seg0_s", "s"},
	{"engine.parallel.seg1_s", "s"},
	{"engine.parallel.speedup", "x"},
	{"engine.parallel.cpu_ratio", "ratio"},
	{"assemble.busy_s", "s"},
	{"server.memo_hit_ratio", "ratio"},
	{"server.flight_joins", "count"},
	{"server.sim_runs", "count"},
	{"server.stream_hit_ratio", "ratio"},
	{"server.handler_us.repeat", "us"},
	{"server.handler_us.fresh", "us"},
	{"server.encode_bytes.repeat", "bytes"},
	{"server.encode_bytes.fresh", "bytes"},
	{"server.errors", "count"},
	{"server.timeouts", "count"},
	{"http.roundtrip_us", "us"},
	{"jobs.events", "count"},
	{"jobs.dropped_events", "count"},
	{"jobs.submit_to_done_ms", "ms"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.spans", "count"},
	{"trace.overhead_frac", "ratio"},
}

type metricDef struct{ name, unit string }

// opRecord is one timed operation: a grid sweep, a long-trace op or one
// service request. work is what the workload's throughput counts: stream
// references × grid passes on the grids and long-trace, 1 per request on
// service-mix. parts holds the timings that feed part_a_ms and part_b_ms.
type opRecord struct {
	dur   time.Duration
	work  float64
	parts [2][]time.Duration
}

// phase is one measured stretch of a run: its operations and its wall time.
type phase struct {
	ops  []opRecord
	wall time.Duration
}

// runEnv is what a workload function receives and fills in.
type runEnv struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	stamp   stamp

	setups    []time.Duration
	untraced  phase // the phase the end-to-end metrics come from
	tracedRun phase // the traced phase (traced runs only)
	tr        *tracer
	layer     map[string]float64 // per-layer metrics from the traced phase
	report    map[string]any     // workload-specific figures printed before the result

	attempted, failed int
	problems          []string
}

// judge counts one attempted operation, and one failed operation when its
// checks found errors; the first few problems are kept for the report.
func (e *runEnv) judge(what string, errs []error) {
	e.attempted++
	if len(errs) == 0 {
		return
	}
	e.failed++
	for _, err := range errs {
		if len(e.problems) < 20 {
			e.problems = append(e.problems, what+": "+err.Error())
		}
	}
}

// addLayer accumulates a per-layer metric.
func (e *runEnv) addLayer(name string, v float64) { e.layer[name] += v }

// measure runs op back to back until the phase has spent env.seconds inside
// operations (at least one operation), then returns the phase. Set-up and
// correctness checks run outside op and do not count. Each operation starts
// on a collected heap with its free pages returned to the OS (see
// releaseMemory).
func measure(seconds time.Duration, op func(i int) (opRecord, error)) (phase, error) {
	var ph phase
	for i := 0; i == 0 || ph.wall < seconds; i++ {
		releaseMemory()
		rec, err := op(i)
		if err != nil {
			return ph, err
		}
		ph.ops = append(ph.ops, rec)
		ph.wall += rec.dur
	}
	return ph, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-grid, nonstack-grid, long-trace or service-mix")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measuring time per phase, in seconds")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced phase")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		return 2
	}
	env := &runEnv{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traceFlag == 1,
		stamp:   newStamp(*name, *seed),
		layer:   map[string]float64{},
		report:  map[string]any{},
	}
	if env.traced {
		env.tr = newTracer()
	}
	stopHeap := sampleHeap(env)
	err := drive(context.Background(), env)
	heapPeak := stopHeap()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if env.attempted == 0 {
		fmt.Fprintf(stderr, "perfbench: %s attempted nothing\n", *name)
		return 1
	}
	for _, p := range env.problems {
		fmt.Fprintln(stderr, "perfbench: incorrect:", p)
	}
	env.report["error_frac"] = float64(env.failed) / float64(env.attempted)

	res := result{Correct: env.failed == 0, Attempted: env.attempted, Failed: env.failed,
		Metrics: map[string]metricValue{}}
	if env.traced {
		finishTrace(env, heapPeak)
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{env.layer[m.name], m.unit}
		}
		path := filepath.Join(".bench_build", "perfbench",
			fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		if err := env.tr.write(path, env.stamp); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		env.report["trace_file"] = path
		env.report["self_s"] = env.tr.selfTimes()
	} else {
		vals := endToEndValues(env)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	}
	report := struct {
		Stamp  stamp          `json:"stamp"`
		Report map[string]any `json:"report"`
	}{env.stamp, env.report}
	if err := json.NewEncoder(stdout).Encode(report); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// endToEndValues derives the end-to-end metrics from the untraced phase.
func endToEndValues(env *runEnv) map[string]float64 {
	ph := env.untraced
	var setups []float64
	var parts [2][]float64
	for _, d := range env.setups {
		setups = append(setups, d.Seconds())
	}
	for _, op := range ph.ops {
		for p, ds := range op.parts {
			for _, d := range ds {
				parts[p] = append(parts[p], float64(d)/float64(time.Millisecond))
			}
		}
	}
	return map[string]float64{
		"setup_s":     median(setups),
		"throughput":  throughput(ph),
		"part_a_ms":   median(parts[0]),
		"part_b_ms":   median(parts[1]),
		"peak_rss_mb": peakRSSMB(),
	}
}

// throughput is a phase's work delivered per host second.
func throughput(ph phase) float64 {
	var work float64
	for _, op := range ph.ops {
		work += op.work
	}
	return work / ph.wall.Seconds()
}

// finishTrace fills the per-layer metrics every workload shares: runtime
// figures, span counts and the tracing overhead (traced against untraced
// time per unit of work; both phases run the same operations).
func finishTrace(env *runEnv, heapPeakMB float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	env.layer["runtime.gc_pause_s"] = float64(ms.PauseTotalNs) / 1e9
	env.layer["runtime.heap_peak_mb"] = heapPeakMB
	env.layer["trace.spans"] = float64(env.tr.len())
	if t := throughput(env.tracedRun); t > 0 {
		env.layer["trace.overhead_frac"] = throughput(env.untraced)/t - 1
	}
}

// peakRSSMB is the process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// sampleHeap polls the Go heap's in-use spans every 20ms until the
// returned stop function is called; stop returns the peak in MB. It reads
// runtime/metrics, which does not stop the world.
func sampleHeap(env *runEnv) func() float64 {
	if !env.traced {
		return func() float64 { return 0 }
	}
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		samples := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		var max uint64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			if inUse := samples[0].Value.Uint64() + samples[1].Value.Uint64(); inUse > max {
				max = inUse
			}
			select {
			case <-done:
				peak <- float64(max) / (1 << 20)
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// releaseMemory collects the heap and returns every free page to the OS.
// Without it, whether an operation's garbage lands on pages an earlier
// set-up freed (no RSS growth) or on fresh ones depends on how far the
// background scavenger got, and peak RSS on long-trace read either 265 or
// 373 MB from run to run.
func releaseMemory() { debug.FreeOSMemory() }

// repeatSetup runs set-up n times, recording each duration, and returns the
// last set-up's state. The first set-up is timed from process start, so
// process start-up cost is part of setup_s as well.
func repeatSetup[T any](env *runEnv, n int, setup func() (T, error)) (T, error) {
	var state T
	for i := 0; i < n; i++ {
		// Drop the previous set-up's state before timing the next one, so
		// repeats do not stack their memory.
		var zero T
		state = zero
		releaseMemory()
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		s, err := setup()
		if err != nil {
			return state, fmt.Errorf("set-up: %w", err)
		}
		env.setups = append(env.setups, time.Since(t0))
		state = s
	}
	return state, nil
}
