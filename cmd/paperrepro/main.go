// Command paperrepro regenerates the tables and figures of Smith's "Cache
// Evaluation and the Impact of Workload Choice" (ISCA 1985) from the
// synthetic workload corpus, printing each alongside the published numbers.
//
// Usage:
//
//	paperrepro                       # everything (a few minutes)
//	paperrepro -experiment table1    # one artifact
//	paperrepro -refs 20000           # quick pass at reduced trace length
//
// Experiments: table1 figure1 table2 figure2 table3 figure3 figure4
// figure5 figure6 figure7 figure8 figure9 figure10 table4 table5 clark
// z80000 m68020 purge replacement fudge bus linesize prefetchpolicy sampling variance.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"cacheeval/internal/experiments"
	"cacheeval/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}
}

// run executes the requested experiments; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("paperrepro", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "which artifact to regenerate (comma-separated, or \"all\")")
	refs := fs.Int("refs", 0, "cap references per trace (0 = the paper's run lengths)")
	workers := fs.Int("workers", 0, "simulation parallelism (0 = GOMAXPROCS)")
	quiet := fs.Bool("q", false, "suppress progress timing on stderr")
	verbose := fs.Bool("v", false, "verbose: live engine progress (rate, ETA) and a per-table span timing summary on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}

	o := experiments.Options{RefLimit: *refs, Workers: *workers}
	// -v wires the observability layer through the batch run: a progress
	// printer streams per-stage engine progress (refs/s, ETA) as simulations
	// run, and a trace records one span per regenerated artifact, summarized
	// at exit. The sink leaves 3C attribution off: nothing here prints it.
	var tr *obs.Trace
	if *verbose {
		tr = obs.NewTraceRoot()
		o.Probe = &obs.Sink{Emit: obs.NewProgressPrinter(stderr).Event}
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*experiment, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	wants := func(names ...string) bool {
		if all {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}

	start := time.Now()
	progress := func(stage string) {
		if !*quiet {
			fmt.Fprintf(stderr, "[%7.1fs] %s\n", time.Since(start).Seconds(), stage)
		}
	}

	var t1 *experiments.Table1Result
	if wants("table1", "figure1", "figure2", "table5") {
		progress("running Table 1 / Figure 1 (57 traces, all sizes, one-pass LRU)")
		sp := tr.StartSpan("table1") // spans are nil-safe no-ops without -v
		var err error
		t1, err = experiments.Table1(o)
		sp.End()
		if err != nil {
			return fmt.Errorf("table1: %w", err)
		}
		if wants("table1") {
			fmt.Fprintln(stdout, t1.Render())
		}
		if wants("figure1") {
			fmt.Fprintln(stdout, t1.RenderFigure1())
		}
	}

	if wants("table2") {
		progress("running Table 2 (trace characteristics)")
		sp := tr.StartSpan("table2")
		t2, err := experiments.Table2(o)
		sp.End()
		if err != nil {
			return fmt.Errorf("table2: %w", err)
		}
		fmt.Fprintln(stdout, t2.Render())
	}

	if wants("figure2") {
		progress("running Figure 2 ([Hard80] comparison)")
		sp := tr.StartSpan("figure2")
		f2, err := experiments.Figure2(o)
		sp.End()
		if err != nil {
			return fmt.Errorf("figure2: %w", err)
		}
		fmt.Fprintln(stdout, f2.Render())
	}

	sweepKinds := map[string]experiments.FigureKind{
		"figure3": experiments.Figure3, "figure4": experiments.Figure4,
		"figure5": experiments.Figure5, "figure6": experiments.Figure6,
		"figure7": experiments.Figure7, "figure8": experiments.Figure8,
		"figure9": experiments.Figure9, "figure10": experiments.Figure10,
	}
	needSweep := wants("table3", "table4", "table5")
	for name := range sweepKinds {
		needSweep = needSweep || wants(name)
	}
	var sweep *experiments.SweepResult
	if needSweep {
		progress("running the §3.3-§3.5 sweep (17 workloads × sizes × 4 configurations)")
		sp := tr.StartSpan("sweep")
		var err error
		sweep, err = experiments.Sweep(o)
		sp.End()
		if err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	if wants("table3") {
		t3, err := experiments.Table3(sweep)
		if err != nil {
			return fmt.Errorf("table3: %w", err)
		}
		fmt.Fprintln(stdout, t3.Render())
	}
	for _, name := range []string{"figure3", "figure4", "figure5", "figure6", "figure7", "figure8", "figure9", "figure10"} {
		if wants(name) {
			fmt.Fprintln(stdout, sweep.RenderFigure(sweepKinds[name]))
		}
	}
	if wants("table4") {
		fmt.Fprintln(stdout, experiments.Table4(sweep).Render())
	}
	if wants("table5") {
		t5, err := experiments.Table5(t1, sweep)
		if err != nil {
			return fmt.Errorf("table5: %w", err)
		}
		fmt.Fprintln(stdout, t5.Render())
	}

	if wants("clark") {
		progress("running Clark VAX 11/780 validation")
		sp := tr.StartSpan("clark")
		c, err := experiments.Clark(o)
		sp.End()
		if err != nil {
			return fmt.Errorf("clark: %w", err)
		}
		fmt.Fprintln(stdout, c.Render())
	}
	if wants("z80000") {
		progress("running Z80000 projection critique")
		sp := tr.StartSpan("z80000")
		z, err := experiments.Z80000(o)
		sp.End()
		if err != nil {
			return fmt.Errorf("z80000: %w", err)
		}
		fmt.Fprintln(stdout, z.Render())
	}
	if wants("m68020") {
		progress("running M68020 instruction-cache speculation")
		sp := tr.StartSpan("m68020")
		m, err := experiments.M68020(o)
		sp.End()
		if err != nil {
			return fmt.Errorf("m68020: %w", err)
		}
		fmt.Fprintln(stdout, m.Render())
	}
	if wants("purge") {
		progress("running purge-interval ablation")
		sp := tr.StartSpan("purge")
		p, err := experiments.PurgeAblation(o)
		sp.End()
		if err != nil {
			return fmt.Errorf("purge: %w", err)
		}
		fmt.Fprintln(stdout, p.Render())
	}
	if wants("replacement") {
		progress("running replacement/mapping ablation")
		sp := tr.StartSpan("replacement")
		r, err := experiments.ReplacementAblation(o)
		sp.End()
		if err != nil {
			return fmt.Errorf("replacement: %w", err)
		}
		fmt.Fprintln(stdout, r.Render())
	}
	if wants("fudge") {
		f, err := experiments.Fudge()
		if err != nil {
			return fmt.Errorf("fudge: %w", err)
		}
		fmt.Fprintln(stdout, f.Render())
	}
	if wants("bus") {
		progress("running shared-bus multiprocessor study")
		sp := tr.StartSpan("bus")
		r, err := experiments.BusStudy(o)
		sp.End()
		if err != nil {
			return fmt.Errorf("bus: %w", err)
		}
		fmt.Fprintln(stdout, r.Render())
	}
	if wants("linesize") {
		progress("running line-size study")
		sp := tr.StartSpan("linesize")
		r, err := experiments.LineSize(o)
		sp.End()
		if err != nil {
			return fmt.Errorf("linesize: %w", err)
		}
		fmt.Fprintln(stdout, r.Render())
	}
	if wants("prefetchpolicy") {
		progress("running prefetch policy ablation")
		sp := tr.StartSpan("prefetchpolicy")
		r, err := experiments.PrefetchPolicies(o)
		sp.End()
		if err != nil {
			return fmt.Errorf("prefetchpolicy: %w", err)
		}
		fmt.Fprintln(stdout, r.Render())
	}
	if wants("variance") {
		progress("running run-to-run variance study")
		sp := tr.StartSpan("variance")
		r, err := experiments.Variance(o)
		sp.End()
		if err != nil {
			return fmt.Errorf("variance: %w", err)
		}
		fmt.Fprintln(stdout, r.Render())
	}
	if wants("sampling") {
		progress("running trace-sampling study")
		sp := tr.StartSpan("sampling")
		r, err := experiments.SamplingStudy(o)
		sp.End()
		if err != nil {
			return fmt.Errorf("sampling: %w", err)
		}
		fmt.Fprintln(stdout, r.Render())
	}
	if *verbose {
		fmt.Fprintln(stderr, "\nper-table span timings:")
		for _, sp := range tr.Summary() {
			if sp.Refs > 0 {
				fmt.Fprintf(stderr, "  %-16s start %9.1fms  took %9.1fms  %12d refs  %s refs/s\n",
					sp.Name, sp.StartMS, sp.DurationMS, sp.Refs, fmtRate(sp.RefsPerSec))
				continue
			}
			fmt.Fprintf(stderr, "  %-16s start %9.1fms  took %9.1fms\n",
				sp.Name, sp.StartMS, sp.DurationMS)
		}
	}
	progress("done")
	return nil
}

// fmtRate renders a refs/second rate compactly for the timing summary.
func fmtRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fK", r/1e3)
	}
	return fmt.Sprintf("%.0f", r)
}
