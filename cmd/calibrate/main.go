// Command calibrate reports how the synthetic corpus compares with the
// calibration targets extracted from the paper's text: reference mix, branch
// frequency, address-space footprint, and fully-associative LRU miss ratios
// at 1K/4K/16K/64K. It is the tool used to tune internal/workload/arch.go
// and corpus.go; see DESIGN.md §2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

var sizes = []int{1024, 4096, 16384, 65536}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "calibrate:", err)
		os.Exit(1)
	}
}

// run executes the calibration sweep; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("calibrate", flag.ContinueOnError)
	perTrace := fs.Bool("traces", false, "print per-trace rows, not just per-architecture averages")
	archOnly := fs.String("arch", "", "restrict to one architecture (e.g. \"VAX 11/780\")")
	refLimit := fs.Int("refs", 0, "cap references per trace (0 = paper lengths)")
	verbose := fs.Bool("v", false, "live per-simulation progress (rate, ETA) on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A progress-only sink: it leaves 3C attribution off, so -v does not
	// slow the simulations it reports on.
	var sink *obs.Sink
	if *verbose {
		sink = &obs.Sink{Emit: obs.NewProgressPrinter(stderr).Event}
	}

	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "trace\tif%\trd%\twr%\tbr%\tIlines\tDlines\tAspace\tm@1K\tm@4K\tm@16K\tm@64K")

	type agg struct {
		n                  int
		fi, fr, fw, fb, as float64
		miss               [4]float64
	}
	aggs := map[string]*agg{}
	var groups []string
	group := func(spec workload.Spec) string {
		if spec.Arch == workload.VAX {
			if strings.HasPrefix(spec.Name, "LISPC") || strings.HasPrefix(spec.Name, "VAXIMA") {
				return "VAX LISP"
			}
			return "VAX (no LISP)"
		}
		return workload.Archs()[spec.Arch].Name
	}

	for _, spec := range workload.Units() {
		arch := workload.Archs()[spec.Arch]
		if *archOnly != "" && arch.Name != *archOnly {
			continue
		}
		var rd trace.Reader = spec.MustOpen()
		if *refLimit > 0 {
			rd = trace.NewLimitReader(rd, *refLimit)
		}
		refs, err := trace.Collect(rd, 0, 0)
		if err != nil {
			return err
		}
		ch, err := trace.Analyze(trace.NewSliceReader(refs), 16, 0)
		if err != nil {
			return err
		}
		var miss [4]float64
		for i, size := range sizes {
			sys, err := cache.NewSystem(cache.SystemConfig{
				Unified: cache.Config{Size: size, LineSize: 16},
			})
			if err != nil {
				return err
			}
			if sink != nil {
				sys.SetSink(sink, fmt.Sprintf("calibrate:%s@%d", spec.Name, size), int64(len(refs)))
			}
			if _, err := sys.Run(trace.NewSliceReader(refs), 0); err != nil {
				return err
			}
			miss[i] = sys.RefStats().MissRatio()
		}
		g := group(spec)
		a := aggs[g]
		if a == nil {
			a = &agg{}
			aggs[g] = a
			groups = append(groups, g)
		}
		a.n++
		a.fi += ch.FracIFetch()
		a.fr += ch.FracRead()
		a.fw += ch.FracWrite()
		a.fb += ch.FracBranch()
		a.as += float64(ch.ASpace())
		for i := range miss {
			a.miss[i] += miss[i]
		}
		if *perTrace {
			fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%d\t%d\t%d\t%.3f\t%.3f\t%.3f\t%.3f\n",
				spec.Name, ch.FracIFetch(), ch.FracRead(), ch.FracWrite(), ch.FracBranch(),
				ch.ILines, ch.DLines, ch.ASpace(), miss[0], miss[1], miss[2], miss[3])
		}
	}

	fmt.Fprintln(w, "\ngroup (avg)\tif%\trd%\twr%\tbr%\t\t\tAspace\tm@1K\tm@4K\tm@16K\tm@64K")
	for _, g := range groups {
		a := aggs[g]
		n := float64(a.n)
		fmt.Fprintf(w, "%s (%d)\t%.3f\t%.3f\t%.3f\t%.3f\t\t\t%.0f\t%.3f\t%.3f\t%.3f\t%.3f\n",
			g, a.n, a.fi/n, a.fr/n, a.fw/n, a.fb/n, a.as/n,
			a.miss[0]/n, a.miss[1]/n, a.miss[2]/n, a.miss[3]/n)
	}
	fmt.Fprintln(w, `
targets\tif%\t\t\tbr%\t\t\tAspace\tm@1K\tm@4K\tm@16K\tm@64K
IBM 370\t0.50\t\t\t0.140\t\t\t58439\t~0.17\t\t\t
IBM 360/91\t0.52\t\t\t0.160\t\t\t28396\t~0.17\t\t\t
VAX (no LISP)\t0.50\t\t\t0.175\t\t\t23032\t0.048\t\t\t
VAX LISP\t0.50\t\t\t0.141\t\t\t61598\t0.111\t0.055\t0.024\t0.0155
Z8000\t0.751\t\t\t0.105\t\t\t11351\t0.031\t\t\t
CDC 6400\t0.772\t\t\t0.042\t\t\t21305\tmiddle\t\t\t
M68000\t\t\t\t\t\t\t2868\t0.017\t\t\t`)
	return w.Flush()
}
