package workload_test

// Calibration regression tests: the corpus is the repository's substitute
// for the paper's lost traces (DESIGN.md §2), so its aggregate statistics
// are a contract. These tests pin each reporting group's reference mix,
// branch frequency, footprint and fully-associative miss ratios to the
// bands the paper's text reports. If a generator change moves a group out
// of band, re-tune internal/workload/arch.go (cmd/calibrate prints the
// comparison) before updating these numbers.

import (
	"context"
	"math"
	"strings"
	"testing"

	"cacheeval/internal/core"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// faMissRatio is the fully-associative LRU demand miss ratio of rd at one
// cache size with 16-byte lines and no purges (the Table 1 configuration).
func faMissRatio(t *testing.T, rd trace.Reader, size int) float64 {
	t.Helper()
	out, err := core.RunSweep(context.Background(), core.SweepSpec{Sizes: []int{size}, LineSize: 16}, rd, nil, "calibration", 0)
	if err != nil {
		t.Fatal(err)
	}
	return out.Results[0].Ref.MissRatio()
}

// calibRefs caps per-trace length for test speed; aggregates at 60k
// references sit within a few percent of the full-length values.
const calibRefs = 60000

// groupAggregate accumulates one reporting group's statistics.
type groupAggregate struct {
	n                  int
	fi, fb, as, miss1K float64
}

// calibTargets are the paper-text anchors with the tolerance each deserves
// (mix and branch are tightly controlled; miss ratios are band-level).
var calibTargets = map[string]struct {
	ifetch, ifetchTol float64
	branch, branchTol float64
	miss1K, missTol   float64
}{
	"IBM 370":        {0.50, 0.03, 0.140, 0.02, 0.185, 0.07},
	"IBM 360/91":     {0.52, 0.03, 0.160, 0.02, 0.17, 0.07},
	"VAX (no LISP)":  {0.50, 0.03, 0.175, 0.02, 0.048, 0.02},
	"VAX LISP":       {0.50, 0.03, 0.141, 0.02, 0.111, 0.04},
	"Zilog Z8000":    {0.751, 0.03, 0.105, 0.02, 0.031, 0.015},
	"CDC 6400":       {0.772, 0.03, 0.042, 0.01, 0.10, 0.05},
	"Motorola 68000": {0.55, 0.06, 0.105, 0.03, 0.017, 0.01},
}

func TestCorpusCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep is a few seconds; skipped with -short")
	}
	aggs := map[string]*groupAggregate{}
	for _, spec := range workload.Units() {
		rd, err := spec.Open()
		if err != nil {
			t.Fatal(err)
		}
		refs, err := trace.Collect(trace.NewLimitReader(rd, calibRefs), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := trace.Analyze(trace.NewSliceReader(refs), 16, 0)
		if err != nil {
			t.Fatal(err)
		}
		g := workload.Group(spec)
		a := aggs[g]
		if a == nil {
			a = &groupAggregate{}
			aggs[g] = a
		}
		a.n++
		a.fi += ch.FracIFetch()
		a.fb += ch.FracBranch()
		a.as += float64(ch.ASpace())
		a.miss1K += faMissRatio(t, trace.NewSliceReader(refs), 1024)
	}
	for group, want := range calibTargets {
		a := aggs[group]
		if a == nil {
			t.Errorf("%s: group missing from corpus", group)
			continue
		}
		n := float64(a.n)
		check := func(what string, got, target, tol float64) {
			if math.Abs(got-target) > tol {
				t.Errorf("%s %s = %.4f, want %.4f ± %.4f (re-run cmd/calibrate)",
					group, what, got, target, tol)
			}
		}
		check("ifetch fraction", a.fi/n, want.ifetch, want.ifetchTol)
		check("branch fraction", a.fb/n, want.branch, want.branchTol)
		check("miss@1K", a.miss1K/n, want.miss1K, want.missTol)
	}
	// The ordering claims of §3.1 are the load-bearing shape facts.
	m := func(g string) float64 { return aggs[g].miss1K / float64(aggs[g].n) }
	order := []string{"Motorola 68000", "Zilog Z8000", "VAX (no LISP)", "CDC 6400", "VAX LISP", "IBM 370"}
	for i := 1; i < len(order); i++ {
		if m(order[i]) <= m(order[i-1]) {
			t.Errorf("miss@1K ordering violated: %s (%.4f) <= %s (%.4f)",
				order[i], m(order[i]), order[i-1], m(order[i-1]))
		}
	}
}

func TestMVSWorstInCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped with -short")
	}
	// "The worst performance (highest miss ratio) is observed for the MVS1
	// and MVS2 traces" — at 4K, MVS must beat every non-MVS trace for last
	// place.
	worstNonMVS := 0.0
	worstName := ""
	mvsBest := 1.0
	for _, spec := range workload.Units() {
		rd, err := spec.Open()
		if err != nil {
			t.Fatal(err)
		}
		miss := faMissRatio(t, trace.NewLimitReader(rd, calibRefs), 4096)
		if strings.HasPrefix(spec.Name, "MVS") {
			if miss < mvsBest {
				mvsBest = miss
			}
		} else if miss > worstNonMVS {
			worstNonMVS, worstName = miss, spec.Name
		}
	}
	if mvsBest <= worstNonMVS {
		t.Errorf("MVS (%.4f) must be worse than every other trace (worst: %s %.4f)",
			mvsBest, worstName, worstNonMVS)
	}
}
