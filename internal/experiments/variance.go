package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"cacheeval/internal/stats"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// VarianceRow summarizes one workload's miss-ratio spread across generator
// seeds at a fixed cache configuration.
type VarianceRow struct {
	Workload string
	Seeds    int
	Mean     float64
	StdDev   float64
	// RelSpread is StdDev/Mean, comparable with [Cur75]'s observation that
	// live-workload measurements "yield slightly different results (e.g. 1%
	// to 3%) from run to run, depending on the random setting of initial
	// conditions".
	RelSpread float64
}

// VarianceResult quantifies run-to-run variation in the synthetic corpus:
// the same workload parameters re-seeded are "different runs of the same
// program", the synthetic analogue of §1.1's live-workload variability.
type VarianceResult struct {
	CacheSize int
	Rows      []VarianceRow
}

var varianceWorkloads = []string{"FGO1", "VCCOM", "ZGREP", "TWOD1", "MVS1"}

// varianceSeeds is how many re-seeded runs each workload gets.
const varianceSeeds = 8

// Variance runs each sampled workload with several seeds at a 16K unified
// cache and reports the spread.
func Variance(o Options) (*VarianceResult, error) {
	o = o.withDefaults()
	const cacheSize = 16384
	res := &VarianceResult{CacheSize: cacheSize}
	rows := make([]VarianceRow, len(varianceWorkloads))
	err := o.forEach(len(varianceWorkloads), func(wi int) error {
		spec, err := workload.ByName(varianceWorkloads[wi])
		if err != nil {
			return err
		}
		var misses []float64
		for s := 0; s < varianceSeeds; s++ {
			reseeded := spec
			reseeded.Seed = spec.Seed + uint64(s)*0x9e3779b97f4a7c15
			refs, err := o.collectSpec(reseeded)
			if err != nil {
				return err
			}
			miss, _, err := o.missCurve(trace.NewSliceReader(refs), []int{cacheSize},
				fmt.Sprintf("variance:%s:seed%d", spec.Name, s), len(refs))
			if err != nil {
				return err
			}
			misses = append(misses, miss[0])
		}
		mean := stats.Mean(misses)
		sd := stats.StdDev(misses)
		rel := 0.0
		if mean > 0 {
			rel = sd / mean
		}
		rows[wi] = VarianceRow{
			Workload: spec.Name, Seeds: varianceSeeds,
			Mean: mean, StdDev: sd, RelSpread: rel,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// Render formats the study.
func (r *VarianceResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Run-to-run variance study ([Cur75] via §1.1): %dB cache, %d seeds each\n\n",
		r.CacheSize, varianceSeeds)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "workload\tmean miss\tstd dev\trel spread")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\t%.1f%%\n", row.Workload, row.Mean, row.StdDev, 100*row.RelSpread)
	}
	w.Flush()
	b.WriteString("\n[Cur75] reports 1-3% run-to-run variation for live hardware measurements;\n")
	b.WriteString("re-seeding the synthetic programs is a stronger perturbation (a different\n")
	b.WriteString("random instance of the program, not just different initial conditions), so\n")
	b.WriteString("somewhat larger spreads are expected.\n")
	return b.String()
}
