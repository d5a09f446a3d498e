package experiments

import (
	"fmt"
	"strings"

	"cacheeval/internal/model"
	"cacheeval/internal/textplot"
	"cacheeval/internal/workload"
)

// Figure2Result compares our MVS traces with the [Hard80] hardware-monitor
// power-law curves the paper reproduces as Figure 2. Note the line-size
// mismatch the paper itself flags: [Hard80] used 32-byte lines, our
// simulations 16-byte lines, so our miss ratios should sit somewhat above
// the supervisor curve at equal sizes.
type Figure2Result struct {
	Sizes      []int
	Supervisor []float64 // Hard80 supervisor-state curve
	Problem    []float64 // Hard80 problem-state curve
	MVS        map[string][]float64
}

// Figure2 evaluates the published curves and simulates the MVS traces under
// the Table 1 configuration.
func Figure2(o Options) (*Figure2Result, error) {
	o = o.withDefaults()
	sup, prob := model.Hard80()
	res := &Figure2Result{
		Sizes:      o.Sizes,
		Supervisor: make([]float64, len(o.Sizes)),
		Problem:    make([]float64, len(o.Sizes)),
		MVS:        map[string][]float64{},
	}
	for i, s := range o.Sizes {
		kb := float64(s) / 1024
		res.Supervisor[i] = clampRatio(sup.Eval(kb))
		res.Problem[i] = clampRatio(prob.Eval(kb))
	}
	for _, name := range []string{"MVS1", "MVS2"} {
		spec, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		rd, err := o.openSpec(spec)
		if err != nil {
			return nil, err
		}
		miss, _, err := o.missCurve(rd, o.Sizes, "figure2:"+name, o.limit(spec.Refs))
		if err != nil {
			return nil, fmt.Errorf("figure2 %s: %w", name, err)
		}
		res.MVS[name] = miss
	}
	return res, nil
}

func clampRatio(m float64) float64 {
	if m > 1 {
		return 1
	}
	if m < 0 {
		return 0
	}
	return m
}

// Render plots the curves and prints the comparison table.
func (r *Figure2Result) Render() string {
	p := textplot.Plot{
		Title:  "Figure 2: [Hard80] MVS curves (32B lines) vs simulated MVS traces (16B lines)",
		XLabel: "cache size (bytes)",
		YLabel: "miss",
		LogX:   true,
		LogY:   true,
	}
	xs := make([]float64, len(r.Sizes))
	for i, s := range r.Sizes {
		xs[i] = float64(s)
	}
	p.Add(textplot.Series{Name: "Hard80 supervisor", Xs: xs, Ys: r.Supervisor})
	p.Add(textplot.Series{Name: "Hard80 problem", Xs: xs, Ys: r.Problem})
	for _, name := range []string{"MVS1", "MVS2"} {
		if ys, ok := r.MVS[name]; ok {
			p.Add(textplot.Series{Name: name, Xs: xs, Ys: ys})
		}
	}
	var b strings.Builder
	b.WriteString(p.Render())
	b.WriteString("\nsize      supervisor  problem")
	for _, name := range []string{"MVS1", "MVS2"} {
		if _, ok := r.MVS[name]; ok {
			fmt.Fprintf(&b, "  %s", name)
		}
	}
	b.WriteString("\n")
	for i, s := range r.Sizes {
		fmt.Fprintf(&b, "%-8s  %.4f      %.4f", sizeLabel(s), r.Supervisor[i], r.Problem[i])
		for _, name := range []string{"MVS1", "MVS2"} {
			if ys, ok := r.MVS[name]; ok {
				fmt.Fprintf(&b, "  %.4f", ys[i])
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
