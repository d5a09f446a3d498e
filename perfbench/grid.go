package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"cacheeval/internal/cache"
	"cacheeval/internal/core"
	"cacheeval/internal/experiments"
	"cacheeval/internal/model"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// lineSize is the sweep line size every grid uses (the paper's 16 bytes).
const lineSize = 16

// gridSamples is how many grid cells per operation the reference engines
// re-simulate.
const gridSamples = 3

// seededMix returns m with seed XORed into every member's Spec.Seed and,
// when refs > 0, every member's run length set to refs. The corpus is
// untouched: Specs is copied.
func seededMix(m workload.Mix, seed uint64, refs int) workload.Mix {
	specs := make([]workload.Spec, len(m.Specs))
	copy(specs, m.Specs)
	for i := range specs {
		specs[i].Seed ^= seed
		if refs > 0 {
			specs[i].Refs = refs
		}
	}
	m.Specs = specs
	return m
}

// gridConfig is one sweep configuration of a grid workload. part is the
// end-to-end part (0 for a, 1 for b) its sweep time counts in.
type gridConfig struct {
	name string
	opts experiments.Options // Workers, Repl, Victim and L2; never a hook
	part int
}

// grid is a workload made of whole-grid sweeps: each operation
// materializes every mix, sweeps every configuration over them and, for
// the paper grid, assembles Table 3, Table 4 and Figures 3-10 (timed with
// the last sweep's part). materializePart is the part materialization
// counts in, or -1 when it counts in neither.
type grid struct {
	mixes           []workload.Mix
	configs         []gridConfig
	assemble        bool
	materializePart int
}

// paperGrid is the §3.3-§3.5 master sweep: the sixteen Table 3 units plus
// the M68000 assortment, at paper run lengths, serial.
func paperGrid(seed uint64) grid {
	var mixes []workload.Mix
	for _, m := range append(workload.StandardMixes(), workload.M68000Mix()) {
		mixes = append(mixes, seededMix(m, seed, 0))
	}
	return grid{mixes: mixes, assemble: true, materializePart: 0,
		configs: []gridConfig{{"lru", experiments.Options{Workers: 1}, 1}}}
}

// nonstackGrid sweeps configurations that break stack inclusion, so every
// pass runs one cache (or hierarchy) per size: ARC replacement, and a
// 4-line victim buffer in front of a 256KB L2.
func nonstackGrid(seed uint64) grid {
	std := workload.StandardMixes()
	var mixes []workload.Mix
	for _, m := range std {
		switch m.Name {
		case "VCCOM", "VSPICE", "Z8000 - Assorted":
			mixes = append(mixes, seededMix(m, seed, 0))
		}
	}
	return grid{mixes: mixes, materializePart: -1, configs: []gridConfig{
		{"arc", experiments.Options{Workers: 1, Repl: cache.ARC}, 0},
		{"victim+l2", experiments.Options{Workers: 1, Victim: 4,
			L2: &core.L2Spec{Size: 262144, LineSize: 64}}, 1},
	}}
}

func runPaperGrid(ctx context.Context, env *runEnv) error {
	return runGrid(ctx, env, paperGrid(env.seed))
}

func runNonstackGrid(ctx context.Context, env *runEnv) error {
	return runGrid(ctx, env, nonstackGrid(env.seed))
}

func runGrid(ctx context.Context, env *runEnv, g grid) error {
	// Set-up warms every engine the operation will use on short streams, so
	// lazy initialisation and first-touch page faults stay out of the
	// measured operations.
	if _, err := repeatSetup(env, 5, func() (struct{}, error) {
		return struct{}{}, g.warmUp(ctx)
	}); err != nil {
		return err
	}
	rng := rand.New(rand.NewPCG(env.seed, 0x9e3779b97f4a7c15))
	var err error
	env.untraced, err = measure(env.seconds, func(i int) (opRecord, error) {
		return g.op(ctx, env, nil, i, rng)
	})
	if err != nil {
		return err
	}
	if !env.traced {
		return nil
	}
	env.tracedRun, err = measure(env.seconds, func(i int) (opRecord, error) {
		return g.op(ctx, env, env.tr, i, rng)
	})
	if err != nil {
		return err
	}
	finishEngineLayers(env)
	if b := env.layer["materialize.busy_s"]; b > 0 {
		env.layer["workload.gen_refs_per_s"] = env.layer["materialize.refs"] / b
	}
	return nil
}

func (g grid) warmUp(ctx context.Context) error {
	for _, c := range g.configs {
		o := c.opts
		o.RefLimit = 5000
		if _, err := experiments.SweepMixesContext(ctx, o, g.mixes); err != nil {
			return err
		}
	}
	return nil
}

// op runs one timed grid operation and then, outside the timing, checks
// its outputs. With a tracer it records a span per materialization, per
// grid pass (labelled with the engine the registry selects) and for
// assembly, and accumulates the per-layer metrics.
func (g grid) op(ctx context.Context, env *runEnv, tr *tracer, id int, rng *rand.Rand) (opRecord, error) {
	t0 := time.Now()
	root := tr.begin("op", "grid", 0, id)
	streams := make(map[string][]trace.Ref, len(g.mixes))
	var work float64
	var parts [2]time.Duration
	for _, m := range g.mixes {
		ms := time.Now()
		refs, err := experiments.Options{}.CollectMixContext(ctx, m)
		if err != nil {
			return opRecord{}, fmt.Errorf("materialize %s: %w", m.Name, err)
		}
		if tr != nil {
			tr.record("materialize", m.Name, root, id, ms, time.Now())
			env.addLayer("materialize.busy_s", time.Since(ms).Seconds())
			env.addLayer("materialize.refs", float64(len(refs)))
		}
		streams[m.Name] = refs
		work += float64(len(refs)) * 4 * float64(len(g.configs))
	}
	if g.materializePart >= 0 {
		parts[g.materializePart] += time.Since(t0)
	}
	source := func(_ context.Context, m workload.Mix) ([]trace.Ref, error) { return streams[m.Name], nil }
	results := make([]*experiments.SweepResult, len(g.configs))
	for ci, c := range g.configs {
		o := c.opts
		o.StreamSource = source
		sweep := tr.begin("sweep", c.name, root, id)
		if tr != nil {
			o.OnPass = passTracer(env, tr, o, g.mixes, sweep, id)
		}
		ss := time.Now()
		res, err := experiments.SweepMixesContext(ctx, o, g.mixes)
		parts[c.part] += time.Since(ss)
		tr.end(sweep)
		if err != nil {
			return opRecord{}, fmt.Errorf("sweep %s: %w", c.name, err)
		}
		results[ci] = res
	}
	var assembleErr error
	if g.assemble {
		as := time.Now()
		assembleErr = assemble(results[0])
		parts[g.configs[len(g.configs)-1].part] += time.Since(as)
		if tr != nil {
			tr.record("assemble", "tables+figures", root, id, as, time.Now())
			env.addLayer("assemble.busy_s", time.Since(as).Seconds())
		}
	}
	dur := time.Since(t0)
	tr.end(root)

	cs := time.Now()
	var errs []error
	if assembleErr != nil {
		errs = append(errs, assembleErr)
	}
	for ci, c := range g.configs {
		for _, err := range checkGrid(results[ci], streams, c, rng, gridSamples) {
			errs = append(errs, fmt.Errorf("%s: %w", c.name, err))
		}
	}
	env.judge(fmt.Sprintf("grid op %d", id), errs)
	tr.record("check", "grid", 0, id, cs, time.Now())
	return opRecord{dur: dur, work: work, parts: [2][]time.Duration{{parts[0]}, {parts[1]}}}, nil
}

// assemble builds and renders Table 3, Table 4 and Figures 3-10 from a
// sweep, as paperrepro does, and checks that none came out empty.
func assemble(res *experiments.SweepResult) error {
	t3, err := experiments.Table3(res)
	if err != nil {
		return err
	}
	if len(t3.Rows) != 16 || t3.Render() == "" {
		return fmt.Errorf("table 3 has %d rows, want 16", len(t3.Rows))
	}
	if t4 := experiments.Table4(res); len(t4.Rows) == 0 || t4.Render() == "" {
		return fmt.Errorf("table 4 is empty")
	}
	for k := experiments.Figure3; k <= experiments.Figure10; k++ {
		if res.RenderFigure(k) == "" {
			return fmt.Errorf("figure kind %d rendered empty", k)
		}
	}
	return nil
}

// passTracer returns an OnPass hook that turns each completed grid pass
// into an engine span. With Workers 1 passes run one after another, so a
// pass started when the previous one (or the sweep) ended.
func passTracer(env *runEnv, tr *tracer, o experiments.Options, mixes []workload.Mix, parent, op int) func(experiments.PassResult) {
	quantum := map[string]int{}
	for _, m := range mixes {
		quantum[m.Name] = m.Quantum
	}
	last := time.Now()
	return func(p experiments.PassResult) {
		now := time.Now()
		spec := passSpec(o, p.Split, p.Prefetch, quantum[p.Mix])
		engine := core.SelectEngine(spec).Name
		tr.record("engine."+engine, p.Mix+":"+variantName(p.Split, p.Prefetch), parent, op, last, now)
		d := now.Sub(last)
		last = now
		refs := float64(p.Results[0].Ref.TotalRefs())
		env.addLayer("engine."+engine+".calls", 1)
		env.addLayer("engine."+engine+".busy_s", d.Seconds())
		env.addLayer("engine."+engine+".ref_sizes", refs*float64(len(p.Sizes)))
	}
}

// engines are the registry's engine names, as per-layer metrics use them.
var engines = []string{"multisystem", "fanout", "persize", "hierarchy", "sampled", "parallel"}

// finishEngineLayers turns accumulated engine busy time and reference ×
// size counts into ns per reference per size, and drops the helper counts.
func finishEngineLayers(env *runEnv) {
	for _, e := range engines {
		k := "engine." + e + ".ref_sizes"
		if rs := env.layer[k]; rs > 0 {
			env.layer["engine."+e+".ns_per_ref_size"] = env.layer["engine."+e+".busy_s"] * 1e9 / rs
		}
		delete(env.layer, k)
	}
}

// passSpec is the sweep spec experiments builds for one grid pass.
func passSpec(o experiments.Options, split, prefetch bool, quantum int) core.SweepSpec {
	sizes := o.Sizes
	if len(sizes) == 0 {
		sizes = model.CacheSizes
	}
	fetch := cache.DemandFetch
	if prefetch {
		fetch = cache.PrefetchAlways
	}
	var par *core.ParallelOptions
	if o.Parallel != nil && o.Parallel.Workers >= 2 {
		par = o.Parallel
	}
	return core.SweepSpec{Sizes: sizes, LineSize: lineSize, Split: split, Quantum: quantum,
		Fetch: fetch, Repl: o.Repl, Victim: o.Victim, L2: o.L2, Sampled: o.Sampled, Parallel: par}
}

func variantName(split, prefetch bool) string {
	org, fetch := "unified", "demand"
	if split {
		org = "split"
	}
	if prefetch {
		fetch = "prefetch"
	}
	return org + "-" + fetch
}

// variants are the four passes of every grid row.
var variants = []struct{ split, prefetch bool }{{true, false}, {false, false}, {true, true}, {false, true}}

func variantOf(c experiments.SweepCell, split, prefetch bool) experiments.SimOut {
	switch {
	case split && prefetch:
		return c.SplitPrefetch
	case split:
		return c.SplitDemand
	case prefetch:
		return c.UnifiedPrefetch
	default:
		return c.UnifiedDemand
	}
}

func sizeResult(size int, c experiments.SimOut) cache.SizeResult {
	return cache.SizeResult{Size: size, Ref: c.Ref, I: c.I, D: c.D, U: c.U, CI: c.CI, H: c.H}
}

// purgesOf is the purge count the trace clock implies: a purge fires
// before references q+1, 2q+1, ...
func purgesOf(n, quantum int) uint64 {
	if quantum <= 0 || n == 0 {
		return 0
	}
	return uint64((n - 1) / quantum)
}

// checkGrid is the grid correctness gate: every pass of res must satisfy
// simcheck's invariants, and samples randomly chosen cells must equal the
// reference engines' re-simulation bit for bit.
func checkGrid(res *experiments.SweepResult, streams map[string][]trace.Ref, c gridConfig, rng *rand.Rand, samples int) []error {
	var errs []error
	base := simcheck.Grid{Sizes: res.Sizes, LineSize: lineSize, Repl: c.opts.Repl, Victim: c.opts.Victim}
	if c.opts.L2 != nil {
		base.L2Size, base.L2Line = c.opts.L2.Size, c.opts.L2.LineSize
	}
	outcome := func(mi int, split, prefetch bool) *simcheck.Outcome {
		g := base
		g.Split, g.Prefetch = split, prefetch
		m := res.Mixes[mi]
		refs := streams[m.Name]
		o := &simcheck.Outcome{Engine: "sweep", Grid: g,
			Workload: simcheck.Workload{Name: m.Name, Refs: refs, Quantum: m.Quantum},
			Purges:   purgesOf(len(refs), m.Quantum)}
		for si, size := range res.Sizes {
			o.Results = append(o.Results, sizeResult(size, variantOf(res.Cells[mi][si], split, prefetch)))
		}
		return o
	}
	for mi := range res.Mixes {
		for _, v := range variants {
			if err := simcheck.Check(outcome(mi, v.split, v.prefetch)); err != nil {
				errs = append(errs, fmt.Errorf("%s %s: %w", res.Mixes[mi].Name, variantName(v.split, v.prefetch), err))
			}
		}
	}
	for s := 0; s < samples; s++ {
		mi, v, si := rng.IntN(len(res.Mixes)), variants[rng.IntN(len(variants))], rng.IntN(len(res.Sizes))
		got := outcome(mi, v.split, v.prefetch)
		g := got.Grid
		g.Sizes = []int{res.Sizes[si]}
		var ref simcheck.Engine = simcheck.ReferenceEngine{}
		if g.L2Size > 0 {
			ref = simcheck.RefHierarchyEngine{}
		}
		want, err := ref.Simulate(g, got.Workload)
		if err != nil {
			errs = append(errs, fmt.Errorf("reference %s: %w", res.Mixes[mi].Name, err))
			continue
		}
		if want.Results[0] != got.Results[si] || want.Purges != got.Purges {
			errs = append(errs, fmt.Errorf("%s %s size %d: sweep %+v differs from %s %+v (purges %d vs %d)",
				res.Mixes[mi].Name, variantName(v.split, v.prefetch), res.Sizes[si],
				got.Results[si], ref.Name(), want.Results[0], got.Purges, want.Purges))
		}
	}
	return errs
}
