package cacheeval_test

// Cross-module integration and property tests: these exercise whole
// pipelines (generator -> codec -> simulator) and the structural
// invariants the paper's methodology rests on.

import (
	"bytes"
	"context"
	"testing"
	"testing/quick"

	"cacheeval"
	"cacheeval/internal/cache"
	"cacheeval/internal/core"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// runSystem drives refs through a fresh system and returns its stats.
func runSystem(t testing.TB, sc cache.SystemConfig, refs []trace.Ref) *cache.System {
	t.Helper()
	sys, err := cache.NewSystem(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(trace.NewSliceReader(refs), 0); err != nil {
		t.Fatal(err)
	}
	return sys
}

func corpusRefs(t testing.TB, name string, n int) []trace.Ref {
	t.Helper()
	spec, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := spec.Open()
	if err != nil {
		t.Fatal(err)
	}
	refs, err := trace.Collect(rd, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return refs
}

// TestCodecPreservesSimulation: encoding a trace to the binary format and
// back must not change any simulation result — the property that makes
// trace files trustworthy.
func TestCodecPreservesSimulation(t *testing.T) {
	refs := corpusRefs(t, "VQSORT", 30000)
	var buf bytes.Buffer
	w := trace.NewBinaryWriter(&buf)
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.Collect(trace.NewBinaryReader(&buf), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sc := cache.SystemConfig{
		Unified:       cache.Config{Size: 4096, LineSize: 16},
		PurgeInterval: 20000,
	}
	a := runSystem(t, sc, refs)
	b := runSystem(t, sc, decoded)
	if a.RefStats() != b.RefStats() {
		t.Fatalf("simulation differs after codec round trip:\n%+v\n%+v",
			a.RefStats(), b.RefStats())
	}
	if a.Stats() != b.Stats() {
		t.Fatal("line-level stats differ after codec round trip")
	}
}

// TestStackSimMatchesSystemOnCorpus: the one-pass stack simulation that
// Table 1, Figure 2, the variance study and the design targets route to
// (core.RunSweep on the Table 1 configuration) and the explicit simulator
// must agree on real corpus traces, not just random streams.
func TestStackSimMatchesSystemOnCorpus(t *testing.T) {
	sizes := []int{256, 1024, 8192}
	spec := core.SweepSpec{Sizes: sizes, LineSize: 16}
	if e := core.SelectEngine(spec).Name; e != "multisystem" {
		t.Fatalf("Table 1 configuration routes to %s, want the stack engine", e)
	}
	for _, name := range []string{"ZPR", "VTOWERS", "PPAL"} {
		refs := corpusRefs(t, name, 20000)
		out, err := core.RunSweep(context.Background(), spec, trace.NewSliceReader(refs), nil, name, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, size := range sizes {
			sys := runSystem(t, cache.SystemConfig{
				Unified: cache.Config{Size: size, LineSize: 16},
			}, refs)
			if got, want := sys.RefStats(), out.Results[i].Ref; got != want {
				t.Errorf("%s @%d: system %+v, stack sim %+v", name, size, got, want)
			}
		}
	}
}

// TestWritePolicyMissEquivalence: with write-allocate on both sides, the
// write policy moves traffic around but cannot change which accesses miss.
func TestWritePolicyMissEquivalence(t *testing.T) {
	refs := corpusRefs(t, "FGO2", 30000)
	cb := runSystem(t, cache.SystemConfig{
		Unified: cache.Config{Size: 2048, LineSize: 16, Write: cache.CopyBack},
	}, refs)
	wt := runSystem(t, cache.SystemConfig{
		Unified: cache.Config{Size: 2048, LineSize: 16, Write: cache.WriteThrough},
	}, refs)
	if cb.RefStats() != wt.RefStats() {
		t.Fatalf("write policy changed miss behaviour:\ncopy-back:    %+v\nwrite-through: %+v",
			cb.RefStats(), wt.RefStats())
	}
	// But write-through must generate more write traffic on this workload,
	// and copy-back must be the only one pushing dirty lines.
	if wt.Stats().DirtyPushes != 0 {
		t.Error("write-through pushed dirty lines")
	}
	if cb.Stats().DirtyPushes == 0 {
		t.Error("copy-back pushed no dirty lines on a writing workload")
	}
}

// TestPurgingNeverHelps: for a fully-associative LRU cache, the purged
// cache's contents are always a subset of the unpurged one's, so purging
// can only add misses. This is why Table 1 (unpurged) bounds the purged
// §3.4 figures from below.
func TestPurgingNeverHelps(t *testing.T) {
	maxCount := 5
	if testing.Short() {
		maxCount = 2
	}
	f := func(seed int64) bool {
		p := workload.Archs()[workload.VAX].Defaults
		p.CodeLines, p.DataLines = 150, 250
		g, err := workload.NewGenerator(p, uint64(seed))
		if err != nil {
			return false
		}
		refs, err := trace.Collect(trace.NewLimitReader(g, 30000), 0, 0)
		if err != nil {
			return false
		}
		for _, interval := range []int{2000, 10000} {
			unpurged := runSystem(t, cache.SystemConfig{
				Unified: cache.Config{Size: 2048, LineSize: 16},
			}, refs)
			purged := runSystem(t, cache.SystemConfig{
				Unified:       cache.Config{Size: 2048, LineSize: 16},
				PurgeInterval: interval,
			}, refs)
			if purged.RefStats().TotalMisses() < unpurged.RefStats().TotalMisses() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: maxCount}); err != nil {
		t.Error(err)
	}
}

// TestSplitNeverBeatsUnifiedTotalCapacity is NOT a theorem (split caches
// avoid cross-interference), so instead we check the weaker structural
// fact the paper uses: a split system routes every reference to exactly
// one cache and loses none.
func TestSplitConservation(t *testing.T) {
	refs := corpusRefs(t, "WATEX", 30000)
	cfg := cache.Config{Size: 8192, LineSize: 16}
	sys := runSystem(t, cache.SystemConfig{Split: true, I: cfg, D: cfg}, refs)
	i, d := sys.ICache().Stats(), sys.DCache().Stats()
	var ifetches, data uint64
	for _, r := range refs {
		if r.Kind == trace.IFetch {
			ifetches++
		} else {
			data++
		}
	}
	if i.Accesses < ifetches || d.Accesses < data {
		t.Fatalf("split system lost accesses: I %d/%d, D %d/%d",
			i.Accesses, ifetches, d.Accesses, data)
	}
	if got := sys.RefStats().TotalRefs(); got != uint64(len(refs)) {
		t.Fatalf("ref conservation: %d != %d", got, len(refs))
	}
}

// TestPrefetchCutsLargeCacheInstructionMisses is the paper's Figure 6
// claim: "prefetching seems to always cut the instruction fetch miss
// ratio, and for large cache sizes (>2K) always by more than 50%".
func TestPrefetchCutsLargeCacheInstructionMisses(t *testing.T) {
	if testing.Short() {
		// The >50% figure only emerges at paper-scale run lengths; shorter
		// runs leave the 8K cache cold and the cut below threshold.
		t.Skip("needs 100k-reference runs per trace")
	}
	for _, name := range []string{"FGO1", "VCCOM", "ZVI", "TWOD1"} {
		refs := corpusRefs(t, name, 100000)
		cfg := cache.Config{Size: 8192, LineSize: 16}
		pcfg := cfg
		pcfg.Fetch = cache.PrefetchAlways
		demand := runSystem(t, cache.SystemConfig{
			Split: true, I: cfg, D: cfg, PurgeInterval: 20000,
		}, refs)
		prefetch := runSystem(t, cache.SystemConfig{
			Split: true, I: pcfg, D: pcfg, PurgeInterval: 20000,
		}, refs)
		dm := demand.RefStats().KindMissRatio(trace.IFetch)
		pm := prefetch.RefStats().KindMissRatio(trace.IFetch)
		if pm >= dm {
			t.Errorf("%s: prefetch did not cut instruction misses (%.4f -> %.4f)", name, dm, pm)
		}
		if pm > 0.5*dm {
			t.Errorf("%s: large-cache instruction prefetch cut = %.1f%%, paper says >50%%",
				name, 100*(1-pm/dm))
		}
	}
}

// TestGeneratorSystemDeterminismAcrossWorkers: experiment results must be
// bit-identical regardless of parallelism (DESIGN.md's determinism rule).
func TestExperimentDeterminismAcrossWorkers(t *testing.T) {
	run := func(workers int) string {
		o := cacheeval.ExperimentOptions{
			Sizes: []int{1024, 8192}, RefLimit: 3000, Workers: workers,
		}
		res, err := cacheeval.Table1(o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Render()
	}
	if run(1) != run(8) {
		t.Fatal("Table 1 output depends on worker count")
	}
}

// TestMixAlignmentWithPurges: the interleaver's quantum and the system's
// purge interval are designed to coincide; a mix member's lines must never
// survive into another member's quantum via the cache (they are rebased,
// so any hit across a switch would be a bug in rebasing or purging).
func TestMixPurgeIsolation(t *testing.T) {
	memberRefs := 20000
	if testing.Short() {
		memberRefs = 5000 // one quantum per member still crosses a switch
	}
	m := workload.Mix{Name: "iso", Quantum: 5000}
	for _, n := range []string{"PLO", "MATCH"} {
		s, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		s.Refs = memberRefs
		m.Specs = append(m.Specs, s)
	}
	rd, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	refs, err := trace.Collect(rd, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys := runSystem(t, cache.SystemConfig{
		Unified:       cache.Config{Size: 65536, LineSize: 16},
		PurgeInterval: 5000,
	}, refs)
	// With purging on every switch, per-member behaviour must equal that
	// member run alone with the same purge interval.
	var aloneMisses uint64
	for _, s := range m.Specs {
		srd, err := s.Open()
		if err != nil {
			t.Fatal(err)
		}
		srefs, err := trace.Collect(srd, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		alone := runSystem(t, cache.SystemConfig{
			Unified:       cache.Config{Size: 65536, LineSize: 16},
			PurgeInterval: 5000,
		}, srefs)
		aloneMisses += alone.RefStats().TotalMisses()
	}
	if got := sys.RefStats().TotalMisses(); got != aloneMisses {
		t.Fatalf("interleaved misses %d != sum of isolated runs %d", got, aloneMisses)
	}
}
