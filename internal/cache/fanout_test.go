package cache_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

// prefetchGrid is a demand grid flipped to prefetch-always.
func prefetchGrid(sizes []int, lineSize int, split bool) simcheck.Grid {
	return simcheck.Grid{Sizes: sizes, LineSize: lineSize, Split: split, Prefetch: true}
}

// TestFanoutMatchesPerSizeRuns is the deterministic equivalence oracle:
// across workload shapes, size grids, organizations and purge quanta, the
// fan-out engine's per-size statistics are bit-identical to independent
// per-size prefetch-always System simulations.
func TestFanoutMatchesPerSizeRuns(t *testing.T) {
	sizeGrids := [][]int{
		{32, 64, 128, 256, 1024, 4096},
		{16, 16384},
		{512},
	}
	quanta := []int{0, 37, 500}
	for seed := int64(1); seed <= 4; seed++ {
		refs := simcheck.Stream(seed, 4000)
		for _, sizes := range sizeGrids {
			for _, q := range quanta {
				for _, split := range []bool{false, true} {
					g := prefetchGrid(sizes, 16, split)
					w := simcheck.Workload{
						Name:    fmt.Sprintf("synth(seed=%d,q=%d)", seed, q),
						Refs:    refs,
						Quantum: q,
					}
					got := conform(t, simcheck.FanoutEngine{}, g, w)
					want := conform(t, simcheck.SystemEngine{}, g, w)
					label := fmt.Sprintf("seed=%d sizes=%v quantum=%d split=%v", seed, sizes, q, split)
					mustCompare(t, label, got, want)
				}
			}
		}
	}
}

// TestFanoutRandomizedEquivalence sweeps randomly drawn configurations —
// stream shape, line size, size set, organization, and purge quantum
// (including the paper's M68000 15,000-reference quantum) — through the
// fan-out engine, the per-size production path, and the naive reference
// model. The generator is seeded so failures reproduce.
func TestFanoutRandomizedEquivalence(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 5
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < trials; trial++ {
		g := simcheck.RandGrid(rng, true)
		w := simcheck.RandWorkload(rng, 4000)
		got := conform(t, simcheck.FanoutEngine{}, g, w)
		want := conform(t, simcheck.SystemEngine{}, g, w)
		mustCompare(t, fmt.Sprintf("trial=%d grid=%+v workload=%s", trial, g, w.Name), got, want)
		if trial%4 == 0 {
			// The naive model is slow; spot-check it on a quarter of trials.
			ref := conform(t, simcheck.ReferenceEngine{}, g, w)
			mustCompare(t, fmt.Sprintf("trial=%d vs reference", trial), got, ref)
		}
	}
}

// TestFanoutUnsortedDuplicateSizes checks that result order follows the
// requested size order even when it is unsorted and contains duplicates.
func TestFanoutUnsortedDuplicateSizes(t *testing.T) {
	refs := simcheck.Stream(9, 2000)
	g := prefetchGrid([]int{1024, 32, 1024, 256}, 16, false)
	w := simcheck.Workload{Name: "dup", Refs: refs, Quantum: 100}
	got := conform(t, simcheck.FanoutEngine{}, g, w)
	want := conform(t, simcheck.SystemEngine{}, g, w)
	mustCompare(t, "dup", got, want)
	if got.Results[0].U != got.Results[2].U {
		t.Error("duplicate sizes must report identical stats")
	}
}

// TestFanoutResultsSnapshot documents that Results does not end the run:
// the engine keeps simulating and a later snapshot matches an oracle over
// the longer stream.
func TestFanoutResultsSnapshot(t *testing.T) {
	refs := simcheck.Stream(3, 3000)
	cfg := cache.FanoutConfig{Sizes: []int{64, 512}, LineSize: 16, PurgeInterval: 250}
	g := prefetchGrid(cfg.Sizes, cfg.LineSize, false)
	fs, err := cache.NewFanoutSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Run(trace.NewSliceReader(refs[:1000]), 0); err != nil {
		t.Fatal(err)
	}
	mid := &simcheck.Outcome{Engine: "fanout", Grid: g,
		Workload: simcheck.Workload{Refs: refs[:1000], Quantum: cfg.PurgeInterval},
		Results:  fs.Results(), Purges: fs.Purges()}
	mustCompare(t, "snapshot-mid", mid,
		conform(t, simcheck.SystemEngine{}, g, simcheck.Workload{Name: "mid", Refs: refs[:1000], Quantum: cfg.PurgeInterval}))
	if _, err := fs.Run(trace.NewSliceReader(refs[1000:]), 0); err != nil {
		t.Fatal(err)
	}
	end := &simcheck.Outcome{Engine: "fanout", Grid: g,
		Workload: simcheck.Workload{Refs: refs, Quantum: cfg.PurgeInterval},
		Results:  fs.Results(), Purges: fs.Purges()}
	mustCompare(t, "snapshot-end", end,
		conform(t, simcheck.SystemEngine{}, g, simcheck.Workload{Name: "end", Refs: refs, Quantum: cfg.PurgeInterval}))
}

// TestFanoutValidation mirrors the per-size construction errors.
func TestFanoutValidation(t *testing.T) {
	cases := []cache.FanoutConfig{
		{Sizes: nil, LineSize: 16},
		{Sizes: []int{100}, LineSize: 16}, // not a power of two
		{Sizes: []int{8}, LineSize: 16},   // line larger than cache
		{Sizes: []int{64}, LineSize: 0},   // invalid line size
		{Sizes: []int{64}, LineSize: 16, PurgeInterval: -1},
	}
	for i, cfg := range cases {
		if _, err := cache.NewFanoutSystem(cfg); err == nil {
			t.Errorf("case %d (%+v): expected error", i, cfg)
		}
	}
}

// handoffSizes are the grid the hand-off streams are written for: 4, 8, 16
// and 64 lines of 16 bytes.
var handoffSizes = []int{64, 128, 256, 1024}

// handoffStreams are deterministic streams that walk the fan-out engine's
// representative size up to the edge of its capacity, where the next
// reference must hand its state to the next size before it can evict.
func handoffStreams() map[string][]trace.Ref {
	at := func(line uint64, kind trace.Kind) trace.Ref {
		return trace.Ref{Addr: line * 16, Size: 4, Kind: kind}
	}
	// straddle spans lines line..line+n-1, ending 2 bytes into the last.
	straddle := func(line uint64, n int, kind trace.Kind) trace.Ref {
		return trace.Ref{Addr: line*16 + 14, Size: uint8(16*(n-2) + 4), Kind: kind}
	}
	R, W, I := trace.Read, trace.Write, trace.IFetch
	return map[string][]trace.Ref{
		// Line 1's hit probes line 2, leaving 3 of the 4-line size's frames
		// used; the write to 8 then misses on both its access and its probe.
		// The same shape repeats at 7 of 8 lines before the read of 30.
		"double-miss": {
			at(0, R), at(1, R), at(8, W), at(20, W), at(21, R), at(30, R),
			at(0, W), at(40, R), at(50, W), at(8, R), at(60, R), at(1, W),
			at(70, R), at(80, R), at(90, W), at(2, R), at(100, R), at(110, W),
		},
		// Straddling references reserve two inserts per line: one lands at
		// 5 of 8 lines (capacity-3), one at 14 of 16 (capacity-2), and a
		// three-line one at the end.
		"straddle": {
			at(0, R), at(1, R), at(8, W), straddle(20, 2, W), at(30, R),
			at(40, W), at(50, R), straddle(60, 2, R), at(0, R), at(21, W),
			straddle(70, 3, W), at(80, R), straddle(90, 2, R), at(8, W),
		},
		// Instruction and data references interleave so that, split, each
		// side hands off on its own schedule.
		"mixed": {
			at(0, I), at(100, W), at(1, I), at(101, R), at(8, I), at(108, W),
			straddle(20, 2, I), straddle(120, 2, R), at(30, I), at(130, W),
			at(0, I), at(100, R), at(40, I), at(140, W), at(50, I), at(150, R),
			straddle(60, 3, I), at(160, W), at(2, I), at(102, W),
		},
	}
}

// mustMatchSystem compares fs's Results and RefSnapshot with per-size
// System runs over w.
func mustMatchSystem(t *testing.T, label string, fs *cache.FanoutSystem, g simcheck.Grid, w simcheck.Workload) {
	t.Helper()
	want := conform(t, simcheck.SystemEngine{}, g, w)
	got := &simcheck.Outcome{Engine: "fanout", Grid: g, Workload: w,
		Results: fs.Results(), Purges: fs.Purges()}
	mustCompare(t, label, got, want)
	for i, snap := range fs.RefSnapshot(nil) {
		if snap != want.Results[i].Ref {
			t.Fatalf("%s, size %d: RefSnapshot %+v, want %+v", label, want.Results[i].Size, snap, want.Results[i].Ref)
		}
	}
}

// twinsPending reports whether any organization is simulating fewer than
// all k sizes.
func twinsPending(fs *cache.FanoutSystem, k int) bool {
	for _, n := range fs.Simulated() {
		if n < k {
			return true
		}
	}
	return false
}

// TestFanoutTwinHandoff feeds the hand-off streams one reference at a time
// and, after every reference, compares Results and RefSnapshot with
// per-size System runs over the same prefix — so they are read while the
// larger sizes are still twins, and across purges that land while twins
// are pending.
func TestFanoutTwinHandoff(t *testing.T) {
	k := len(handoffSizes)
	for name, refs := range handoffStreams() {
		for _, q := range []int{0, 5, 7} {
			for _, split := range []bool{false, true} {
				label := fmt.Sprintf("%s quantum=%d split=%v", name, q, split)
				g := prefetchGrid(handoffSizes, 16, split)
				fs, err := cache.NewFanoutSystem(cache.FanoutConfig{
					Sizes: handoffSizes, LineSize: 16, Split: split, PurgeInterval: q,
				})
				if err != nil {
					t.Fatal(err)
				}
				sawTwins, sawTwinPurge := false, false
				for n, r := range refs {
					if q > 0 && n > 0 && n%q == 0 && twinsPending(fs, k) {
						sawTwinPurge = true
					}
					fs.Ref(r)
					sawTwins = sawTwins || twinsPending(fs, k)
					w := simcheck.Workload{Name: label, Refs: refs[:n+1], Quantum: q}
					mustMatchSystem(t, fmt.Sprintf("%s after %d refs", label, n+1), fs, g, w)
				}
				if !sawTwins {
					t.Errorf("%s: no reference left a size twinned", label)
				}
				if q > 0 && !sawTwinPurge {
					t.Errorf("%s: no purge landed while twins were pending", label)
				}
			}
		}
	}
}

// TestFanoutStateEqualWithTwins checks StateEqual while twins are pending:
// two engines fed the same prefix agree, and one more reference to a new
// line tells them apart.
func TestFanoutStateEqualWithTwins(t *testing.T) {
	refs := handoffStreams()["double-miss"][:6]
	mk := func() *cache.FanoutSystem {
		fs, err := cache.NewFanoutSystem(cache.FanoutConfig{Sizes: handoffSizes, LineSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range refs {
			fs.Ref(r)
		}
		return fs
	}
	a, b := mk(), mk()
	if !twinsPending(a, len(handoffSizes)) {
		t.Fatalf("prefix left no twins: simulated %v", a.Simulated())
	}
	if !a.StateEqual(b) || !b.StateEqual(a) {
		t.Fatal("identical prefixes with twins pending not StateEqual")
	}
	a.Ref(trace.Ref{Addr: 200 * 16, Size: 4, Kind: trace.Read})
	if a.StateEqual(b) || b.StateEqual(a) {
		t.Fatal("StateEqual survived a diverging reference")
	}
}
