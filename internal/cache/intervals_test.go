package cache

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cacheeval/internal/trace"
)

// Interval twins: RunSystems and RunHierarchies must leave every size's
// counters bit-identical to an independent System.Run or Hierarchy.Run, and
// must actually skip the intervals a smaller size never evicted in.

// twinSizes are the L1 sizes of the interval tests: 8 to 256 lines of 16
// bytes, so the busy intervals of twinStream evict in the small sizes only.
var twinSizes = []int{128, 256, 1024, 4096}

// twinStream builds a stream of intervals purge intervals of q references
// each (one busy interval of 60*intervals references when q is 0). Even
// intervals are quiet: two lines, well inside the smallest size even with
// the straddled and prefetched neighbours. Intervals 1, 5, 9, ... are busy:
// up to 40 lines spread over 53, which overflows the two smallest sizes but
// neither of the others. Intervals 3, 7, ... are tight: ten lines, no
// straddles, so the smallest size evicts a few lines and a 2-line victim
// buffer catches every one of them without pushing. Every kind stores, and
// the quiet and busy ones straddle lines, so purges write back through an
// L2.
func twinStream(seed int64, q, intervals int) []trace.Ref {
	rng := rand.New(rand.NewSource(seed))
	n := q * intervals
	if q == 0 {
		q, n = 60*intervals, 60*intervals
	}
	refs := make([]trace.Ref, 0, n)
	kinds := []trace.Kind{trace.IFetch, trace.Read, trace.Write}
	for len(refs) < n {
		iv := len(refs) / q
		base := uint64(rng.Intn(1<<12)) << 10
		for j := 0; j < q && len(refs) < n; j++ {
			r := trace.Ref{Kind: kinds[rng.Intn(3)]}
			switch {
			case q == n || iv%4 == 1:
				line := uint64(rng.Intn(40)) * 4 / 3
				r.Addr, r.Size = base+line*16+uint64(rng.Intn(16)), uint8(1<<rng.Intn(3))
			case iv%4 == 3:
				r.Addr, r.Size = base+uint64(rng.Intn(10))*16+uint64(rng.Intn(4))*4, 4
			default:
				r.Addr, r.Size = base+uint64(rng.Intn(32)), uint8(1<<rng.Intn(3))
			}
			refs = append(refs, r)
		}
	}
	return refs
}

// twinL2 is the second level of the hierarchy cases: none, fully
// associative or 4-way, with a wider line than the L1s.
type twinL2 struct {
	name  string
	assoc int
}

var twinL2s = []twinL2{{"FA", 0}, {"4way", 4}}

// twinSystemConfig is one size of a unified sweep.
func twinSystemConfig(size int, repl Replacement, fetch FetchPolicy, victim, q int) SystemConfig {
	return SystemConfig{
		Unified: Config{Size: size, LineSize: 16, Repl: repl, Fetch: fetch,
			VictimLines: victim, Seed: uint64(size)},
		PurgeInterval: q,
	}
}

// independentCounts runs each sim over refs on its own, with Run.
func independentCounts(t *testing.T, sims []intervalSim, refs []trace.Ref) []twinCounts {
	t.Helper()
	out := make([]twinCounts, len(sims))
	for i, sim := range sims {
		var err error
		switch x := sim.(type) {
		case *System:
			_, err = x.Run(trace.NewSliceReader(refs), 0)
		case *Hierarchy:
			_, err = x.Run(trace.NewSliceReader(refs), 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sim.counts()
	}
	return out
}

// checkTwins runs sims through the interval loop and compares every size's
// counters with want. It returns how many intervals each size skipped.
func checkTwins(t *testing.T, label string, sims []intervalSim, twin []bool, refs []trace.Ref, want []twinCounts) []int {
	t.Helper()
	skipped, err := runTwins(context.Background(), sims, twin, refs)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	for i, sim := range sims {
		if got := sim.counts(); got != want[i] {
			t.Fatalf("%s: size %d diverges (skipped %d intervals)\n got %+v\nwant %+v",
				label, twinSizes[i], skipped[i], got, want[i])
		}
	}
	return skipped
}

// twinQuanta are the purge intervals of the grid, with the number of
// intervals each stream spans.
var twinQuanta = []struct{ q, intervals int }{{0, 40}, {7, 60}, {15000, 3}}

// runTwinGrid runs every policy × fetch × victim × quantum combination on
// systems, or on hierarchies behind l2 when it is set.
func runTwinGrid(t *testing.T, l2 *twinL2) {
	fetches := []FetchPolicy{DemandFetch, PrefetchAlways, TaggedPrefetch}
	quanta := twinQuanta
	if testing.Short() {
		quanta = quanta[:2]
	}
	for _, qc := range quanta {
		refs := twinStream(int64(qc.q)+1, qc.q, qc.intervals)
		for _, repl := range Replacements() {
			for _, fetch := range fetches {
				for _, victim := range []int{0, 2} {
					label := fmt.Sprintf("%v/%v/victim%d/q%d", repl, fetch, victim, qc.q)
					build := func() ([]intervalSim, []bool) {
						if l2 == nil {
							systems := make([]*System, len(twinSizes))
							for i, size := range twinSizes {
								systems[i] = mustSystem(t, twinSystemConfig(size, repl, fetch, victim, qc.q))
							}
							return systemSims(systems)
						}
						hs := make([]*Hierarchy, len(twinSizes))
						for i, size := range twinSizes {
							hs[i] = mustHierarchy(t, HierarchyConfig{
								L1: twinSystemConfig(size, repl, fetch, victim, qc.q),
								L2: Config{Size: 8192, LineSize: 32, Assoc: l2.assoc},
							})
						}
						return hierarchySims(hs)
					}
					ref, _ := build()
					want := independentCounts(t, ref, refs)
					sims, twin := build()
					skipped := checkTwins(t, label, sims, twin, refs, want)
					last := skipped[len(skipped)-1]
					switch {
					case l2 != nil && repl == SegmentedLRU:
						for i, n := range skipped {
							if n != 0 {
								t.Fatalf("%s: SegmentedLRU hierarchy size %d skipped %d intervals", label, twinSizes[i], n)
							}
						}
					case last == 0:
						t.Fatalf("%s: the largest size skipped nothing (%v); the comparison is vacuous", label, skipped)
					}
				}
			}
		}
	}
}

// TestIntervalTwinsMatchSystem holds RunSystems to independent System runs
// across all six policies × {demand, prefetch-always, tagged} × victim
// {0, 2} × quantum {0, 7, 15000}.
func TestIntervalTwinsMatchSystem(t *testing.T) {
	runTwinGrid(t, nil)
}

// TestIntervalTwinsMatchHierarchy is the same grid behind a fully
// associative and a 4-way L2. SegmentedLRU L1s must never skip: their purge
// write-back order, which the L2 sees, depends on size.
func TestIntervalTwinsMatchHierarchy(t *testing.T) {
	for i := range twinL2s {
		t.Run(twinL2s[i].name, func(t *testing.T) { runTwinGrid(t, &twinL2s[i]) })
	}
}

// TestIntervalTwinsHierarchyAlternateIntervals pins the skip pattern on the
// hand-built stream: the smallest size evicts in every odd interval and in
// no even one, so the next size skips exactly the even ones, and each size
// passes on every interval it did not evict in.
func TestIntervalTwinsHierarchyAlternateIntervals(t *testing.T) {
	const q, intervals = 500, 9
	refs := twinStream(3, q, intervals)
	build := func() ([]intervalSim, []bool) {
		hs := make([]*Hierarchy, len(twinSizes))
		for i, size := range twinSizes {
			hs[i] = mustHierarchy(t, HierarchyConfig{
				L1: twinSystemConfig(size, LRU, DemandFetch, 0, q),
				L2: Config{Size: 8192, LineSize: 32},
			})
		}
		return hierarchySims(hs)
	}
	ref, _ := build()
	want := independentCounts(t, ref, refs)
	sims, twin := build()
	skipped := checkTwins(t, "alternate", sims, twin, refs, want)
	// Size 0 simulates everything and evicts in the 4 odd intervals. Size
	// 1 skips the 5 quiet ones and evicts only in the 2 busy ones, which
	// size 2 simulates without evicting, so size 3 skips all 9.
	if w := []int{0, 5, 7, 9}; !slices.Equal(skipped, w) {
		t.Fatalf("skipped %v, want %v", skipped, w)
	}
}

// TestIntervalTwinsResumePurgeSchedule checks that a system that simulated
// its final interval is left where System.Run leaves it, so further Ref
// calls purge on the same schedule.
func TestIntervalTwinsResumePurgeSchedule(t *testing.T) {
	const q = 100
	refs := twinStream(5, q, 7)[:650]
	more := twinStream(6, q, 3)
	got := mustSystem(t, twinSystemConfig(128, LRU, DemandFetch, 0, q))
	if err := RunSystems(context.Background(), []*System{got}, refs); err != nil {
		t.Fatal(err)
	}
	want := mustSystem(t, twinSystemConfig(128, LRU, DemandFetch, 0, q))
	if _, err := want.Run(trace.NewSliceReader(refs), 0); err != nil {
		t.Fatal(err)
	}
	for _, r := range more {
		got.Ref(r)
		want.Ref(r)
	}
	if got.counts() != want.counts() || !got.Unified().StateEqual(want.Unified()) {
		t.Fatalf("resumed run diverges:\n got %+v\nwant %+v", got.counts(), want.counts())
	}
}

// TestIntervalTwinsGuards checks the cases that must not skip: unsorted
// sizes, set-associative caches, differing purge intervals, 3C attribution,
// a memory sink, and systems that have already run (rejected).
func TestIntervalTwinsGuards(t *testing.T) {
	sc := func(size, assoc, q int) SystemConfig {
		c := twinSystemConfig(size, LRU, DemandFetch, 0, q)
		c.Unified.Assoc = assoc
		return c
	}
	cases := map[string]func() []*System{
		"descending": func() []*System {
			return []*System{mustSystem(t, sc(4096, 0, 50)), mustSystem(t, sc(128, 0, 50))}
		},
		"set-associative": func() []*System {
			return []*System{mustSystem(t, sc(128, 2, 50)), mustSystem(t, sc(4096, 2, 50))}
		},
		"quantum": func() []*System {
			return []*System{mustSystem(t, sc(128, 0, 50)), mustSystem(t, sc(4096, 0, 60))}
		},
		"miss causes": func() []*System {
			b := mustSystem(t, sc(4096, 0, 50))
			b.Unified().EnableMissCauses()
			return []*System{mustSystem(t, sc(128, 0, 50)), b}
		},
		"memory sink": func() []*System {
			b := mustSystem(t, sc(4096, 0, 50))
			b.Unified().SetMemSink(nopMemSink{})
			return []*System{mustSystem(t, sc(128, 0, 50)), b}
		},
	}
	refs := twinStream(9, 50, 8)
	for name, build := range cases {
		sims, twin := systemSims(build())
		skipped, err := runTwins(context.Background(), sims, twin, refs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if skipped[1] != 0 {
			t.Errorf("%s: skipped %d intervals", name, skipped[1])
		}
	}
	ran := mustSystem(t, sc(128, 0, 50))
	ran.Ref(refs[0])
	if err := RunSystems(context.Background(), []*System{ran}, refs); err == nil {
		t.Error("RunSystems accepted a system that has already run")
	}
}

// nopMemSink observes a cache's memory traffic and discards it.
type nopMemSink struct{}

func (nopMemSink) MemRead(uint64, int)  {}
func (nopMemSink) MemWrite(uint64, int) {}

// FuzzPerSizeMatchesSystem holds RunSystems (and, when l2 is set,
// RunHierarchies) to independent runs on arbitrary inputs. The bytes decode
// into references as in FuzzFanoutMatchesSystem; the other arguments pick
// the size subset (bit j of sizeMask selects 16<<j, ascending), the policy,
// the fetch policy, the victim buffer, the L2 (none, fully associative,
// 4-way), the purge quantum and the organization.
func FuzzPerSizeMatchesSystem(f *testing.F) {
	for _, q := range []uint16{0, 7, 50} {
		refs := twinStream(int64(q), int(q), 8)
		f.Add(encodeRefs(refs), uint16(0x1f3), uint8(ARC), uint8(PrefetchAlways), uint8(2), uint8(1), q, false)
		f.Add(encodeRefs(refs), uint16(0x0ff), uint8(LRU), uint8(DemandFetch), uint8(0), uint8(0), q, true)
		f.Add(encodeRefs(refs), uint16(0x3c7), uint8(SegmentedLRU), uint8(TaggedPrefetch), uint8(0), uint8(2), q, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, sizeMask uint16, repl, fetch, victim, l2 uint8, quantum uint16, split bool) {
		if len(data) > 3*512 {
			data = data[:3*512] // bounds the cost of one run
		}
		refs := decodeRefs(data)
		var sizes []int
		for j := 0; j < 10; j++ {
			if sizeMask&(1<<j) != 0 {
				sizes = append(sizes, 16<<j)
			}
		}
		if len(sizes) == 0 {
			sizes = []int{16}
		}
		sc := func(size int) SystemConfig {
			c := Config{Size: size, LineSize: 16, Repl: Replacement(repl % 6),
				Fetch: FetchPolicy(fetch % 4), VictimLines: int(victim % 3), Seed: 7}
			out := SystemConfig{PurgeInterval: int(quantum % 64)}
			if split {
				out.Split, out.I, out.D = true, c, c
			} else {
				out.Unified = c
			}
			return out
		}
		build := func() ([]intervalSim, []bool) {
			if l2%3 == 0 {
				systems := make([]*System, len(sizes))
				for i, size := range sizes {
					systems[i] = mustSystem(t, sc(size))
				}
				return systemSims(systems)
			}
			hs := make([]*Hierarchy, len(sizes))
			for i, size := range sizes {
				l2cfg := Config{Size: 32768, LineSize: 32}
				if l2%3 == 2 {
					l2cfg.Assoc = 4
				}
				hs[i] = mustHierarchy(t, HierarchyConfig{L1: sc(size), L2: l2cfg})
			}
			return hierarchySims(hs)
		}
		ref, _ := build()
		want := independentCounts(t, ref, refs)
		sims, twin := build()
		if _, err := runTwins(context.Background(), sims, twin, refs); err != nil {
			t.Fatal(err)
		}
		for i, sim := range sims {
			if got := sim.counts(); got != want[i] {
				t.Fatalf("size %d diverges\n got %+v\nwant %+v", sizes[i], got, want[i])
			}
		}
	})
}

// encodeRefs is the inverse of decodeRefs for references in the bottom 4 KB.
func encodeRefs(refs []trace.Ref) []byte {
	data := make([]byte, 0, 3*len(refs))
	for _, r := range refs {
		data = append(data, byte(r.Addr), byte(r.Addr>>8)&0x0f|byte(r.Kind)<<4, r.Size)
	}
	return data
}

// decodeRefs turns three bytes into a reference: a 12-bit offset into the
// bottom or (high bit of the second byte) the top 4 KB of the address
// space, a kind and a size.
func decodeRefs(data []byte) []trace.Ref {
	refs := make([]trace.Ref, 0, len(data)/3)
	for i := 0; i+3 <= len(data); i += 3 {
		r := trace.Ref{
			Addr: uint64(data[i]) | uint64(data[i+1]&0x0f)<<8,
			Kind: trace.Kind(data[i+1]>>4&3) % 3,
			Size: data[i+2],
		}
		if data[i+1]&0x80 != 0 {
			r.Addr |= ^uint64(0xfff)
		}
		refs = append(refs, r)
	}
	return refs
}

// TestIntervalTwinsHierarchySegmentedLRUNeedsExclusion shows why
// RunHierarchies never lets a SegmentedLRU L1 skip: forcing the skip on a
// stream the smaller L1 never evicts in still changes the L2's counts,
// because promotions past the smaller protected segment reorder the purge
// write-backs, and a direct-mapped L2 sees the order.
func TestIntervalTwinsHierarchySegmentedLRUNeedsExclusion(t *testing.T) {
	const q = 64
	rng := rand.New(rand.NewSource(1))
	var refs []trace.Ref
	for iv := 0; iv < 40; iv++ {
		lines := rng.Perm(64)[:8]
		for j := 0; j < q; j++ {
			refs = append(refs, trace.Ref{Addr: uint64(lines[j%8]) * 16, Size: 4, Kind: trace.Write})
		}
	}
	build := func() []intervalSim {
		hs := make([]*Hierarchy, 2)
		for i, size := range []int{128, 256} {
			hs[i] = mustHierarchy(t, HierarchyConfig{
				L1: twinSystemConfig(size, SegmentedLRU, DemandFetch, 0, q),
				L2: Config{Size: 256, LineSize: 16, Assoc: 1},
			})
		}
		sims, twin := hierarchySims(hs)
		if twin[1] {
			t.Fatal("a SegmentedLRU hierarchy was allowed to skip")
		}
		return sims
	}
	want := independentCounts(t, build(), refs)
	sims := build()
	skipped, err := runTwins(context.Background(), sims, []bool{false, true}, refs)
	if err != nil {
		t.Fatal(err)
	}
	if skipped[1] != 40 {
		t.Fatalf("forced skip covered %d of 40 intervals", skipped[1])
	}
	if sims[1].counts() == want[1] {
		t.Fatal("forced skipping matched; the stream no longer shows the reordering")
	}
}
