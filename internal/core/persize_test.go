package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
)

// The per-size and hierarchy engines run their sizes through
// cache.RunSystems and cache.RunHierarchies, which skip the purge intervals
// a smaller size never evicted in. Seen from outside, nothing may change:
// the results, the events and cancellation must be those of independent
// per-size runs.

// intervalStream returns n references in purge intervals of q. Even
// intervals touch four lines, odd ones a few hundred, so the small sizes
// evict in odd intervals only and the larger sizes skip the even ones.
func intervalStream(seed int64, n, q int) []trace.Ref {
	rng := rand.New(rand.NewSource(seed))
	kinds := []trace.Kind{trace.IFetch, trace.Read, trace.Write}
	refs := make([]trace.Ref, n)
	for i := range refs {
		span := 64
		if i/q%2 == 1 {
			span = 4096
		}
		refs[i] = trace.Ref{
			Addr: uint64(i/q)<<16 + uint64(rng.Intn(span)),
			Size: uint8(1 << rng.Intn(3)),
			Kind: kinds[rng.Intn(3)],
		}
	}
	return refs
}

// eventLog records the events a sink receives, with the wall times zeroed.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) sink(missCauses bool) *obs.Sink {
	return &obs.Sink{MissCauses: missCauses, Emit: func(e obs.Event) {
		e.Elapsed = 0
		l.mu.Lock()
		l.events = append(l.events, e)
		l.mu.Unlock()
	}}
}

// intervalSpecs are the sweeps of the event and cancellation tests: an ARC
// sweep with a victim buffer (persize engine) and a split victim+L2 sweep
// (hierarchy engine), both long enough to cross two progress ticks.
func intervalSpecs() map[string]SweepSpec {
	sizes := []int{256, 1024, 4096, 16384}
	return map[string]SweepSpec{
		"persize": {Sizes: sizes, LineSize: 16, Quantum: 9000, Repl: cache.ARC,
			Fetch: cache.PrefetchAlways, Victim: 2},
		"hierarchy": {Sizes: sizes, LineSize: 16, Quantum: 9000, Split: true, Victim: 4,
			L2: &L2Spec{Size: 65536, LineSize: 64}},
	}
}

// independentRun runs one size of spec on its own, as the engines did
// before they skipped intervals, and returns its result.
func independentRun(t *testing.T, spec SweepSpec, size int, refs []trace.Ref, sink *obs.Sink, stage string) cache.SizeResult {
	t.Helper()
	rd := trace.NewSliceReader(refs)
	if spec.L2 != nil {
		h, err := cache.NewHierarchy(spec.hierarchyConfig(size))
		if err != nil {
			t.Fatal(err)
		}
		h.SetSink(sink, stage, int64(len(refs)))
		if _, err := h.Run(rd, 0); err != nil {
			t.Fatal(err)
		}
		r := l1Result(size, h.L1())
		r.H = cache.HierResult{Ev: h.HierStats(), U: h.L2Stats()}
		return r
	}
	sys, err := cache.NewSystem(spec.systemConfig(size))
	if err != nil {
		t.Fatal(err)
	}
	sys.SetSink(sink, stage, int64(len(refs)))
	if _, err := sys.Run(rd, 0); err != nil {
		t.Fatal(err)
	}
	return l1Result(size, sys)
}

// TestPerSizeAndHierarchyEventsMatchIndependentRuns: with a recording sink,
// with and without 3C attribution, a persize and a hierarchy sweep emit
// exactly the per-size event sequence of independent System.Run and
// Hierarchy.Run calls, and the same results.
func TestPerSizeAndHierarchyEventsMatchIndependentRuns(t *testing.T) {
	refs := intervalStream(1, 2*obs.ProgressInterval+5000, 9000)
	for name, spec := range intervalSpecs() {
		for _, causes := range []bool{false, true} {
			label := fmt.Sprintf("%s/missCauses=%v", name, causes)
			if got := SelectEngine(spec).Name; got != name {
				t.Fatalf("%s: selected %q", label, got)
			}
			var got, want eventLog
			out, err := RunSweep(context.Background(), spec, trace.NewSliceReader(refs), got.sink(causes), "test", int64(len(refs)))
			if err != nil {
				t.Fatal(err)
			}
			for i, size := range spec.Sizes {
				r := independentRun(t, spec, size, refs, want.sink(causes), "test:"+strconv.Itoa(size))
				if out.Results[i] != r {
					t.Errorf("%s: size %d\n got %+v\nwant %+v", label, size, out.Results[i], r)
				}
			}
			if len(got.events) != len(want.events) {
				t.Fatalf("%s: %d events, want %d", label, len(got.events), len(want.events))
			}
			for i := range got.events {
				if got.events[i] != want.events[i] {
					t.Fatalf("%s: event %d\n got %+v\nwant %+v", label, i, got.events[i], want.events[i])
				}
			}
		}
	}
}

// TestPerSizeAndHierarchyCancel: cancelling the context in the middle of a
// sweep returns context.Canceled from both engines, and every run that
// started also ended.
func TestPerSizeAndHierarchyCancel(t *testing.T) {
	refs := intervalStream(2, 2*obs.ProgressInterval+5000, 9000)
	for name, spec := range intervalSpecs() {
		for _, at := range []obs.Kind{obs.RunStart, obs.RunProgress} {
			ctx, cancel := context.WithCancel(context.Background())
			open := map[string]int{}
			stage := "test:" + strconv.Itoa(spec.Sizes[1])
			sink := &obs.Sink{Emit: func(e obs.Event) {
				switch e.Kind {
				case obs.RunStart:
					open[e.Stage]++
				case obs.RunEnd:
					open[e.Stage]--
				}
				if e.Kind == at && e.Stage == stage {
					cancel()
				}
			}}
			_, err := RunSweep(ctx, spec, trace.NewSliceReader(refs), sink, "test", int64(len(refs)))
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: cancelled at %v: err = %v, want context.Canceled", name, at, err)
			}
			if open[stage] != 0 || len(open) != 2 {
				t.Errorf("%s: cancelled at %v: runs left open or wrongly started: %v", name, at, open)
			}
		}
	}
}

// TestPerSizeAndHierarchyUnsortedSizes: /v1/sweep accepts sizes in any
// order. The engines run them ascending, so that sizes can skip, and must
// still return each result in SweepSpec.Sizes order; a descending list is
// the case where every position moves.
func TestPerSizeAndHierarchyUnsortedSizes(t *testing.T) {
	refs := intervalStream(3, 30000, 3000)
	for name, spec := range intervalSpecs() {
		spec.Sizes = []int{16384, 4096, 1024, 256}
		out, err := RunSweep(context.Background(), spec, trace.NewSliceReader(refs), nil, "test", 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, size := range spec.Sizes {
			if want := independentRun(t, spec, size, refs, nil, ""); out.Results[i] != want {
				t.Errorf("%s: result %d (size %d)\n got %+v\nwant %+v", name, i, size, out.Results[i], want)
			}
		}
	}
}
