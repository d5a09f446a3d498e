package cache_test

// Sink conformance: installing an engine event sink — a no-op one or a
// real recording one — must leave every engine's results bit-identical to
// an uninstrumented run. The sink's only interaction with an engine is
// observing its progress; any divergence means instrumentation leaked into
// simulation state.

import (
	"reflect"
	"sync/atomic"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

// counter records event counts and the final reference total.
type counter struct {
	starts, progresses, ends atomic.Int64
	lastRefs                 atomic.Int64
	total                    atomic.Int64
}

func (p *counter) event(e obs.Event) {
	switch e.Kind {
	case obs.RunStart:
		p.starts.Add(1)
		p.total.Store(e.Refs)
	case obs.RunProgress:
		p.progresses.Add(1)
	case obs.RunEnd:
		p.ends.Add(1)
		p.lastRefs.Store(e.Refs)
	}
}

// nopSink discards every event.
var nopSink = &obs.Sink{Emit: func(obs.Event) {}}

// countingSink returns a sink recording into a fresh counter.
func countingSink() (*obs.Sink, *counter) {
	c := &counter{}
	return &obs.Sink{Emit: c.event}, c
}

// probeStream is long enough to cross obs.ProgressInterval so the progress
// event path is exercised, not just start/end.
func probeStream(t *testing.T) []trace.Ref {
	t.Helper()
	n := obs.ProgressInterval + 5000
	if testing.Short() {
		n = obs.ProgressInterval + 500
	}
	return simcheck.Stream(42, n)
}

func TestProbeLeavesSystemBitIdentical(t *testing.T) {
	refs := probeStream(t)
	run := func(p *obs.Sink) (cache.RefStats, cache.Stats, uint64) {
		sys, err := cache.NewSystem(cache.SystemConfig{
			Unified:       cache.Config{Size: 4096, LineSize: 16, Fetch: cache.PrefetchAlways},
			PurgeInterval: 20000,
		})
		if err != nil {
			t.Fatal(err)
		}
		sys.SetSink(p, "test", int64(len(refs)))
		if _, err := sys.Run(trace.NewSliceReader(refs), 0); err != nil {
			t.Fatal(err)
		}
		return sys.RefStats(), sys.Stats(), sys.RefBytes()
	}
	bareRef, bareStats, bareBytes := run(nil)
	counting, _ := countingSink()
	for name, p := range map[string]*obs.Sink{"nop": nopSink, "counting": counting} {
		gotRef, gotStats, gotBytes := run(p)
		if gotRef != bareRef || gotStats != bareStats || gotBytes != bareBytes {
			t.Errorf("%s sink changed System results:\n got %+v %+v %d\nwant %+v %+v %d",
				name, gotRef, gotStats, gotBytes, bareRef, bareStats, bareBytes)
		}
	}
}

func TestProbeLeavesSweepEnginesBitIdentical(t *testing.T) {
	refs := probeStream(t)
	sizes := []int{256, 1024, 8192}

	runMulti := func(p *obs.Sink) []cache.SizeResult {
		ms, err := cache.NewMultiSystem(cache.MultiConfig{
			Sizes: sizes, LineSize: 16, Split: true, PurgeInterval: 20000,
		})
		if err != nil {
			t.Fatal(err)
		}
		ms.SetSink(p, "multi", int64(len(refs)))
		if _, err := ms.Run(trace.NewSliceReader(refs), 0); err != nil {
			t.Fatal(err)
		}
		return ms.Results()
	}
	runFanout := func(p *obs.Sink) []cache.SizeResult {
		fs, err := cache.NewFanoutSystem(cache.FanoutConfig{
			Sizes: sizes, LineSize: 16, PurgeInterval: 15000,
		})
		if err != nil {
			t.Fatal(err)
		}
		fs.SetSink(p, "fanout", int64(len(refs)))
		if _, err := fs.Run(trace.NewSliceReader(refs), 0); err != nil {
			t.Fatal(err)
		}
		return fs.Results()
	}
	for name, run := range map[string]func(*obs.Sink) any{
		"MultiSystem":  func(p *obs.Sink) any { return runMulti(p) },
		"FanoutSystem": func(p *obs.Sink) any { return runFanout(p) },
	} {
		bare := run(nil)
		if got := run(nopSink); !reflect.DeepEqual(got, bare) {
			t.Errorf("%s: no-op sink changed results", name)
		}
		if counting, _ := countingSink(); !reflect.DeepEqual(run(counting), bare) {
			t.Errorf("%s: counting sink changed results", name)
		}
	}
}

func TestProbeCallbacks(t *testing.T) {
	refs := probeStream(t)
	sink, p := countingSink()
	ms, err := cache.NewMultiSystem(cache.MultiConfig{Sizes: []int{1024}, LineSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	ms.SetSink(sink, "multi", int64(len(refs)))
	n, err := ms.Run(trace.NewSliceReader(refs), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.starts.Load() != 1 || p.ends.Load() != 1 {
		t.Errorf("starts=%d ends=%d, want 1/1", p.starts.Load(), p.ends.Load())
	}
	if p.total.Load() != int64(len(refs)) {
		t.Errorf("total=%d, want %d", p.total.Load(), len(refs))
	}
	if p.lastRefs.Load() != int64(n) {
		t.Errorf("RunEnd refs=%d, want %d", p.lastRefs.Load(), n)
	}
	if want := int64(len(refs) / obs.ProgressInterval); p.progresses.Load() != want {
		t.Errorf("progress events=%d, want %d", p.progresses.Load(), want)
	}
}
