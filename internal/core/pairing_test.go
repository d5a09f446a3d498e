package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

// pairCheck is a sink that cancels its run the moment any stage starts,
// and counts the runs each stage leaves open.
type pairCheck struct {
	mu     sync.Mutex
	cancel context.CancelFunc
	open   map[string]int
	starts int
}

func (p *pairCheck) event(e obs.Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch e.Kind {
	case obs.RunStart:
		p.open[e.Stage]++
		p.starts++
		p.cancel()
	case obs.RunEnd:
		p.open[e.Stage]--
	}
}

// TestCanceledRunsCloseEveryStart: a run cancelled after its RunStart must
// still emit the matching RunEnd on every sampled and parallel path, as the
// cache engines do, so a streaming consumer never holds a stage open.
func TestCanceledRunsCloseEveryStart(t *testing.T) {
	// Segments check for cancellation every obs.ProgressInterval refs, so
	// each of the four must be longer than that.
	refs := simcheck.Stream(1, 5*obs.ProgressInterval)
	design := cache.SystemConfig{Unified: cache.Config{Size: 1024, LineSize: 16}, PurgeInterval: 2500}
	spec := SweepSpec{Sizes: []int{512, 4096}, LineSize: 16, Quantum: 2500}
	sampled := &SampledOptions{ErrorBudget: 0.05}
	sweep := func(ctx context.Context, sink *obs.Sink, s SweepSpec) error {
		_, err := RunSweep(ctx, s, trace.NewSliceReader(refs), sink, "test", int64(len(refs)))
		return err
	}
	paths := map[string]func(context.Context, *obs.Sink) error{
		"sampled sweep": func(ctx context.Context, sink *obs.Sink) error {
			s := spec
			s.Sampled = sampled
			return sweep(ctx, sink, s)
		},
		"sampled evaluate": func(ctx context.Context, sink *obs.Sink) error {
			_, _, _, err := EvaluateSampledRefsContext(obs.WithSink(ctx, sink), design, "test", refs, sampled)
			return err
		},
		"parallel sweep": func(ctx context.Context, sink *obs.Sink) error {
			s := spec
			s.Parallel = parallelTestOptions(4)
			return sweep(ctx, sink, s)
		},
		"parallel evaluate": func(ctx context.Context, sink *obs.Sink) error {
			_, _, err := EvaluateParallelRefsContext(obs.WithSink(ctx, sink), design, "test", refs, parallelTestOptions(4))
			return err
		},
	}
	for name, run := range paths {
		ctx, cancel := context.WithCancel(context.Background())
		p := &pairCheck{cancel: cancel, open: map[string]int{}}
		err := run(ctx, &obs.Sink{Emit: p.event})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if p.starts == 0 {
			t.Errorf("%s: no run started", name)
		}
		for stage, n := range p.open {
			if n != 0 {
				t.Errorf("%s: stage %q has %d starts without an end", name, stage, n)
			}
		}
	}
}
