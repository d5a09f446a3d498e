package obs

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"
)

// ProgressInterval is how many references a simulation engine processes
// between RunProgress events. A power of two so the engines' interval
// check compiles to a mask.
const ProgressInterval = 1 << 16

// Kind says what an engine Event reports.
type Kind uint8

const (
	// RunStart opens a run; Refs is its expected length (0 when unknown).
	RunStart Kind = iota
	// RunProgress reports Refs processed so far, every ProgressInterval
	// references.
	RunProgress
	// RunEnd closes a run, on error too; Refs is the references processed
	// and Elapsed its wall time.
	RunEnd
	// MissCauses carries a per-size run's 3C attribution totals, after its
	// RunEnd. Only sinks with MissCauses set receive it.
	MissCauses
	// HierarchyRun carries a run's L2-side event totals (the L1-filtered
	// stream) and victim-buffer hits, after its RunEnd. A single-level run
	// with a victim buffer reports zero L2 events.
	HierarchyRun
	// SampledRound reports one adaptive sampling round as it completes:
	// Round, the worst-size relative CI half-width Achieved (+Inf when some
	// size was unusable), the requested Budget and the round's Fraction.
	SampledRound
	// SampledRun is a sampled pass's verdict, after its RunEnd: Budget,
	// Achieved, total Fraction, Round (the number of rounds) and FellBack.
	SampledRun
	// ParallelRun is a time-parallel pass's plan: Segments, Aligned, and
	// FellBack with its Reason.
	ParallelRun
	// ParallelBoundary is one reconciled segment boundary: Refs is the
	// convergence distance (references re-simulated from the true state).
	ParallelBoundary
)

// Event is one report from a simulation engine. Kind says which fields
// carry meaning (see the Kind constants); the rest are zero. Stage names
// the run (e.g. "sweep:FGO1:demand:split"); whoever installs the sink
// chooses it, not the engine.
type Event struct {
	Kind    Kind
	Stage   string
	Refs    int64
	Elapsed time.Duration

	Compulsory, Capacity, Conflict                                uint64
	L2Fetches, L2FetchMisses, L2Writes, L2WriteMisses, VictimHits uint64

	Round                      int
	Achieved, Budget, Fraction float64

	Segments                     int
	Aligned, Converged, FellBack bool
	Reason                       string
}

// Sink receives the engines' events. The engines hold a nil *Sink by
// default and guard every emission behind a nil check, so the
// uninstrumented hot path costs one predictable branch per reference and
// no allocation; see DESIGN.md §8. A no-op sink is deliberately not the
// default: it would put a function call on every progress tick of every
// batch run.
type Sink struct {
	// Emit receives every event, from whatever goroutine runs the engine;
	// it must be safe for concurrent use when the sink is shared across
	// parallel runs. It must not be nil.
	Emit func(Event)
	// MissCauses opts per-size runs into 3C miss attribution ([Hill]'s
	// compulsory / capacity / conflict split, via a same-capacity
	// fully-associative LRU shadow), reported as one MissCauses event per
	// run. Attribution makes a run two to three times slower, so only
	// sinks that publish the numbers set it.
	MissCauses bool
}

// WithSink returns a context carrying an engine event sink, for call paths
// that thread context rather than an options struct
// (core.EvaluateRefsContext).
func WithSink(ctx context.Context, s *Sink) context.Context {
	return context.WithValue(ctx, sinkKey, s)
}

// SinkFrom returns the context's sink, or nil.
func SinkFrom(ctx context.Context) *Sink {
	s, _ := ctx.Value(sinkKey).(*Sink)
	return s
}

// ProgressPrinter renders engine progress as human-readable lines: a
// throttled in-flight line per stage (with refs/second and, when the total
// is known, an ETA) and a completion line with the stage's wall time. Its
// Event method consumes run lifecycle events and ignores the rest; it is
// safe for concurrent use across parallel simulation workers. Used by
// `paperrepro -v` and `calibrate -v`.
type ProgressPrinter struct {
	w io.Writer
	// MinInterval throttles in-flight progress lines per stage; completion
	// lines always print. The zero value prints every event (useful in
	// tests); NewProgressPrinter sets 1s.
	MinInterval time.Duration

	mu     sync.Mutex
	stages map[string]*stageState
}

type stageState struct {
	start     time.Time
	total     int64
	lastPrint time.Time
}

// NewProgressPrinter returns a progress printer with a 1s per-stage
// throttle.
func NewProgressPrinter(w io.Writer) *ProgressPrinter {
	return &ProgressPrinter{w: w, MinInterval: time.Second, stages: make(map[string]*stageState)}
}

// Event prints (or records) one engine event.
func (p *ProgressPrinter) Event(e Event) {
	switch e.Kind {
	case RunStart:
		p.mu.Lock()
		defer p.mu.Unlock()
		if p.stages == nil {
			p.stages = make(map[string]*stageState)
		}
		now := time.Now()
		p.stages[e.Stage] = &stageState{start: now, total: e.Refs, lastPrint: now}
	case RunProgress:
		p.mu.Lock()
		defer p.mu.Unlock()
		st := p.stages[e.Stage]
		if st == nil { // progress without start: engine misuse, tolerate
			return
		}
		now := time.Now()
		if now.Sub(st.lastPrint) < p.MinInterval {
			return
		}
		st.lastPrint = now
		rate := refsPerSec(e.Refs, now.Sub(st.start))
		if st.total > 0 && rate > 0 {
			eta := time.Duration(float64(st.total-e.Refs) / rate * float64(time.Second))
			fmt.Fprintf(p.w, "%s: %s/%s refs (%.0f%%), %s refs/s, ETA %s\n",
				e.Stage, fmtCount(e.Refs), fmtCount(st.total),
				100*float64(e.Refs)/float64(st.total), fmtRate(rate), eta.Round(100*time.Millisecond))
			return
		}
		fmt.Fprintf(p.w, "%s: %s refs, %s refs/s\n", e.Stage, fmtCount(e.Refs), fmtRate(rate))
	case RunEnd:
		p.mu.Lock()
		delete(p.stages, e.Stage)
		p.mu.Unlock()
		fmt.Fprintf(p.w, "%s: %s refs in %s (%s refs/s)\n",
			e.Stage, fmtCount(e.Refs), e.Elapsed.Round(time.Millisecond), fmtRate(refsPerSec(e.Refs, e.Elapsed)))
	}
}

// refsPerSec guards the zero-duration edge (sub-tick runs).
func refsPerSec(refs int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(refs) / d.Seconds()
}

// fmtCount renders a reference count compactly (12.3M style).
func fmtCount(n int64) string {
	switch {
	case n >= 10_000_000:
		return fmt.Sprintf("%.0fM", float64(n)/1e6)
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.0fK", float64(n)/1e3)
	}
	return fmt.Sprintf("%d", n)
}

// fmtRate renders a refs/second rate compactly.
func fmtRate(r float64) string {
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.1fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fK", r/1e3)
	}
	return fmt.Sprintf("%.0f", r)
}
