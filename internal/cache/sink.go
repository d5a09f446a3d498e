package cache

import (
	"time"

	"cacheeval/internal/obs"
)

// engineSink is the instrumentation state embedded in every simulation
// engine (System, MultiSystem, FanoutSystem, Hierarchy). The sink is nil
// unless a caller installs one, and each Run loop guards its events behind
// that nil check, so the uninstrumented hot path pays one predictable
// branch per reference and allocates nothing — the engine benchmarks run
// with a no-op sink installed precisely so `make benchcheck` keeps the
// instrumented path honest too. See DESIGN.md §8.
type engineSink struct {
	sink  *obs.Sink
	stage string
	total int64
}

// SetSink installs an engine event sink for subsequent Run calls. stage
// names the run in its events (the engine does not invent names);
// totalRefs is the expected run length when known, 0 otherwise. A nil
// sink uninstalls.
func (e *engineSink) SetSink(s *obs.Sink, stage string, totalRefs int64) {
	e.sink, e.stage, e.total = s, stage, totalRefs
}

// runStart emits the RunStart event and returns the run's start time
// (zero when no sink is installed — runEnd only reads it when a sink is
// present).
func (e *engineSink) runStart() time.Time {
	if e.sink == nil {
		return time.Time{}
	}
	e.sink.Emit(obs.Event{Kind: obs.RunStart, Stage: e.stage, Refs: e.total})
	return time.Now()
}

// runEnd emits the RunEnd event.
func (e *engineSink) runEnd(n int, t0 time.Time) {
	if e.sink != nil {
		e.sink.Emit(obs.Event{Kind: obs.RunEnd, Stage: e.stage, Refs: int64(n), Elapsed: time.Since(t0)})
	}
}

// progress emits a RunProgress event. Callers check the sink and the
// interval inline, so the hot path never makes the call.
func (e *engineSink) progress(n int) {
	e.sink.Emit(obs.Event{Kind: obs.RunProgress, Stage: e.stage, Refs: int64(n)})
}
