package obs

import (
	"log/slog"
	"math"
	"sync"
	"time"
)

// Event type names emitted by EventStream. The jobs layer forwards them
// verbatim as the "type" field of its NDJSON stream, so they are part of
// the public API surface (documented in README "Jobs and live progress").
const (
	EventRunStart         = "run_start"
	EventProgress         = "progress"
	EventRunEnd           = "run_end"
	EventSampledRound     = "sampled_round"
	EventSampledRun       = "sampled"
	EventParallelRun      = "parallel"
	EventParallelBoundary = "parallel_boundary"
	EventHierarchyRun     = "hierarchy"
	EventMissCauses       = "miss_causes"
)

// RunStartEvent is the payload of an EventRunStart event.
type RunStartEvent struct {
	Stage     string `json:"stage"`
	TotalRefs int64  `json:"total_refs,omitempty"`
}

// ProgressEvent is the payload of an EventProgress event: one throttled
// engine progress tick.
type ProgressEvent struct {
	Stage      string  `json:"stage"`
	Refs       int64   `json:"refs"`
	TotalRefs  int64   `json:"total_refs,omitempty"`
	RefsPerSec float64 `json:"refs_per_sec"`
}

// RunEndEvent is the payload of an EventRunEnd event.
type RunEndEvent struct {
	Stage      string  `json:"stage"`
	Refs       int64   `json:"refs"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	RefsPerSec float64 `json:"refs_per_sec"`
}

// SampledRoundEvent is the payload of an EventSampledRound event: one
// adaptive-controller round's achieved CI half-width against its budget.
// Achieved is rendered as -1 when the round was unusable (+Inf half-width:
// too few windows or misses), since JSON has no Inf.
type SampledRoundEvent struct {
	Stage    string  `json:"stage"`
	Round    int     `json:"round"`
	Achieved float64 `json:"achieved_rel_error"`
	Budget   float64 `json:"error_budget"`
	Fraction float64 `json:"sampled_fraction"`
}

// SampledRunEvent is the payload of an EventSampledRun event: a sampled
// pass's final verdict.
type SampledRunEvent struct {
	Stage       string  `json:"stage"`
	ErrorBudget float64 `json:"error_budget"`
	Achieved    float64 `json:"achieved_rel_error"`
	Fraction    float64 `json:"sampled_fraction"`
	Rounds      int     `json:"rounds"`
	FellBack    bool    `json:"fell_back"`
}

// ParallelRunEvent is the payload of an EventParallelRun event: a
// time-parallel pass's plan.
type ParallelRunEvent struct {
	Stage    string `json:"stage"`
	Segments int    `json:"segments"`
	Aligned  bool   `json:"aligned"`
	FellBack bool   `json:"fell_back"`
	Reason   string `json:"reason,omitempty"`
}

// ParallelBoundaryEvent is the payload of an EventParallelBoundary event:
// one reconciled segment boundary and its convergence distance.
type ParallelBoundaryEvent struct {
	Stage        string `json:"stage"`
	DistanceRefs int64  `json:"distance_refs"`
	Converged    bool   `json:"converged"`
}

// HierarchyRunEvent is the payload of an EventHierarchyRun event.
type HierarchyRunEvent struct {
	Stage         string `json:"stage"`
	L2Fetches     uint64 `json:"l2_fetches"`
	L2FetchMisses uint64 `json:"l2_fetch_misses"`
	L2Writes      uint64 `json:"l2_writes"`
	L2WriteMisses uint64 `json:"l2_write_misses"`
	VictimHits    uint64 `json:"victim_hits"`
}

// MissCausesEvent is the payload of an EventMissCauses event.
type MissCausesEvent struct {
	Stage      string `json:"stage"`
	Compulsory uint64 `json:"compulsory"`
	Capacity   uint64 `json:"capacity"`
	Conflict   uint64 `json:"conflict"`
}

// EventStream renders engine events as typed payloads for an event bus:
// every event becomes one OnEvent call with one of the payload structs
// above. Progress ticks are throttled per stage by MinProgressInterval;
// everything else passes through unthrottled.
//
// EventStream serves instrumented runs only — the uninstrumented hot path
// carries a nil sink and never reaches it — so it may allocate freely.
// Events arrive from whatever goroutines run the engines; OnEvent must be
// safe for concurrent use (the jobs layer's publish is).
//
// RequestID and Logger carry the originating request's identity into
// engine-originated log lines: events have no context, so without them
// every line logged from inside an engine goroutine would lose the
// X-Request-ID the access log is keyed by.
type EventStream struct {
	// OnEvent receives every rendered event; nil drops them.
	OnEvent func(typ string, data any)
	// RequestID is the originating request's ID, stamped onto log lines.
	RequestID string
	// Logger, when non-nil, receives engine run start/end lines. Pass the
	// request-scoped logger so the lines correlate with the access log.
	Logger *slog.Logger
	// MinProgressInterval throttles ProgressEvent emission per stage; the
	// zero value emits every engine tick (every ProgressInterval refs).
	MinProgressInterval time.Duration

	mu     sync.Mutex
	stages map[string]*eventStage
}

type eventStage struct {
	start    time.Time
	total    int64
	lastEmit time.Time
}

// Event renders one engine event.
func (p *EventStream) Event(e Event) {
	var typ string
	var data any
	switch e.Kind {
	case RunStart:
		now := time.Now()
		p.mu.Lock()
		if p.stages == nil {
			p.stages = make(map[string]*eventStage)
		}
		p.stages[e.Stage] = &eventStage{start: now, total: e.Refs, lastEmit: now}
		p.mu.Unlock()
		typ, data = EventRunStart, RunStartEvent{Stage: e.Stage, TotalRefs: e.Refs}
		if p.Logger != nil {
			p.Logger.Info("engine: run start",
				"stage", e.Stage, "total_refs", e.Refs, "request_id", p.RequestID)
		}
	case RunProgress:
		now := time.Now()
		p.mu.Lock()
		st := p.stages[e.Stage]
		if st == nil || now.Sub(st.lastEmit) < p.MinProgressInterval {
			p.mu.Unlock()
			return
		}
		st.lastEmit = now
		typ, data = EventProgress, ProgressEvent{
			Stage: e.Stage, Refs: e.Refs, TotalRefs: st.total,
			RefsPerSec: refsPerSec(e.Refs, now.Sub(st.start)),
		}
		p.mu.Unlock()
	case RunEnd:
		p.mu.Lock()
		delete(p.stages, e.Stage)
		p.mu.Unlock()
		elapsedMS := float64(e.Elapsed) / float64(time.Millisecond)
		typ, data = EventRunEnd, RunEndEvent{
			Stage: e.Stage, Refs: e.Refs, ElapsedMS: elapsedMS,
			RefsPerSec: refsPerSec(e.Refs, e.Elapsed),
		}
		if p.Logger != nil {
			p.Logger.Info("engine: run end",
				"stage", e.Stage, "refs", e.Refs, "elapsed_ms", elapsedMS,
				"request_id", p.RequestID)
		}
	case MissCauses:
		typ, data = EventMissCauses, MissCausesEvent{
			Stage: e.Stage, Compulsory: e.Compulsory, Capacity: e.Capacity, Conflict: e.Conflict,
		}
	case HierarchyRun:
		typ, data = EventHierarchyRun, HierarchyRunEvent{
			Stage: e.Stage, L2Fetches: e.L2Fetches, L2FetchMisses: e.L2FetchMisses,
			L2Writes: e.L2Writes, L2WriteMisses: e.L2WriteMisses, VictimHits: e.VictimHits,
		}
	case SampledRound:
		ev := SampledRoundEvent{
			Stage: e.Stage, Round: e.Round, Achieved: e.Achieved,
			Budget: e.Budget, Fraction: e.Fraction,
		}
		if math.IsInf(ev.Achieved, 1) { // unusable round: JSON has no Inf
			ev.Achieved = -1
		}
		typ, data = EventSampledRound, ev
	case SampledRun:
		typ, data = EventSampledRun, SampledRunEvent{
			Stage: e.Stage, ErrorBudget: e.Budget, Achieved: e.Achieved,
			Fraction: e.Fraction, Rounds: e.Round, FellBack: e.FellBack,
		}
	case ParallelRun:
		typ, data = EventParallelRun, ParallelRunEvent{
			Stage: e.Stage, Segments: e.Segments, Aligned: e.Aligned,
			FellBack: e.FellBack, Reason: e.Reason,
		}
	case ParallelBoundary:
		typ, data = EventParallelBoundary, ParallelBoundaryEvent{
			Stage: e.Stage, DistanceRefs: e.Refs, Converged: e.Converged,
		}
	default:
		return
	}
	if p.OnEvent != nil {
		p.OnEvent(typ, data)
	}
}
