package obs

import (
	"bytes"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// recorder captures OnEvent calls.
type recorder struct {
	mu     sync.Mutex
	types  []string
	datas  []any
	byType map[string][]any
}

func newRecorder() *recorder { return &recorder{byType: make(map[string][]any)} }

func (r *recorder) on(typ string, data any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.types = append(r.types, typ)
	r.datas = append(r.datas, data)
	r.byType[typ] = append(r.byType[typ], data)
}

// countingProbe counts the raw events a second consumer sharing the sink
// receives, for the lifecycle and the two kinds it cares about.
type countingProbe struct {
	starts, progresses, ends, causes, rounds int
}

func (c *countingProbe) event(e Event) {
	switch e.Kind {
	case RunStart:
		c.starts++
	case RunProgress:
		c.progresses++
	case RunEnd:
		c.ends++
	case MissCauses:
		c.causes++
	case SampledRound:
		c.rounds++
	}
}

// fanout is the sink the server builds for a job: every event reaches the
// stream and then a second consumer.
func fanout(p *EventStream, next *countingProbe) *Sink {
	return &Sink{Emit: func(e Event) { p.Event(e); next.event(e) }}
}

func TestEventProbeLifecycle(t *testing.T) {
	rec := newRecorder()
	next := &countingProbe{}
	sink := fanout(&EventStream{OnEvent: rec.on}, next)

	sink.Emit(Event{Kind: RunStart, Stage: "simulate:x", Refs: 1000})
	sink.Emit(Event{Kind: RunProgress, Stage: "simulate:x", Refs: 500})
	sink.Emit(Event{Kind: RunEnd, Stage: "simulate:x", Refs: 1000, Elapsed: 2 * time.Second})

	if got := rec.types; len(got) != 3 ||
		got[0] != EventRunStart || got[1] != EventProgress || got[2] != EventRunEnd {
		t.Fatalf("event sequence = %v", rec.types)
	}
	start := rec.datas[0].(RunStartEvent)
	if start.Stage != "simulate:x" || start.TotalRefs != 1000 {
		t.Fatalf("run_start payload = %+v", start)
	}
	prog := rec.datas[1].(ProgressEvent)
	if prog.Refs != 500 || prog.TotalRefs != 1000 || prog.RefsPerSec < 0 {
		t.Fatalf("progress payload = %+v", prog)
	}
	end := rec.datas[2].(RunEndEvent)
	if end.Refs != 1000 || end.ElapsedMS != 2000 || end.RefsPerSec != 500 {
		t.Fatalf("run_end payload = %+v", end)
	}
	if next.starts != 1 || next.progresses != 1 || next.ends != 1 {
		t.Fatalf("next consumer saw %d/%d/%d events, want 1/1/1",
			next.starts, next.progresses, next.ends)
	}
}

func TestEventProbeProgressThrottle(t *testing.T) {
	rec := newRecorder()
	p := &EventStream{OnEvent: rec.on, MinProgressInterval: time.Hour}
	p.Event(Event{Kind: RunStart, Stage: "s"})
	for i := 0; i < 100; i++ {
		p.Event(Event{Kind: RunProgress, Stage: "s", Refs: int64(i)})
	}
	// lastEmit is primed at RunStart, so an hour-long throttle emits nothing.
	if n := len(rec.byType[EventProgress]); n != 0 {
		t.Fatalf("throttled stream emitted %d progress events, want 0", n)
	}
	// Zero interval emits every callback.
	rec2 := newRecorder()
	p2 := &EventStream{OnEvent: rec2.on}
	p2.Event(Event{Kind: RunStart, Stage: "s"})
	for i := 0; i < 5; i++ {
		p2.Event(Event{Kind: RunProgress, Stage: "s", Refs: int64(i)})
	}
	if n := len(rec2.byType[EventProgress]); n != 5 {
		t.Fatalf("unthrottled stream emitted %d progress events, want 5", n)
	}
	// An unknown stage (RunProgress without RunStart) emits nothing rather
	// than panicking.
	p2.Event(Event{Kind: RunProgress, Stage: "never-started", Refs: 1})
}

func TestEventProbeExtensions(t *testing.T) {
	rec := newRecorder()
	next := &countingProbe{}
	sink := fanout(&EventStream{OnEvent: rec.on}, next)

	sink.Emit(Event{Kind: MissCauses, Stage: "s", Compulsory: 1, Capacity: 2, Conflict: 3})
	sink.Emit(Event{Kind: SampledRound, Stage: "s", Round: 2, Achieved: 0.04, Budget: 0.05, Fraction: 0.3})
	sink.Emit(Event{Kind: SampledRound, Stage: "s", Achieved: math.Inf(1), Budget: 0.05, Fraction: 0.1})
	sink.Emit(Event{Kind: SampledRun, Stage: "s", Budget: 0.05, Achieved: 0.04, Fraction: 0.3, Round: 3})
	sink.Emit(Event{Kind: ParallelRun, Stage: "s", Segments: 4, Aligned: true})
	sink.Emit(Event{Kind: ParallelBoundary, Stage: "s", Refs: 128, Converged: true})
	sink.Emit(Event{Kind: HierarchyRun, Stage: "s", L2Fetches: 10, L2FetchMisses: 2,
		L2Writes: 5, L2WriteMisses: 1, VictimHits: 7})

	mc := rec.byType[EventMissCauses][0].(MissCausesEvent)
	if mc.Compulsory != 1 || mc.Capacity != 2 || mc.Conflict != 3 {
		t.Fatalf("miss_causes payload = %+v", mc)
	}
	r0 := rec.byType[EventSampledRound][0].(SampledRoundEvent)
	if r0.Round != 2 || r0.Achieved != 0.04 || r0.Budget != 0.05 {
		t.Fatalf("sampled_round payload = %+v", r0)
	}
	// +Inf achieved (unusable round) is rendered as -1 for JSON.
	r1 := rec.byType[EventSampledRound][1].(SampledRoundEvent)
	if r1.Achieved != -1 {
		t.Fatalf("infinite achieved rendered as %v, want -1", r1.Achieved)
	}
	if len(rec.byType[EventSampledRun]) != 1 || len(rec.byType[EventParallelRun]) != 1 ||
		len(rec.byType[EventParallelBoundary]) != 1 || len(rec.byType[EventHierarchyRun]) != 1 {
		t.Fatalf("extension events missing: %v", rec.types)
	}
	// The second consumer sees the raw events, +Inf included, and counts
	// the kinds it cares about.
	if next.causes != 1 || next.rounds != 2 {
		t.Fatalf("next saw %d causes and %d rounds, want 1 and 2", next.causes, next.rounds)
	}
}

func TestEventProbeLogsCarryRequestID(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	p := &EventStream{RequestID: "req-abc123", Logger: logger}
	p.Event(Event{Kind: RunStart, Stage: "simulate:y", Refs: 10})
	p.Event(Event{Kind: RunEnd, Stage: "simulate:y", Refs: 10, Elapsed: time.Millisecond})
	out := buf.String()
	if strings.Count(out, `"request_id":"req-abc123"`) != 2 {
		t.Fatalf("log lines missing request_id:\n%s", out)
	}
	if !strings.Contains(out, "engine: run start") || !strings.Contains(out, "engine: run end") {
		t.Fatalf("log lines missing lifecycle messages:\n%s", out)
	}
}

func TestEventProbeNilOnEvent(t *testing.T) {
	next := &countingProbe{}
	sink := fanout(&EventStream{}, next) // no OnEvent: the other consumer still sees everything
	sink.Emit(Event{Kind: RunStart, Stage: "s", Refs: 1})
	sink.Emit(Event{Kind: RunProgress, Stage: "s", Refs: 1})
	sink.Emit(Event{Kind: RunEnd, Stage: "s", Refs: 1, Elapsed: time.Millisecond})
	if next.starts != 1 || next.progresses != 1 || next.ends != 1 {
		t.Fatalf("nil OnEvent dropped the other consumer's events: %+v", next)
	}
}

func TestEventProbeConcurrentStages(t *testing.T) {
	rec := newRecorder()
	p := &EventStream{OnEvent: rec.on}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stage := "simulate:" + string(rune('a'+g))
			p.Event(Event{Kind: RunStart, Stage: stage, Refs: 100})
			for i := 0; i < 50; i++ {
				p.Event(Event{Kind: RunProgress, Stage: stage, Refs: int64(i)})
			}
			p.Event(Event{Kind: RunEnd, Stage: stage, Refs: 100, Elapsed: time.Millisecond})
		}(g)
	}
	wg.Wait()
	if n := len(rec.byType[EventRunStart]); n != 8 {
		t.Fatalf("got %d run_start events, want 8", n)
	}
	if n := len(rec.byType[EventRunEnd]); n != 8 {
		t.Fatalf("got %d run_end events, want 8", n)
	}
}
