package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLoggerContext(t *testing.T) {
	ctx := context.Background()
	if Logger(ctx) == nil {
		t.Fatal("Logger on bare context returned nil")
	}
	// The default must be silent and must not panic.
	Logger(ctx).Info("dropped")

	var buf bytes.Buffer
	l := slog.New(slog.NewTextHandler(&buf, nil))
	ctx = WithLogger(ctx, l)
	Logger(ctx).Info("hello", "k", "v")
	if !strings.Contains(buf.String(), "hello") {
		t.Errorf("installed logger not used: %q", buf.String())
	}
	if Logger(WithLogger(context.Background(), nil)) == nil {
		t.Error("nil installed logger must fall back to the discard logger")
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := context.Background()
	if got := RequestID(ctx); got != "" {
		t.Errorf("RequestID on bare context = %q", got)
	}
	ctx = WithRequestID(ctx, "abc-123")
	if got := RequestID(ctx); got != "abc-123" {
		t.Errorf("RequestID = %q", got)
	}
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Errorf("NewRequestID: %q, %q", a, b)
	}
	for id, want := range map[string]bool{
		"abc-123": true, "A_b.9": true, strings.Repeat("x", 64): true,
		"": false, strings.Repeat("x", 65): false,
		"has space": false, "new\nline": false, "héllo": false,
	} {
		if got := ValidRequestID(id); got != want {
			t.Errorf("ValidRequestID(%q) = %v, want %v", id, got, want)
		}
	}
}

func TestTraceSpans(t *testing.T) {
	ctx, tr := NewTrace(context.Background())
	if TraceFrom(ctx) != tr {
		t.Fatal("TraceFrom lost the trace")
	}
	sp := StartSpan(ctx, "stage-a")
	sp.AddRefs(1000)
	sp.End()
	sp.End() // idempotent
	StartSpan(ctx, "stage-b").End()

	sum := tr.Summary()
	if len(sum) != 2 {
		t.Fatalf("summary has %d spans, want 2", len(sum))
	}
	if sum[0].Name != "stage-a" || sum[1].Name != "stage-b" {
		t.Errorf("span order: %+v", sum)
	}
	if sum[0].Refs != 1000 || sum[0].RefsPerSec <= 0 {
		t.Errorf("stage-a refs accounting: %+v", sum[0])
	}
	if sum[0].DurationMS < 0 || sum[0].StartMS < 0 {
		t.Errorf("negative timing: %+v", sum[0])
	}
}

func TestNilTraceIsNoop(t *testing.T) {
	// No trace installed: spans must be free and safe.
	sp := StartSpan(context.Background(), "x")
	sp.AddRefs(5)
	sp.End()
	var tr *Trace
	if got := tr.Summary(); got != nil {
		t.Errorf("nil trace summary = %v", got)
	}
	tr.StartSpan("y").End()
}

func TestTraceConcurrentSpans(t *testing.T) {
	_, tr := NewTrace(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := tr.StartSpan("worker")
			sp.AddRefs(1)
			sp.End()
		}()
	}
	wg.Wait()
	if got := len(tr.Summary()); got != 16 {
		t.Fatalf("got %d spans, want 16", got)
	}
}

func TestProgressProbe(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgressPrinter(&buf)
	p.MinInterval = 0 // print every event
	p.Event(Event{Kind: RunStart, Stage: "stage", Refs: 200000})
	p.Event(Event{Kind: RunProgress, Stage: "stage", Refs: 100000})
	p.Event(Event{Kind: RunEnd, Stage: "stage", Refs: 200000, Elapsed: 50 * time.Millisecond})
	out := buf.String()
	if !strings.Contains(out, "ETA") {
		t.Errorf("progress line missing ETA: %q", out)
	}
	if !strings.Contains(out, "refs/s") || !strings.Contains(out, "200K refs in") {
		t.Errorf("completion line malformed: %q", out)
	}
	// Unknown stage progress and zero-duration end must not panic.
	p.Event(Event{Kind: RunProgress, Stage: "never-started", Refs: 1})
	p.Event(Event{Kind: RunEnd, Stage: "never-started", Refs: 1})
}

func TestProbeContext(t *testing.T) {
	if SinkFrom(context.Background()) != nil {
		t.Fatal("sink on bare context")
	}
	var got []Kind
	ctx := WithSink(context.Background(), &Sink{Emit: func(e Event) { got = append(got, e.Kind) }})
	s := SinkFrom(ctx)
	if s == nil {
		t.Fatal("sink lost")
	}
	s.Emit(Event{Kind: RunStart, Stage: "s"})
	s.Emit(Event{Kind: RunProgress, Stage: "s", Refs: 1})
	s.Emit(Event{Kind: RunEnd, Stage: "s", Refs: 1, Elapsed: time.Second})
	if len(got) != 3 || got[0] != RunStart || got[2] != RunEnd {
		t.Fatalf("sink from context saw %v", got)
	}
}
