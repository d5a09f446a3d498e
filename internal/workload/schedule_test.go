package workload

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cacheeval/internal/trace"
)

// scheduleMix builds a mix of small PLO-like members with the given lengths
// and distinct seeds, so every member's stream is its own.
func scheduleMix(quantum int, lens ...int) Mix {
	base := mustSpec("PLO")
	specs := make([]Spec, len(lens))
	for i, n := range lens {
		specs[i] = base
		specs[i].Refs = n
		specs[i].Seed = uint64(i+1) * 7919
	}
	return Mix{Name: "schedule", Specs: specs, Quantum: quantum}
}

// memberStreams returns each member's standalone stream, rebased as a
// multi-program mix rebases it.
func memberStreams(t testing.TB, m Mix) [][]trace.Ref {
	t.Helper()
	out := make([][]trace.Ref, len(m.Specs))
	for i, s := range m.Specs {
		rd, err := s.Open()
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Specs) > 1 {
			rd = trace.Rebase(rd, uint64(i+1)<<33)
		}
		if out[i], err = trace.Collect(rd, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// naiveRoundRobin interleaves members the obvious way: cycle over the live
// members, take up to a quantum from each, drop a member the moment it runs
// dry, and stop after limit references when limit > 0.
func naiveRoundRobin(members [][]trace.Ref, quantum, limit int) []trace.Ref {
	if quantum < 1 {
		quantum = 1
	}
	var live []int
	for i, m := range members {
		if len(m) > 0 {
			live = append(live, i)
		}
	}
	pos := make([]int, len(members))
	out := []trace.Ref{}
	for cur := 0; len(live) > 0; {
		i := live[cur]
		for k := 0; k < quantum && pos[i] < len(members[i]); k++ {
			out = append(out, members[i][pos[i]])
			pos[i]++
		}
		if pos[i] == len(members[i]) {
			live = append(live[:cur], live[cur+1:]...)
			if cur == len(live) {
				cur = 0
			}
		} else {
			cur = (cur + 1) % len(live)
		}
	}
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}

// checkSchedule compares Collect at every worker count against the naive
// round robin.
func checkSchedule(t *testing.T, m Mix, members [][]trace.Ref, limit int, workers ...int) []trace.Ref {
	t.Helper()
	want := naiveRoundRobin(members, m.Quantum, limit)
	for _, w := range workers {
		got, err := m.Collect(context.Background(), w, limit)
		if err != nil {
			t.Fatalf("workers=%d limit=%d: %v", w, limit, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d limit=%d: %d refs, want %d", w, limit, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("workers=%d limit=%d: ref %d = %+v, want %+v", w, limit, k, got[k], want[k])
			}
		}
	}
	return want
}

// TestMixSchedule pins the rotation rule: turns of min(quantum, left) in
// member order, an exhausted member dropping out, at every worker count
// and under total caps that cut the schedule mid-turn.
func TestMixSchedule(t *testing.T) {
	cases := []struct {
		name    string
		quantum int
		lens    []int
		// tags, when set, is the member (1-based) of every reference of
		// the full stream.
		tags []uint64
	}{
		{"round_robin", 2, []int{4, 4}, []uint64{1, 1, 2, 2, 1, 1, 2, 2}},
		{"member_drops_mid_quantum", 2, []int{3, 6}, []uint64{1, 1, 2, 2, 1, 2, 2, 2, 2}},
		{"exact_multiples", 2, []int{4, 6, 2}, []uint64{1, 1, 2, 2, 3, 3, 1, 1, 2, 2, 2, 2}},
		{"uneven_lengths", 7, []int{13, 29, 5}, nil},
		{"one_source", 2, []int{5}, nil},
		{"empty_member", 2, []int{0, 3, 0, 2}, []uint64{2, 2, 4, 4, 2}},
		{"quantum_clamp", 0, []int{3, 2}, []uint64{1, 2, 1, 2, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := scheduleMix(tc.quantum, tc.lens...)
			members := memberStreams(t, m)
			full := checkSchedule(t, m, members, 0, 1, 2, 3, 4)
			total := 0
			for _, n := range tc.lens {
				total += n
			}
			if len(full) != total {
				t.Fatalf("stream = %d refs, want every member's %d", len(full), total)
			}
			if tc.tags != nil {
				for k, r := range full {
					if r.Addr>>33 != tc.tags[k] {
						t.Fatalf("ref %d from member %d, want %d", k, r.Addr>>33, tc.tags[k])
					}
				}
			}
			if len(tc.lens) == 1 {
				// One source runs unrebased and unbroken.
				for k, r := range full {
					if r != members[0][k] {
						t.Fatalf("ref %d = %+v, want the trace's own %+v", k, r, members[0][k])
					}
				}
			}
			for limit := 1; limit < total; limit++ {
				checkSchedule(t, m, members, limit, 1, 3)
			}
		})
	}
}

// FuzzMixSchedule checks Collect against the naive round robin for random
// member lengths (zero, below, at and multiples of the quantum), quanta,
// worker counts and total caps.
func FuzzMixSchedule(f *testing.F) {
	f.Add([]byte{4, 4}, uint8(2), uint8(1), uint16(0))
	f.Add([]byte{3, 6}, uint8(2), uint8(2), uint16(5))
	f.Add([]byte{0, 20, 40, 7}, uint8(20), uint8(4), uint16(33))
	f.Add([]byte{13, 29, 5}, uint8(7), uint8(3), uint16(0))
	f.Add([]byte{9}, uint8(0), uint8(4), uint16(4))
	f.Add([]byte{0, 0}, uint8(1), uint8(2), uint16(0))
	f.Fuzz(func(t *testing.T, lens []byte, quantum, workers uint8, limit uint16) {
		if len(lens) == 0 || len(lens) > 6 {
			return
		}
		ns := make([]int, len(lens))
		for i, b := range lens {
			ns[i] = int(b)
		}
		m := scheduleMix(int(quantum%64), ns...)
		checkSchedule(t, m, memberStreams(t, m), int(limit%512), 1+int(workers%4))
	})
}

// pollCtx is a context whose Err starts failing after a number of polls,
// cancelling a fill deterministically mid-stream. It records the most
// goroutines alive at any poll.
type pollCtx struct {
	context.Context
	allowed int64
	polls   atomic.Int64

	mu   sync.Mutex
	peak int
}

func (c *pollCtx) Err() error {
	c.mu.Lock()
	c.peak = max(c.peak, runtime.NumGoroutine())
	c.mu.Unlock()
	if c.polls.Add(1) > c.allowed {
		return context.Canceled
	}
	return nil
}

// TestMixCollectCancel cancels a fill after a few polls: Collect must
// return context.Canceled, run the serial fill without starting a
// goroutine, and leave no worker goroutine behind.
func TestMixCollectCancel(t *testing.T) {
	m := scheduleMix(100, 2000, 2000, 2000, 2000, 2000)
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		ctx := &pollCtx{Context: context.Background(), allowed: 3}
		refs, err := m.Collect(ctx, workers, 0)
		if !errors.Is(err, context.Canceled) || refs != nil {
			t.Fatalf("workers=%d: %d refs, err %v; want context.Canceled", workers, len(refs), err)
		}
		if n := ctx.polls.Load(); n >= 100 {
			t.Errorf("workers=%d: %d polls, want the fill to stop soon after the cancel", workers, n)
		}
		if workers == 1 && ctx.peak != before {
			t.Errorf("serial fill ran with %d goroutines, want %d (none started)", ctx.peak, before)
		}
		if workers > 1 && ctx.peak <= before {
			t.Errorf("workers=%d: peak %d goroutines, want workers started", workers, ctx.peak)
		}
		// Collect waits for its workers; each exits right after its Done.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("workers=%d: goroutines leaked: before=%d now=%d\n%s",
					workers, before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(time.Millisecond)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Collect(ctx, 2, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err %v, want context.Canceled", err)
	}
}
