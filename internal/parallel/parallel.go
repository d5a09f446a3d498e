package parallel

import (
	"context"
	"fmt"

	"cacheeval/internal/cache"
	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
)

// DefaultMinSegmentRefs is the smallest stream slice worth a dedicated
// segment: below this, goroutine startup and boundary reconciliation cost
// more than the simulation they save.
const DefaultMinSegmentRefs = 1 << 16

// defaultCheckEvery is how many lockstep references reconciliation
// simulates between state-equality checks. Convergence is sticky — from
// equal states, identical references keep the states equal — so a coarse
// cadence only delays detection, never misses it.
const defaultCheckEvery = 4096

// Replica is one independent simulation instance of the sweep target. The
// driver feeds it references and trace-clock purges; Results must be a
// non-destructive as-if-finished snapshot (the engine reads it mid-chain
// and keeps feeding references), and StateEqual must compare the logical
// cache state that determines future behaviour (cache.StateEqual and
// friends). Replicas produced by one factory must be comparable.
type Replica interface {
	Ref(trace.Ref)
	Purge()
	Purges() uint64
	Results() []cache.SizeResult
	StateEqual(other Replica) bool
}

// Options tune a time-parallel run.
type Options struct {
	// Workers caps the number of segments simulated concurrently,
	// including the calling goroutine. Values below 2 disable the engine.
	Workers int
	// Budget is the shared worker pool segment goroutines draw from; nil
	// gives the run a private budget of Workers. Slots are acquired
	// non-blockingly at run start, so a saturated shared budget degrades
	// the run to the serial path instead of oversubscribing.
	Budget *Budget
	// Quantum is the task-switch purge interval on the trace clock, as in
	// cache.SystemConfig.PurgeInterval; the driver schedules the purges
	// (replicas must not self-purge). When the stream contains purge
	// points, segments are cut exactly there: a purge empties every cache,
	// so the speculative start state is the true one and no reconciliation
	// is needed. Zero (or a quantum longer than the stream) switches to
	// speculative cold-start segments with boundary reconciliation.
	Quantum int
	// MinSegmentRefs is the minimum references per segment;
	// zero means DefaultMinSegmentRefs.
	MinSegmentRefs int
	// CheckEvery is the reconciliation state-comparison cadence in
	// references; zero means defaultCheckEvery.
	CheckEvery int
	// StackState marks replicas whose state cannot converge from a cold
	// start (the Mattson stack engines never evict, so a speculative stack
	// is missing the pre-segment lines until a purge). Such targets run
	// parallel only on purge-aligned plans.
	StackState bool
	// Stage labels the run's tracing spans.
	Stage string
}

// Boundary reports the reconciliation of one segment boundary.
type Boundary struct {
	// Seg is the index of the segment the boundary opens (1-based).
	Seg int
	// Start is the boundary's global reference index.
	Start int
	// Converged reports that the speculative state provably reached the
	// true state before the segment ended. Purge-aligned boundaries
	// converge by construction at distance 0.
	Converged bool
	// Distance is how many references were re-simulated from the true
	// state before convergence — the whole segment when Converged is
	// false (the serial-splice fallback).
	Distance int
}

// Result is the outcome of a time-parallel run.
type Result struct {
	// Results are the spliced per-size totals, bit-identical to a serial
	// pass over the same stream.
	Results []cache.SizeResult
	// Purges is the trace-clock purge count, identical to the serial
	// engines' schedule.
	Purges uint64
	// Segments is the number of concurrently simulated segments.
	Segments int
	// Aligned reports a purge-aligned plan (no speculation).
	Aligned bool
	// Boundaries has one entry per segment boundary (Segments-1).
	Boundaries []Boundary
	// SerialReason is non-empty when the run did not parallelize — the
	// caller should run the stream through a serial engine instead; no
	// simulation has happened.
	SerialReason string
}

// Run simulates refs over replicas from factory, splitting the stream into
// up to o.Workers segments. On success Result.Results is bit-identical to
// feeding one replica the whole stream serially (with the same trace-clock
// purge schedule). When no sound or worthwhile parallel plan exists, Run
// does no simulation and sets Result.SerialReason.
//
// progress, when non-nil, receives reference-count deltas from every
// segment goroutine (reconciliation re-simulation included) and must be
// safe for concurrent use.
func Run(ctx context.Context, refs []trace.Ref, factory func() (Replica, error), o Options, progress func(delta int64)) (Result, error) {
	total := len(refs)
	minSeg := o.MinSegmentRefs
	if minSeg <= 0 {
		minSeg = DefaultMinSegmentRefs
	}
	checkEvery := o.CheckEvery
	if checkEvery <= 0 {
		checkEvery = defaultCheckEvery
	}

	maxP := o.Workers
	if byLen := total / minSeg; maxP > byLen {
		maxP = byLen
	}
	aligned := false
	if o.Quantum > 0 && total > 0 {
		points := (total - 1) / o.Quantum // purges at q, 2q, ... before ref i<total
		if points == 0 {
			// The stream fits inside one purge epoch: no purge points exist,
			// so the run behaves exactly like an unpurged one.
			if o.StackState {
				return Result{SerialReason: "stack-simulation state cannot converge without purge boundaries"}, nil
			}
		} else {
			aligned = true
			if maxP > points+1 {
				maxP = points + 1 // one segment per purge epoch at most
			}
		}
	} else if o.StackState {
		return Result{SerialReason: "stack-simulation state cannot converge without purge boundaries"}, nil
	}
	if o.Workers < 2 {
		return Result{SerialReason: "fewer than two workers"}, nil
	}
	if maxP < 2 {
		return Result{SerialReason: fmt.Sprintf("stream too short to segment (%d refs, min segment %d)", total, minSeg)}, nil
	}

	budget := o.Budget
	if budget == nil {
		budget = NewBudget(o.Workers)
	}
	extra := 0
	for extra < maxP-1 && budget.TryAcquire() {
		extra++
	}
	if extra == 0 {
		return Result{SerialReason: "no spare worker budget"}, nil
	}

	quantum := 0
	if aligned {
		quantum = o.Quantum
	}
	bounds := segmentBounds(total, extra+1, quantum)
	p := len(bounds) - 1
	// Boundary snapping can merge segments; return surplus slots.
	for extra > p-1 {
		budget.Release()
		extra--
	}
	if p < 2 {
		// Snapping collapsed the plan entirely (clustered purge points).
		return Result{SerialReason: "purge points too clustered to segment"}, nil
	}

	// Phase 1: simulate every segment concurrently. Segment 0 runs from
	// the true initial state; under an aligned plan the others start from
	// their boundary's post-purge (empty) state, which is already true;
	// otherwise they start cold and speculate.
	reps := make([]Replica, p)
	errs := make([]error, p)
	run := func(k int) {
		rep, err := factory()
		if err != nil {
			errs[k] = err
			return
		}
		reps[k] = rep
		errs[k] = feedSegment(ctx, rep, refs, bounds[k], bounds[k+1], quantum, progress)
	}
	done := make(chan int, extra)
	for k := 1; k <= extra; k++ {
		go func(k int) {
			defer func() { budget.Release(); done <- k }()
			run(k)
		}(k)
	}
	run(0)
	for i := 0; i < extra; i++ {
		<-done
	}
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}

	res := Result{Segments: p, Aligned: aligned}
	if aligned {
		// Exact by construction: every segment started from known state and
		// charged its own trailing boundary purge, so the per-segment
		// snapshots partition the serial run's events.
		res.Results = cloneResults(reps[0].Results())
		res.Purges = reps[0].Purges()
		for k := 1; k < p; k++ {
			addResults(res.Results, reps[k].Results())
			res.Purges += reps[k].Purges()
			res.Boundaries = append(res.Boundaries, Boundary{Seg: k, Start: bounds[k], Converged: true})
		}
		return res, nil
	}

	// Phase 2: speculative reconciliation. A carries the true state across
	// the chain. For each boundary, re-simulate the segment from the true
	// state (advancing A) in lockstep with a cold replay B' of the
	// speculative run until the states provably converge at step t; then
	// the true segment delta is
	//
	//	[F_A(t) - F_A(start)] + [F_B(end) - F_B'(t)]
	//
	// where F is the as-if-finished snapshot: past t, the speculative
	// replica saw exactly the references the true run would have seen from
	// an identical state, so its remaining deltas are the true ones.
	// Without convergence, A has re-simulated the whole segment and its
	// own delta splices in — the serial-splice fallback.
	res.Results = cloneResults(reps[0].Results())
	truth := reps[0]
	for k := 1; k < p; k++ {
		start, end := bounds[k], bounds[k+1]
		sp := obs.StartSpan(ctx, fmt.Sprintf("%s:parallel:boundary%d", o.Stage, k))
		aStart := truth.Results()
		cold, err := factory()
		if err != nil {
			sp.End()
			return Result{}, err
		}
		conv := -1
		t := 0
		pending := int64(0)
		for i := start; i < end; i++ {
			truth.Ref(refs[i])
			cold.Ref(refs[i])
			t++
			pending += 2
			if t%checkEvery == 0 {
				if err := ctx.Err(); err != nil {
					sp.End()
					return Result{}, err
				}
				if progress != nil {
					progress(pending)
					pending = 0
				}
				if truth.StateEqual(cold) {
					conv = t
					break
				}
			}
		}
		if conv < 0 && truth.StateEqual(cold) {
			conv = t // converged exactly at (or after) the last check
		}
		if progress != nil && pending > 0 {
			progress(pending)
		}
		b := Boundary{Seg: k, Start: start, Converged: conv >= 0, Distance: t}
		if conv >= 0 {
			delta := truth.Results()
			subResults(delta, aStart)
			tail := cloneResults(reps[k].Results())
			subResults(tail, cold.Results())
			addResults(delta, tail)
			addResults(res.Results, delta)
			truth = reps[k] // the speculative end state is the true end state
		} else {
			// truth consumed the whole segment; its delta is exact as-is.
			delta := truth.Results()
			subResults(delta, aStart)
			addResults(res.Results, delta)
		}
		res.Boundaries = append(res.Boundaries, b)
		sp.AddRefs(int64(t))
		sp.End()
	}
	return res, nil
}

// feedSegment drives one replica over refs[start:end), replaying the
// serial purge schedule on the trace clock: a purge lands before global
// reference i when i is a positive multiple of quantum. The purge at the
// segment's own start (if any) was charged by the predecessor's trailing
// purge; the trailing purge at end belongs to this segment so its
// write-back traffic lands here and the successor starts post-purge.
func feedSegment(ctx context.Context, rep Replica, refs []trace.Ref, start, end, quantum int, progress func(int64)) error {
	const mask = obs.ProgressInterval - 1
	n := 0
	for i := start; i < end; i++ {
		if quantum > 0 && i > start && i%quantum == 0 {
			rep.Purge()
		}
		rep.Ref(refs[i])
		n++
		if n&mask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			if progress != nil {
				progress(obs.ProgressInterval)
			}
		}
	}
	if quantum > 0 && end < len(refs) && end%quantum == 0 {
		rep.Purge()
	}
	if progress != nil && n&mask != 0 {
		progress(int64(n & mask))
	}
	return nil
}

// segmentBounds cuts [0, total) into up to p contiguous segments. With a
// quantum, interior bounds snap to the nearest purge point (multiples of
// quantum), deduplicating when ideal cuts snap together; without one the
// cuts are even. The result always starts at 0 and ends at total.
func segmentBounds(total, p, quantum int) []int {
	bounds := make([]int, 1, p+1)
	for j := 1; j < p; j++ {
		b := total * j / p
		if quantum > 0 {
			b = (b + quantum/2) / quantum * quantum
		}
		if prev := bounds[len(bounds)-1]; b <= prev {
			b = prev + max(1, quantum)
		}
		if b >= total {
			break
		}
		bounds = append(bounds, b)
	}
	return append(bounds, total)
}

// cloneResults deep-copies a snapshot so splicing never aliases a
// replica's buffers.
func cloneResults(src []cache.SizeResult) []cache.SizeResult {
	dst := make([]cache.SizeResult, len(src))
	copy(dst, src)
	return dst
}

// addResults accumulates src into dst field-wise. Intermediate splice
// arithmetic intentionally wraps: a subtracted snapshot can transiently
// exceed an added one, but the spliced total is an exact count and lands
// back in range.
func addResults(dst, src []cache.SizeResult) {
	for i := range dst {
		d, s := &dst[i], &src[i]
		for k := 0; k < 3; k++ {
			d.Ref.Refs[k] += s.Ref.Refs[k]
			d.Ref.Misses[k] += s.Ref.Misses[k]
		}
		d.I.Add(s.I)
		d.D.Add(s.D)
		d.U.Add(s.U)
	}
}

// subResults subtracts src from dst field-wise (wrapping; see addResults).
func subResults(dst, src []cache.SizeResult) {
	for i := range dst {
		d, s := &dst[i], &src[i]
		for k := 0; k < 3; k++ {
			d.Ref.Refs[k] -= s.Ref.Refs[k]
			d.Ref.Misses[k] -= s.Ref.Misses[k]
		}
		d.I.Sub(s.I)
		d.D.Sub(s.D)
		d.U.Sub(s.U)
	}
}
