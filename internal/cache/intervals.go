package cache

import (
	"context"
	"errors"

	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
)

// Interval twins: the loop behind the per-size and hierarchy sweeps.
//
// A task-switch purge empties every cache, so each purge interval starts
// cold, and most of a sweep's large caches spend every interval filling
// without ever evicting. A fully associative L1 that does not evict during
// an interval holds every line the interval touched, under every
// replacement policy: ARC's ghost lists stay empty, Random draws nothing,
// and no policy's victim choice is ever consulted. A larger fully
// associative L1 with the same policies starts that interval empty as well,
// so it takes the same hits, misses, fetches and pushes in the same order;
// its counters advance by the same delta, and it sends its L2 the same
// events in the same order, except under SegmentedLRU, whose purge
// write-back order follows the protected segment and so the cache size.
//
// RunSystems and RunHierarchies exploit this. They run the sizes one after
// another, cut the stream at the purges, and record the intervals in which
// each size never evicted together with what those intervals added to its
// counters. The next size credits those deltas instead of simulating the
// intervals, and passes the record on. See DESIGN.md §6.

// twinCounts is everything a run of purge intervals adds to a System's or
// a Hierarchy's counters.
type twinCounts struct {
	l1       [2]Stats // the unified cache, or the instruction and data caches
	refs     RefStats
	refBytes uint64
	purges   uint64
	ev       HierStats
	l2       Stats
}

// add accumulates o into c.
func (c *twinCounts) add(o twinCounts) {
	for i := range c.l1 {
		c.l1[i].Add(o.l1[i])
	}
	for k := range c.refs.Refs {
		c.refs.Refs[k] += o.refs.Refs[k]
		c.refs.Misses[k] += o.refs.Misses[k]
	}
	c.refBytes += o.refBytes
	c.purges += o.purges
	c.ev.Fetches += o.ev.Fetches
	c.ev.FetchMisses += o.ev.FetchMisses
	c.ev.Writes += o.ev.Writes
	c.ev.WriteMisses += o.ev.WriteMisses
	c.l2.Add(o.l2)
}

// sub removes o, an earlier snapshot of the same counters, from c.
func (c *twinCounts) sub(o twinCounts) {
	for i := range c.l1 {
		c.l1[i].Sub(o.l1[i])
	}
	for k := range c.refs.Refs {
		c.refs.Refs[k] -= o.refs.Refs[k]
		c.refs.Misses[k] -= o.refs.Misses[k]
	}
	c.refBytes -= o.refBytes
	c.purges -= o.purges
	c.ev.Fetches -= o.ev.Fetches
	c.ev.FetchMisses -= o.ev.FetchMisses
	c.ev.Writes -= o.ev.Writes
	c.ev.WriteMisses -= o.ev.WriteMisses
	c.l2.Sub(o.l2)
}

// evicted reports whether an L1 cache replaced a line during the counted
// references: a push that no purge caused, or a fill of the victim buffer.
func (c *twinCounts) evicted() bool {
	for _, s := range c.l1 {
		if s.Pushes != s.PurgePushes || s.VictimFills != 0 {
			return true
		}
	}
	return false
}

// cleanSpan is a run of consecutive purge intervals, [first, end), in which
// an L1 never evicted, and what those intervals added to its counters,
// including the purge that ends each of them.
type cleanSpan struct {
	first, end int
	d          twinCounts
}

// intervalSim is what the interval loop drives: a System or a Hierarchy.
type intervalSim interface {
	events() *engineSink
	quantum() int
	// run processes refs with Ref. The loop purges between intervals
	// itself and resets the purge scheduler, so Ref never purges.
	run(refs []trace.Ref)
	Purge()
	counts() twinCounts
	setCounts(c twinCounts)
	// resume sets the purge scheduler to n references since the last purge.
	resume(n int)
	report()
}

// l1Caches returns the unified cache, or the instruction and data caches.
func (s *System) l1Caches() [2]*Cache {
	if s.cfg.Split {
		return [2]*Cache{s.icache, s.dcache}
	}
	return [2]*Cache{s.unified}
}

func (s *System) events() *engineSink { return &s.engineSink }
func (s *System) quantum() int        { return s.cfg.PurgeInterval }
func (s *System) resume(n int)        { s.sincePurge = n }

func (s *System) run(refs []trace.Ref) {
	for _, r := range refs {
		s.Ref(r)
	}
}

func (s *System) counts() twinCounts {
	c := twinCounts{refs: s.refs, refBytes: s.refBytes, purges: s.purges}
	for i, x := range s.l1Caches() {
		if x != nil {
			c.l1[i] = x.stats
		}
	}
	return c
}

func (s *System) setCounts(c twinCounts) {
	for i, x := range s.l1Caches() {
		if x != nil {
			x.stats = c.l1[i]
		}
	}
	s.refs, s.refBytes, s.purges = c.refs, c.refBytes, c.purges
}

func (h *Hierarchy) events() *engineSink { return &h.engineSink }
func (h *Hierarchy) quantum() int        { return h.cfg.L1.PurgeInterval }
func (h *Hierarchy) resume(n int)        { h.sincePurge = n }

func (h *Hierarchy) run(refs []trace.Ref) {
	for _, r := range refs {
		h.Ref(r)
	}
}

func (h *Hierarchy) counts() twinCounts {
	c := h.l1.counts()
	c.purges, c.ev, c.l2 = h.purges, h.ev, h.l2.stats
	return c
}

func (h *Hierarchy) setCounts(c twinCounts) {
	h.l1.setCounts(c)
	h.purges, h.ev, h.l2.stats = c.purges, c.ev, c.l2
}

// twinConfig reports whether a cache built from b takes every step that one
// built from a takes during an interval in which a never evicts: both fully
// associative, b at least as large, every other setting equal. The Random
// seed and the label do not matter: a cache that never evicts never draws.
func twinConfig(a, b Config) bool {
	if a.Sets() != 1 || b.Sets() != 1 || b.Size < a.Size {
		return false
	}
	a.Size, a.Assoc, a.Seed, a.Name = b.Size, b.Assoc, b.Seed, b.Name
	return a == b
}

// l1Twin reports whether b's L1 may credit the intervals a's L1 never
// evicted in: the same organization, twin configs cache by cache, and no 3C
// attribution on b (its first-reference set would miss the skipped units).
func l1Twin(a, b *System) bool {
	if a.cfg.Split != b.cfg.Split {
		return false
	}
	ac, bc := a.l1Caches(), b.l1Caches()
	for i := range ac {
		if ac[i] != nil && (!twinConfig(ac[i].cfg, bc[i].cfg) || bc[i].causes != nil) {
			return false
		}
	}
	return true
}

// RunSystems runs every system over refs, as System.Run would one after
// another, and skips every purge interval an earlier system provably
// shares: when systems[i-1] never evicted during an interval and
// systems[i] is its twin — fully associative caches of the same
// organization and policies, at least as large, with the same purge
// interval, no 3C attribution and no memory sink — systems[i] credits that
// interval's counter delta instead of simulating it. Pass the systems in
// ascending size to skip the most. Each system emits its usual RunStart,
// RunProgress, RunEnd and batched events.
//
// The systems must not have run before. Afterwards their counters (Stats,
// RefStats, RefBytes, Purges) are exactly System.Run's; a system that
// skipped the final interval does not hold that interval's lines. The
// context is checked before every interval and at every progress tick; on
// cancellation the running system closes its run and RunSystems returns
// the context's error.
func RunSystems(ctx context.Context, systems []*System, refs []trace.Ref) error {
	sims, twin := systemSims(systems)
	_, err := runTwins(ctx, sims, twin, refs)
	return err
}

// systemSims returns the systems as interval sims, and for each whether it
// may credit the clean intervals of the one before.
func systemSims(systems []*System) ([]intervalSim, []bool) {
	sims := make([]intervalSim, len(systems))
	twin := make([]bool, len(systems))
	for i, s := range systems {
		sims[i] = s
		if i == 0 {
			continue
		}
		twin[i] = l1Twin(systems[i-1], s)
		for _, c := range s.l1Caches() {
			if c != nil && c.sink != nil {
				twin[i] = false
			}
		}
	}
	return sims, twin
}

// RunHierarchies is RunSystems for two-level hierarchies: hs[i] skips the
// intervals hs[i-1]'s L1 never evicted in when the L1s are twins, the L2
// configs are equal, the L1 policy is not SegmentedLRU (its purge
// write-back order, which the L2 sees, depends on size) and the L2 policy
// is not Random (the L2 may evict, and its draws would go missing). An L2
// starts every interval empty, like its L1, so it sees the same events and
// takes the same delta. The same contract as RunSystems applies.
func RunHierarchies(ctx context.Context, hs []*Hierarchy, refs []trace.Ref) error {
	sims, twin := hierarchySims(hs)
	_, err := runTwins(ctx, sims, twin, refs)
	return err
}

// hierarchySims is systemSims for hierarchies.
func hierarchySims(hs []*Hierarchy) ([]intervalSim, []bool) {
	sims := make([]intervalSim, len(hs))
	twin := make([]bool, len(hs))
	for i, h := range hs {
		sims[i] = h
		if i == 0 {
			continue
		}
		p := hs[i-1]
		twin[i] = l1Twin(p.l1, h.l1) && p.cfg.L2 == h.cfg.L2 && h.cfg.L2.Repl != Random && h.l2.causes == nil
		for _, c := range h.l1.l1Caches() {
			if c != nil && c.cfg.Repl == SegmentedLRU {
				twin[i] = false
			}
		}
	}
	return sims, twin
}

// runTwins runs each sim over refs in turn; sims[i] skips the intervals
// sims[i-1] recorded as clean when twin[i] holds and the two share a purge
// interval. It returns how many intervals each sim skipped.
func runTwins(ctx context.Context, sims []intervalSim, twin []bool, refs []trace.Ref) ([]int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for _, sim := range sims {
		if sim.counts() != (twinCounts{}) {
			return nil, errors.New("cache: interval sweeps need systems that have not run")
		}
	}
	// The records cost a few hundred bytes a span; bounding their number
	// bounds their memory to a small fraction of the stream's. A span
	// dropped past the bound is simply simulated by the next size.
	maxSpans := len(refs)/256 + 16
	var skip, clean []cleanSpan
	skipped := make([]int, len(sims))
	for i, sim := range sims {
		if !twin[i] || sim.quantum() != sims[i-1].quantum() {
			skip = skip[:0]
		}
		for _, sp := range skip {
			skipped[i] += sp.end - sp.first
		}
		var err error
		if clean, err = runIntervals(ctx, sim, skip, clean[:0], refs, maxSpans); err != nil {
			return nil, err
		}
		skip, clean = clean, skip
	}
	return skipped, nil
}

// runIntervals runs one sim over refs, one purge interval at a time. It
// credits the spans in skip instead of simulating them, and returns, in
// clean, every interval in which the sim's L1 did not evict.
func runIntervals(ctx context.Context, sim intervalSim, skip, clean []cleanSpan, refs []trace.Ref, maxSpans int) ([]cleanSpan, error) {
	q := sim.quantum()
	if q <= 0 {
		q = max(len(refs), 1)
	}
	es := sim.events()
	t0 := es.runStart()
	n := 0
	stop := func(err error) ([]cleanSpan, error) {
		es.runEnd(n, t0)
		sim.report()
		return nil, err
	}
	for n < len(refs) {
		if err := ctx.Err(); err != nil {
			return stop(err)
		}
		iv := n / q
		if len(skip) > 0 && skip[0].first == iv {
			sp := skip[0]
			skip = skip[1:]
			c := sim.counts()
			c.add(sp.d)
			sim.setCounts(c)
			end := min(sp.end*q, len(refs))
			if es.sink != nil {
				for m := (n/obs.ProgressInterval + 1) * obs.ProgressInterval; m <= end; m += obs.ProgressInterval {
					es.progress(m)
				}
			}
			n = end
			if n < len(refs) {
				sim.resume(0)
			} else {
				sim.resume(n - (n-1)/q*q)
			}
			clean = addClean(clean, sp, maxSpans)
			continue
		}
		end := min(n+q, len(refs))
		before := sim.counts()
		for n < end {
			tick := min(end, (n/obs.ProgressInterval+1)*obs.ProgressInterval)
			sim.run(refs[n:tick])
			n = tick
			if n%obs.ProgressInterval == 0 {
				if es.sink != nil {
					es.progress(n)
				}
				if err := ctx.Err(); err != nil {
					return stop(err)
				}
			}
		}
		if n < len(refs) {
			sim.Purge()
			sim.resume(0)
		}
		d := sim.counts()
		d.sub(before)
		if !d.evicted() {
			clean = addClean(clean, cleanSpan{first: iv, end: iv + 1, d: d}, maxSpans)
		}
	}
	es.runEnd(n, t0)
	sim.report()
	return clean, nil
}

// addClean appends sp to spans, merging it into the last span when the two
// are adjacent. Past limit spans a span that cannot merge is dropped.
func addClean(spans []cleanSpan, sp cleanSpan, limit int) []cleanSpan {
	if k := len(spans) - 1; k >= 0 && spans[k].end == sp.first {
		spans[k].end = sp.end
		spans[k].d.add(sp.d)
		return spans
	}
	if len(spans) >= limit {
		return spans
	}
	return append(spans, sp)
}
