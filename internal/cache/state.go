package cache

import "slices"

// Logical state equality.
//
// The time-parallel sweep engine (internal/parallel) simulates segments of
// one reference stream speculatively from a cold state and must detect the
// instant a speculative cache has provably converged onto the true one:
// from a common state, identical references produce identical transitions
// and identical statistics deltas, so once the states match the segment's
// remaining counts can be spliced in exactly.
//
// "State" here is everything that can influence a future access: resident
// tags and their order within each replacement list, per-sub-block valid
// and dirty masks, the prefetched bit, the LFU use count, the ARC ghost
// lists and adaptive target, and the write-combining buffer. It is
// deliberately *logical*: frame indices, free-list order and the tag-index
// layout are allocation details that two caches built by different
// histories need not share and that no policy except Random can observe.
// Random replacement picks victims by frame index from its private rng, so
// its future behaviour is not a function of this state — callers that need
// convergence (the parallel engine) must not rely on StateEqual under
// Random. The 3C-attribution shadow (EnableMissCauses) is likewise outside
// the comparison: it is observability state, never consulted by the
// replacement path.

// StateEqual reports whether c and o — two caches built from the same
// Config — hold identical logical state: the same tags in the same
// replacement-list order with the same valid/dirty/prefetched/use-count
// metadata, the same ARC ghost history and target, the same victim-buffer
// contents in the same recency order, and the same write-combining buffer.
// See the package comment above for what "logical" excludes.
func (c *Cache) StateEqual(o *Cache) bool {
	if len(c.sets) != len(o.sets) || c.resident != o.resident {
		return false
	}
	if c.combineLive != o.combineLive {
		return false
	}
	if c.combineLive && c.combineUnit != o.combineUnit {
		return false
	}
	if !vbufEqual(c.vbuf, o.vbuf) {
		return false
	}
	for si := range c.sets {
		a, b := &c.sets[si], &o.sets[si]
		if a.p != b.p {
			return false
		}
		if !slices.Equal(a.ghosts[0], b.ghosts[0]) || !slices.Equal(a.ghosts[1], b.ghosts[1]) {
			return false
		}
		for li := range a.lists {
			if a.lists[li].n != b.lists[li].n {
				return false
			}
			bi := b.lists[li].head
			for ai := a.lists[li].head; ai != -1; ai = a.nodes[ai].next {
				an, bn := &a.nodes[ai], &b.nodes[bi]
				if an.tag != bn.tag || an.valid != bn.valid || an.dirty != bn.dirty ||
					an.prefetched != bn.prefetched || an.freq != bn.freq {
					return false
				}
				bi = bn.next
			}
		}
	}
	return true
}

// StateEqual reports whether two systems built from the same SystemConfig
// hold identical logical cache state (see Cache.StateEqual). Statistics
// and the purge clock are not state: the parallel engine drives purges on
// the trace clock, so replicas it compares never self-schedule.
func (s *System) StateEqual(o *System) bool {
	return cachePairEqual(s.unified, o.unified) &&
		cachePairEqual(s.icache, o.icache) &&
		cachePairEqual(s.dcache, o.dcache)
}

func cachePairEqual(a, b *Cache) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.StateEqual(b)
}

// vbufEqual compares two victim buffers' logical state: the same lines in
// the same recency order with the same valid/dirty masks. Frame indices
// and free-list order are allocation details, excluded like the main
// array's.
func vbufEqual(a, b *set) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.lists[0].n != b.lists[0].n {
		return false
	}
	bi := b.lists[0].head
	for ai := a.lists[0].head; ai != -1; ai = a.nodes[ai].next {
		an, bn := &a.nodes[ai], &b.nodes[bi]
		if an.tag != bn.tag || an.valid != bn.valid || an.dirty != bn.dirty {
			return false
		}
		bi = bn.next
	}
	return true
}

// StateEqual reports whether two engines built from the same MultiConfig
// hold identical logical state: the same lines in the same recency order
// with the same outside-count, dirty-bound and written annotations, and
// every per-size marker at the same stack depth. Node arena indices are
// insertion-order artifacts and excluded.
func (m *MultiSystem) StateEqual(o *MultiSystem) bool {
	return multiSimPairEqual(m.unified, o.unified) &&
		multiSimPairEqual(m.icache, o.icache) &&
		multiSimPairEqual(m.dcache, o.dcache)
}

func multiSimPairEqual(a, b *multiSim) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.stateEqual(b)
}

func (s *multiSim) stateEqual(o *multiSim) bool {
	if !slices.Equal(s.lines, o.lines) {
		return false
	}
	bi := o.head
	for ai := s.head; ai != -1; ai = s.nodes[ai].next {
		if bi == -1 {
			return false
		}
		an, bn := &s.nodes[ai], &o.nodes[bi]
		if an.line != bn.line || an.out != bn.out || an.written != bn.written {
			return false
		}
		if an.written && an.lo != bn.lo {
			return false
		}
		bi = bn.next
	}
	if bi != -1 {
		return false
	}
	for i := range s.markers {
		if s.markerDepth(i) != o.markerDepth(i) {
			return false
		}
	}
	return true
}

// markerDepth returns the stack depth of marker i (-1 when unset). O(live);
// used only by state comparison, never on the simulation hot path.
func (s *multiSim) markerDepth(i int) int {
	ni := s.markers[i]
	if ni < 0 {
		return -1
	}
	d := 0
	for x := s.head; x != -1; x = s.nodes[x].next {
		if x == ni {
			return d
		}
		d++
	}
	return -2 // marker off-stack: impossible by construction
}

// StateEqual reports whether two engines built from the same FanoutConfig
// hold identical logical state: per size, the same lines in the same
// recency order with the same dirty and prefetched bits. A twin size is
// read through its representative, whose state it shares; frame indices
// and the directory layout are allocation details and excluded.
func (f *FanoutSystem) StateEqual(o *FanoutSystem) bool {
	return fanOrgPairEqual(f.unified, o.unified) &&
		fanOrgPairEqual(f.icache, o.icache) &&
		fanOrgPairEqual(f.dcache, o.dcache)
}

func fanOrgPairEqual(a, b *fanOrg) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.caches) != len(b.caches) {
		return false
	}
	// Past both representatives every size resolves to the same pair.
	for i := 0; i <= max(a.live, b.live); i++ {
		ac := &a.caches[min(i, a.live)]
		bc := &b.caches[min(i, b.live)]
		if !ac.stateEqual(&a.dir, bc, &b.dir) {
			return false
		}
	}
	return true
}

func (c *fanoutCache) stateEqual(cd *fanDir, o *fanoutCache, od *fanDir) bool {
	bi := o.head
	for ai := c.head; ai != -1; ai = c.nodes[ai].next {
		if bi == -1 {
			return false
		}
		an, bn := &c.nodes[ai], &o.nodes[bi]
		if cd.lines[an.entry] != od.lines[bn.entry] || an.flags != bn.flags {
			return false
		}
		bi = bn.next
	}
	return bi == -1
}

// ResultsSnapshot returns what Results would report right now, without
// settling or consuming the engine: the bucket accounting is copied and
// the outstanding push/dirty attribution applied to the copies, so the
// engine keeps processing references afterwards. Every Stats field is a
// linear function of the bucket histograms, which is what makes per-segment
// snapshot deltas splice exactly in the time-parallel engine.
func (m *MultiSystem) ResultsSnapshot() []SizeResult {
	lineBytes := uint64(m.cfg.LineSize)
	var iStats, dStats, uStats []Stats
	if m.cfg.Split {
		iStats = m.icache.snapshotStats(lineBytes)
		dStats = m.dcache.snapshotStats(lineBytes)
	} else {
		uStats = m.unified.snapshotStats(lineBytes)
	}
	return m.assemble(iStats, dStats, uStats)
}

// snapshotStats is finalize over cloned histograms with the outstanding
// (non-purge) settle applied to the clones; the live stack and histograms
// are read, never written.
func (s *multiSim) snapshotStats(lineBytes uint64) []Stats {
	t := multiSim{
		lines: s.lines, k: s.k,
		nodes: s.nodes, head: s.head, tail: s.tail,
		accesses: s.accesses, writeAccesses: s.writeAccesses,
		missHist:      slices.Clone(s.missHist),
		writeMissHist: slices.Clone(s.writeMissHist),
		pushHist:      slices.Clone(s.pushHist),
		pushLoHist:    slices.Clone(s.pushLoHist),
		purgeHist:     slices.Clone(s.purgeHist),
		dirtyDiff:     slices.Clone(s.dirtyDiff),
	}
	t.settle(false)
	return t.finalize(lineBytes)
}
