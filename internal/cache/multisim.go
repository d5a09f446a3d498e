package cache

import (
	"fmt"
	"io"
	"sort"

	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
)

// MultiSystem is the one-pass multi-size sweep engine: it simulates a
// fully-associative LRU demand-fetch copy-back cache system (split or
// unified, with task-switch purging) at every size in Sizes simultaneously,
// in a single pass over the reference stream.
//
// It generalizes the classic Mattson stack algorithm from "miss
// counts at every size" to the full per-size accounting System produces:
// per-kind reference misses, write misses, pushes, dirty pushes and purge
// pushes. The inclusion property of fully-associative LRU makes this exact:
// a cache of L lines always holds the L most recently used lines, so one
// maintained recency order answers hit/miss for every size at once, and the
// purge schedule — driven by reference counts, not contents — is identical
// at every size. See DESIGN.md "One-pass multi-size sweeps" for why demand
// LRU collapses this way and prefetch/FIFO/Random do not.
//
// Results are bit-identical to running System once per size with
// Config{Size: s, LineSize: LineSize} (fully associative, LRU, copy-back,
// demand fetch); the equivalence is enforced by tests.
//
// MultiSystem is not safe for concurrent use.
type MultiSystem struct {
	engineSink
	cfg       MultiConfig
	unified   *multiSim
	icache    *multiSim
	dcache    *multiSim
	lineShift uint
	unit      uint64 // line size in bytes (the fetch granularity)

	// sortedPos maps each index of cfg.Sizes to its index in the sorted
	// deduplicated line-count order the engine simulates.
	sortedPos []int
	k         int // number of distinct simulated sizes

	refs        [3]uint64  // per-kind reference counts (size-independent)
	refMissHist [3][]int64 // per-kind reference-miss buckets (suffix semantics)

	sincePurge int
	purges     uint64
	finished   bool
}

// MultiConfig configures a MultiSystem. The simulated policy is fixed:
// fully associative, LRU, copy-back, demand fetch — the configuration of
// the paper's §3.3-§3.5 master grid.
type MultiConfig struct {
	// Sizes are the cache capacities in bytes to evaluate; each must be a
	// valid Config size for LineSize. Order is preserved in Results;
	// duplicates are allowed.
	Sizes []int
	// LineSize is the line size in bytes shared by every evaluated size.
	LineSize int
	// Split selects separate instruction and data caches (each of the full
	// per-size capacity, as in the paper's split organization); false
	// selects one unified cache.
	Split bool
	// PurgeInterval is the number of references between full purges, as in
	// SystemConfig. Zero disables purging.
	PurgeInterval int
}

// SizeResult is the outcome of the pass at one cache size: reference-level
// statistics plus line-level statistics for each simulated cache (I and D
// for split organizations, U for unified).
type SizeResult struct {
	Size    int
	Ref     RefStats
	I, D, U Stats
	// CI is the sampled-mode confidence interval on the overall miss
	// ratio. Exact engines leave it nil, which keeps SizeResult directly
	// comparable with == across exact engines — the equivalence and
	// conformance tests rely on that.
	CI *MissCI
	// H carries the L2 side of a two-level simulation; the zero value
	// (every field comparable) means single level.
	H HierResult
}

// MissCI is an estimated confidence interval on a miss ratio, attached to
// SizeResult by the sampled sweep engine.
type MissCI struct {
	// Level is the confidence level, e.g. 0.95.
	Level float64
	// Lo and Hi bound the overall miss ratio, clamped to [0, 1].
	Lo, Hi float64
	// Windows is the number of full sampled windows (batches) behind the
	// interval.
	Windows int
}

// NewMultiSystem validates cfg and builds the engine.
func NewMultiSystem(cfg MultiConfig) (*MultiSystem, error) {
	if len(cfg.Sizes) == 0 {
		return nil, fmt.Errorf("cache: no sizes to sweep")
	}
	if cfg.PurgeInterval < 0 {
		return nil, fmt.Errorf("cache: negative purge interval %d", cfg.PurgeInterval)
	}
	for _, size := range cfg.Sizes {
		if err := (Config{Size: size, LineSize: cfg.LineSize}).Validate(); err != nil {
			return nil, err
		}
	}
	// Collapse to sorted distinct line counts; sortedPos maps back.
	linesOf := make([]int, len(cfg.Sizes))
	for i, size := range cfg.Sizes {
		linesOf[i] = size / cfg.LineSize
	}
	sorted := append([]int(nil), linesOf...)
	sort.Ints(sorted)
	distinct := sorted[:0]
	for i, l := range sorted {
		if i == 0 || l != sorted[i-1] {
			distinct = append(distinct, l)
		}
	}
	distinct = append([]int(nil), distinct...)
	m := &MultiSystem{
		cfg:       cfg,
		lineShift: log2(cfg.LineSize),
		unit:      uint64(cfg.LineSize),
		sortedPos: make([]int, len(cfg.Sizes)),
		k:         len(distinct),
	}
	for i, l := range linesOf {
		m.sortedPos[i] = sort.SearchInts(distinct, l)
	}
	for kind := range m.refMissHist {
		m.refMissHist[kind] = make([]int64, m.k+1)
	}
	if cfg.Split {
		m.icache = newMultiSim(distinct)
		m.dcache = newMultiSim(distinct)
	} else {
		m.unified = newMultiSim(distinct)
	}
	return m, nil
}

// simFor returns the simulator serving references of kind k.
func (m *MultiSystem) simFor(k trace.Kind) *multiSim {
	if !m.cfg.Split {
		return m.unified
	}
	if k == trace.IFetch {
		return m.icache
	}
	return m.dcache
}

// Ref processes one trace reference, mirroring System.Ref: purge
// scheduling, line decomposition of straddling references, and the
// reference-level accounting.
func (m *MultiSystem) Ref(r trace.Ref) {
	if m.finished {
		panic("cache: MultiSystem.Ref after Results")
	}
	if m.cfg.PurgeInterval > 0 {
		if m.sincePurge >= m.cfg.PurgeInterval {
			m.purge()
			m.sincePurge = 0
		}
		m.sincePurge++
	}
	c := m.simFor(r.Kind)
	write := r.Kind == trace.Write
	size := int(r.Size)
	if size < 1 {
		size = 1
	}
	first := r.Addr &^ (m.unit - 1)
	last := (r.Addr + uint64(size) - 1) &^ (m.unit - 1)
	// A straddling reference counts once and misses at a size if any
	// touched line missed there: the effective bucket is the max.
	bucket := c.access(first>>m.lineShift, write)
	for a := first + m.unit; a <= last; a += m.unit {
		if b := c.access(a>>m.lineShift, write); b > bucket {
			bucket = b
		}
	}
	m.refs[r.Kind]++
	m.refMissHist[r.Kind][bucket]++
}

// purge empties every simulated cache at every size, accounting the purge
// pushes exactly as System.Purge does per size.
func (m *MultiSystem) purge() {
	m.purges++
	if m.cfg.Split {
		m.icache.settle(true)
		m.dcache.settle(true)
		return
	}
	m.unified.settle(true)
}

// Purges returns how many task-switch purges have occurred.
func (m *MultiSystem) Purges() uint64 { return m.purges }

// Purge empties every simulated cache at every size, accounting the purge
// pushes. The sampled sweep driver uses it to schedule purges in trace
// time (PurgeInterval counts only fed references, which a sampled run
// would dilate by the inverse sampling fraction).
func (m *MultiSystem) Purge() { m.purge() }

// RefSnapshot returns the per-size reference-level statistics accumulated
// so far, indexed as cfg.Sizes, without settling the engine: the counters
// involved are monotone and independent of the push/dirty settling that
// Results performs, so the sampled sweep driver can read exact deltas at
// window boundaries while the pass keeps running. dst is reused when it
// has the right length.
func (m *MultiSystem) RefSnapshot(dst []RefStats) []RefStats {
	if len(dst) != len(m.cfg.Sizes) {
		dst = make([]RefStats, len(m.cfg.Sizes))
	}
	var refMiss [3][]uint64
	for kind := range refMiss {
		refMiss[kind] = suffixSums(m.refMissHist[kind], m.k)
	}
	for oi, si := range m.sortedPos {
		dst[oi].Refs = m.refs
		for kind := range refMiss {
			dst[oi].Misses[kind] = refMiss[kind][si]
		}
	}
	return dst
}

// Run drives the engine from rd until io.EOF or max references (when
// max > 0) and returns the number of references processed.
func (m *MultiSystem) Run(rd trace.Reader, max int) (int, error) {
	t0 := m.runStart()
	n := 0
	for max <= 0 || n < max {
		ref, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			m.runEnd(n, t0)
			return n, err
		}
		m.Ref(ref)
		n++
		if m.sink != nil && n%obs.ProgressInterval == 0 {
			m.progress(n)
		}
	}
	m.runEnd(n, t0)
	return n, nil
}

// Results settles outstanding replacement accounting and returns the
// per-size outcomes, indexed as cfg.Sizes. The engine cannot process
// further references afterwards.
func (m *MultiSystem) Results() []SizeResult {
	if !m.finished {
		m.finished = true
		if m.cfg.Split {
			m.icache.settle(false)
			m.dcache.settle(false)
		} else {
			m.unified.settle(false)
		}
	}
	lineBytes := uint64(m.cfg.LineSize)
	var iStats, dStats, uStats []Stats
	if m.cfg.Split {
		iStats = m.icache.finalize(lineBytes)
		dStats = m.dcache.finalize(lineBytes)
	} else {
		uStats = m.unified.finalize(lineBytes)
	}
	return m.assemble(iStats, dStats, uStats)
}

// assemble folds per-distinct-size cache statistics and the reference-level
// bucket accounting into SizeResults indexed as cfg.Sizes.
func (m *MultiSystem) assemble(iStats, dStats, uStats []Stats) []SizeResult {
	// Per-kind reference misses at sorted size index i: every bucket > i.
	var refMiss [3][]uint64
	for kind := range refMiss {
		refMiss[kind] = suffixSums(m.refMissHist[kind], m.k)
	}
	out := make([]SizeResult, len(m.cfg.Sizes))
	for oi, si := range m.sortedPos {
		r := SizeResult{Size: m.cfg.Sizes[oi]}
		r.Ref.Refs = m.refs
		for kind := range refMiss {
			r.Ref.Misses[kind] = refMiss[kind][si]
		}
		if m.cfg.Split {
			r.I, r.D = iStats[si], dStats[si]
		} else {
			r.U = uStats[si]
		}
		out[oi] = r
	}
	return out
}

// suffixSums converts a bucket histogram with "applies to every size index
// below the bucket" semantics into per-size totals: out[i] = sum of hist[b]
// for b > i.
func suffixSums(hist []int64, k int) []uint64 {
	out := make([]uint64, k)
	var run uint64
	for b := k; b >= 1; b-- {
		run += uint64(hist[b])
		out[b-1] = run
	}
	return out
}

// prefixSums converts a bucket histogram (or difference array) with
// "applies to every size index at or above the bucket" semantics into
// per-size totals: out[i] = sum of hist[b] for b <= i.
func prefixSums(hist []int64, k int) []uint64 {
	out := make([]uint64, k)
	var run int64
	for i := 0; i < k; i++ {
		run += hist[i]
		out[i] = uint64(run)
	}
	return out
}

// multiSim is one cache array of the engine: a single maintained LRU stack
// annotated with per-size boundary markers, so each access yields in O(1)
// the set of sizes it missed at, and eviction state (dirtiness included) is
// tracked lazily per line.
//
// The core invariant: msNode.out is the number of evaluated sizes the line
// is currently outside of — equivalently the index of the first marker
// above the line's stack depth. Markers move one step towards the LRU end
// exactly when an access comes from at or beyond them, which is also the
// moment the line they newly point at crosses outside that size.
type multiSim struct {
	lines []int // sorted distinct line counts, ascending
	k     int

	nodes   []msNode
	index   map[uint64]int32
	head    int32
	tail    int32
	markers []int32 // markers[i]: node just outside size i, -1 if not yet full

	accesses      uint64
	writeAccesses uint64

	// Bucket accounting, all length k+1. Suffix semantics (event applies to
	// size indices below the bucket): missHist, writeMissHist, pushHist.
	// Prefix semantics (applies at or above): pushLoHist, purgeHist.
	// dirtyDiff is a difference array over half-open bucket ranges.
	missHist      []int64
	writeMissHist []int64
	pushHist      []int64
	pushLoHist    []int64
	purgeHist     []int64
	dirtyDiff     []int64
}

// msNode is one line in the recency stack.
type msNode struct {
	line       uint64
	prev, next int32
	// out is the number of sizes this line is currently outside of.
	out int32
	// lo is the first size index at which the line is still dirty: the
	// running max of out over reads since the last write. Valid only when
	// written is set.
	lo      int32
	written bool
}

func newMultiSim(lines []int) *multiSim {
	k := len(lines)
	return &multiSim{
		lines:         lines,
		k:             k,
		index:         make(map[uint64]int32, 1024),
		head:          -1,
		tail:          -1,
		markers:       newMarkers(k),
		missHist:      make([]int64, k+1),
		writeMissHist: make([]int64, k+1),
		pushHist:      make([]int64, k+1),
		pushLoHist:    make([]int64, k+1),
		purgeHist:     make([]int64, k+1),
		dirtyDiff:     make([]int64, k+1),
	}
}

func newMarkers(k int) []int32 {
	m := make([]int32, k)
	for i := range m {
		m[i] = -1
	}
	return m
}

// access processes one line-unit demand access and returns its miss
// bucket: the access missed at exactly the size indices below the returned
// value (k for a first-touch miss, which misses everywhere).
func (s *multiSim) access(line uint64, write bool) int {
	s.accesses++
	if write {
		s.writeAccesses++
	}
	ni, ok := s.index[line]
	if !ok {
		return s.cold(line, write)
	}
	n := &s.nodes[ni]
	ub := int(n.out)
	s.missHist[ub]++
	if write {
		s.writeMissHist[ub]++
	}
	if ub > 0 {
		// The line re-enters from outside the ub smallest sizes: it was
		// evicted from each of them since its last access (dirty wherever
		// it still carried its last write), and each of their markers
		// retreats one step as everything above the line shifts down.
		s.pushHist[ub]++
		if n.written && int(n.lo) < ub {
			s.dirtyDiff[n.lo]++
			s.dirtyDiff[ub]--
		}
		for i := 0; i < ub; i++ {
			p := s.nodes[s.markers[i]].prev
			s.markers[i] = p
			s.nodes[p].out++
		}
	}
	if write {
		n.written = true
		n.lo = 0
	} else if n.written && int32(ub) > n.lo {
		n.lo = int32(ub)
	}
	n.out = 0
	s.moveToFront(ni)
	return ub
}

// cold handles a first-touch (in this purge epoch) access.
func (s *multiSim) cold(line uint64, write bool) int {
	k := s.k
	s.missHist[k]++
	if write {
		s.writeMissHist[k]++
	}
	// Every resident line shifts down one: markers retreat, and a size
	// whose capacity the stack just reached gains its first marker (its
	// previous tail is the first line to fall outside).
	live := len(s.nodes)
	for i := 0; i < k; i++ {
		if mi := s.markers[i]; mi >= 0 {
			p := s.nodes[mi].prev
			s.markers[i] = p
			s.nodes[p].out++
		} else if live == s.lines[i] {
			s.markers[i] = s.tail
			s.nodes[s.tail].out++
		}
	}
	ni := int32(len(s.nodes))
	s.nodes = append(s.nodes, msNode{line: line, prev: -1, next: -1, written: write})
	s.index[line] = ni
	s.pushFront(ni)
	return k
}

// settle accounts the pushes that have not yet been attributed: every line
// still on the stack was already evicted from each size it is outside of
// (dirty down to its lo bound). When purge is set it additionally charges
// the purge pushes of the sizes still holding the line — where any
// outstanding write makes the push dirty — and resets the stack, exactly
// like System.Purge at every size at once.
func (s *multiSim) settle(purge bool) {
	k := s.k
	for ni := s.head; ni >= 0; ni = s.nodes[ni].next {
		n := &s.nodes[ni]
		ubP := int(n.out)
		s.pushHist[ubP]++
		if purge {
			s.pushLoHist[ubP]++
			s.purgeHist[ubP]++
			if n.written && int(n.lo) < k {
				s.dirtyDiff[n.lo]++
				s.dirtyDiff[k]--
			}
		} else if n.written && n.lo < n.out {
			s.dirtyDiff[n.lo]++
			s.dirtyDiff[ubP]--
		}
	}
	if purge {
		s.nodes = s.nodes[:0]
		clear(s.index)
		s.head, s.tail = -1, -1
		for i := range s.markers {
			s.markers[i] = -1
		}
	}
}

// finalize folds the bucket accounting into per-size Stats, indexed by
// sorted distinct size. Derived fields follow the demand copy-back
// configuration: every miss fetches one line, every dirty push writes one
// line back in one transaction.
func (s *multiSim) finalize(lineBytes uint64) []Stats {
	k := s.k
	miss := suffixSums(s.missHist, k)
	wmiss := suffixSums(s.writeMissHist, k)
	pushHi := suffixSums(s.pushHist, k)
	pushLo := prefixSums(s.pushLoHist, k)
	purge := prefixSums(s.purgeHist, k)
	dirty := prefixSums(s.dirtyDiff, k)
	out := make([]Stats, k)
	for i := 0; i < k; i++ {
		out[i] = Stats{
			Accesses:          s.accesses,
			Misses:            miss[i],
			WriteAccesses:     s.writeAccesses,
			WriteMisses:       wmiss[i],
			DemandFetches:     miss[i],
			Pushes:            pushHi[i] + pushLo[i],
			DirtyPushes:       dirty[i],
			PurgePushes:       purge[i],
			BytesFromMemory:   miss[i] * lineBytes,
			BytesToMemory:     dirty[i] * lineBytes,
			WriteTransactions: dirty[i],
		}
	}
	return out
}

// list plumbing (same intrusive shape as set's).

func (s *multiSim) pushFront(ni int32) {
	n := &s.nodes[ni]
	n.prev = -1
	n.next = s.head
	if s.head != -1 {
		s.nodes[s.head].prev = ni
	}
	s.head = ni
	if s.tail == -1 {
		s.tail = ni
	}
}

func (s *multiSim) moveToFront(ni int32) {
	if s.head == ni {
		return
	}
	n := &s.nodes[ni]
	if n.prev != -1 {
		s.nodes[n.prev].next = n.next
	}
	if n.next != -1 {
		s.nodes[n.next].prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev = -1
	n.next = s.head
	s.nodes[s.head].prev = ni
	s.head = ni
}
