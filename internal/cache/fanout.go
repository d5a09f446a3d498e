package cache

import (
	"fmt"
	"io"
	"math/bits"
	"sort"

	"cacheeval/internal/obs"
	"cacheeval/internal/trace"
)

// FanoutSystem is the one-pass multi-size engine for the prefetch-always
// half of the §3.3-§3.5 sweep grid: it simulates a fully-associative LRU
// copy-back prefetch-always cache system (split or unified, with task-switch
// purging) at every size in Sizes from a single pass over the reference
// stream.
//
// Prefetch breaks the LRU stack-inclusion property MultiSystem exploits — a
// prefetched line enters the recency order without being referenced, and
// whether the probe of line i+1 finds it resident depends on capacity — so
// per-size cache state cannot be collapsed into one annotated stack. Two
// other things can be shared, per organization:
//
//   - Twins. A cache that has not evicted since the last purge behaves
//     exactly like any larger cache holding the same lines, and frames are
//     handed out in arena order until a cache fills, so the two are
//     identical down to frame indices. After a purge every size is empty,
//     so only the smallest is simulated; the larger sizes are its twins
//     and are credited its count deltas. Before a reference that could
//     make the representative evict (each spanned line inserts at most
//     twice: its access and its probe), its state is handed off to the
//     next size, which becomes the representative. With frequent purges
//     the large sizes rarely fill, so most of them are never simulated.
//   - One tag directory. Every size looks up the same lines, so a single
//     open-addressed map from line to entry serves them all: an entry holds
//     one frame column per size, so a spanned line costs one lookup for
//     itself and one for its probe however many sizes run.
//
// The purge schedule, the decomposition of line-straddling references, the
// per-kind reference counts and the access tallies are likewise computed
// once per reference. See DESIGN.md §6.
//
// Results are bit-identical to running System once per size with
// Config{Size: s, LineSize: LineSize, Fetch: PrefetchAlways} (fully
// associative, LRU, copy-back); the equivalence is enforced by tests at the
// engine and the sweep level.
//
// FanoutSystem is not safe for concurrent use.
type FanoutSystem struct {
	engineSink
	cfg       FanoutConfig
	lineShift uint

	// sortedPos maps each index of cfg.Sizes to its index in the sorted
	// deduplicated line-count order the engine simulates.
	sortedPos []int

	unified *fanOrg // nil when split
	icache  *fanOrg // nil when unified
	dcache  *fanOrg

	// Size-independent tallies, computed once per reference: per-kind
	// reference counts and the processor-requested byte count.
	refs     [3]uint64
	refBytes uint64

	sincePurge int
	purges     uint64
}

// FanoutConfig configures a FanoutSystem. The simulated policy is fixed:
// fully associative, LRU, copy-back, prefetch-always — the prefetch
// configuration of the paper's §3.5 figures and Table 4.
type FanoutConfig struct {
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

// NewFanoutSystem validates cfg and builds the engine.
func NewFanoutSystem(cfg FanoutConfig) (*FanoutSystem, error) {
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
	// Collapse to sorted distinct line counts; sortedPos maps back. Sizes
	// are powers of two, so there are at most 63 of them — the width of the
	// per-reference miss mask in fanOrg.ref.
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
	f := &FanoutSystem{
		cfg:       cfg,
		lineShift: log2(cfg.LineSize),
		sortedPos: make([]int, len(cfg.Sizes)),
	}
	for i, l := range linesOf {
		f.sortedPos[i] = sort.SearchInts(distinct, l)
	}
	lineBytes := uint64(cfg.LineSize)
	if cfg.Split {
		f.icache = newFanOrg(distinct, lineBytes)
		f.dcache = newFanOrg(distinct, lineBytes)
	} else {
		f.unified = newFanOrg(distinct, lineBytes)
	}
	return f, nil
}

// Ref processes one trace reference, mirroring System.Ref: purge
// scheduling, line decomposition of straddling references, and
// reference-level accounting — each computed once, then fanned out to every
// simulated size of the organization that serves the reference.
func (f *FanoutSystem) Ref(r trace.Ref) {
	if f.cfg.PurgeInterval > 0 {
		if f.sincePurge >= f.cfg.PurgeInterval {
			f.Purge()
			f.sincePurge = 0
		}
		f.sincePurge++
	}
	size := int(r.Size)
	if size < 1 {
		size = 1
	}
	f.refs[r.Kind]++
	f.refBytes += uint64(size)
	o := f.unified
	if f.cfg.Split {
		o = f.dcache
		if r.Kind == trace.IFetch {
			o = f.icache
		}
	}
	first := r.Addr >> f.lineShift
	last := (r.Addr + uint64(size) - 1) >> f.lineShift
	if last < first {
		// The reference wraps past the top of the address space; System
		// touches only its first line.
		last = first
	}
	o.ref(first, last, r.Kind, r.Kind == trace.Write)
}

// Purge empties every simulated cache at every size, accounting purge
// pushes exactly as System.Purge does per size.
func (f *FanoutSystem) Purge() {
	f.purges++
	if f.cfg.Split {
		f.icache.purge()
		f.dcache.purge()
		return
	}
	f.unified.purge()
}

// Purges returns how many task-switch purges have occurred.
func (f *FanoutSystem) Purges() uint64 { return f.purges }

// RefBytes returns the total bytes the processor requested, as System.RefBytes.
func (f *FanoutSystem) RefBytes() uint64 { return f.refBytes }

// RefSnapshot returns the per-size reference-level statistics accumulated
// so far, indexed as cfg.Sizes. Like Results it is a pure snapshot; the
// sampled sweep driver reads deltas of it at window boundaries. dst is
// reused when it has the right length.
func (f *FanoutSystem) RefSnapshot(dst []RefStats) []RefStats {
	if len(dst) != len(f.cfg.Sizes) {
		dst = make([]RefStats, len(f.cfg.Sizes))
	}
	for oi, si := range f.sortedPos {
		dst[oi] = f.result(si).Ref
	}
	return dst
}

// Run drives the engine from rd until io.EOF or max references (when
// max > 0) and returns the number of references processed.
func (f *FanoutSystem) Run(rd trace.Reader, max int) (int, error) {
	t0 := f.runStart()
	n := 0
	for max <= 0 || n < max {
		ref, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			f.runEnd(n, t0)
			return n, err
		}
		f.Ref(ref)
		n++
		if f.sink != nil && n%obs.ProgressInterval == 0 {
			f.progress(n)
		}
	}
	f.runEnd(n, t0)
	return n, nil
}

// Results returns the per-size outcomes, indexed as cfg.Sizes. Unlike
// MultiSystem (whose lazy accounting must settle), Results is a snapshot:
// it may be called at any time and the engine can keep processing
// references afterwards.
func (f *FanoutSystem) Results() []SizeResult {
	out := make([]SizeResult, len(f.cfg.Sizes))
	for oi, si := range f.sortedPos {
		out[oi] = f.result(si)
		out[oi].Size = f.cfg.Sizes[oi]
	}
	return out
}

// result assembles distinct size si's outcome (Size left zero).
func (f *FanoutSystem) result(si int) SizeResult {
	r := SizeResult{Ref: RefStats{Refs: f.refs}}
	if !f.cfg.Split {
		r.U, r.Ref.Misses = f.unified.result(si)
		return r
	}
	var im, dm [3]uint64
	r.I, im = f.icache.result(si)
	r.D, dm = f.dcache.result(si)
	for k := range r.Ref.Misses {
		r.Ref.Misses[k] = im[k] + dm[k]
	}
	return r
}

// fanOrg is one organization's caches — the unified cache, or one side of
// a split system — at every distinct size, sharing one tag directory.
type fanOrg struct {
	caches []fanoutCache // ascending capacity
	// live is the representative: caches[:live+1] are simulated, and every
	// larger cache is a twin of caches[live], untouched since the last purge
	// (its frames are stale and its counts are credited; see counts).
	live int
	dir  fanDir

	// Line access and write-access counts are identical at every size, so
	// they are tallied once and folded into each size's Stats by result.
	accesses, writeAccesses uint64

	// lineMask keeps line numbers inside the address space, so the probe
	// after the top line wraps to line 0 as System's does.
	lineMask uint64
}

// fanoutCache is one size's cache array: a specialization of Cache to the
// engine's fixed policy (fully associative, LRU, copy-back, unsectored,
// prefetch-always). A frame arena carries an intrusive recency list; which
// frame holds a line is recorded in the organization's shared directory,
// not here. Statistics are accounted exactly as Cache does so the
// equivalence is bit-for-bit.
type fanoutCache struct {
	nodes []fanNode
	head  int32
	tail  int32
	used  int32
	col   int // this size's frame column in the directory

	lineBytes uint64

	// cur is the running count; base is the count right after the last
	// purge. A twin's cur is stale: its true count is its base plus the
	// representative's cur-base delta.
	cur, base fanCounts
}

// fanCounts is everything a size counts: its line-level statistics and its
// per-kind reference-level misses.
type fanCounts struct {
	stats  Stats
	misses [3]uint64
}

// credit adds the counts a representative accumulated from then to now.
func (a *fanCounts) credit(now, then fanCounts) {
	a.stats.Add(now.stats)
	a.stats.Sub(then.stats)
	for k := range a.misses {
		a.misses[k] += now.misses[k] - then.misses[k]
	}
}

// fanNode is one frame: the directory entry of the resident line, two
// recency links and the dirty/prefetched bits.
type fanNode struct {
	entry      int32
	prev, next int32
	flags      uint8
}

const (
	fanDirty uint8 = 1 << iota
	fanPrefetched
)

// fanDir is an organization's tag directory: one open-addressed map from
// line to entry (Fibonacci hashing, linear probing at load factor <= 1/2,
// backward-shift deletion, as set's index). An entry holds one frame column
// per size (-1 when that size does not hold the line) and a hold count: the
// simulated sizes holding the line plus the pins of the reference in
// flight. It lives while the count is positive. Every table is sized up
// front for the worst case — every size full of distinct lines, plus two
// pinned entries — so the simulation never allocates.
type fanDir struct {
	k      int       // frame columns per entry (distinct sizes)
	table  []dirSlot // line -> entry
	shift  uint      // 64 - log2(len(table)); home slot = (line * phi) >> shift
	lines  []uint64  // per entry: its line
	holds  []int32   // per entry: holding sizes plus pins
	frames []int32   // per entry: k frame columns
	next   int32     // next never-used entry; entry 0 is reserved
	free   []int32   // released entries below next
}

// dirSlot is one directory table slot; entry 0 marks it empty, so a zeroed
// table is an empty one.
type dirSlot struct {
	line  uint64
	entry int32
}

func newFanOrg(lines []int, lineBytes uint64) *fanOrg {
	o := &fanOrg{
		caches:   make([]fanoutCache, len(lines)),
		lineMask: ^uint64(0) >> log2(int(lineBytes)),
	}
	total := 0
	for i, l := range lines {
		o.caches[i] = fanoutCache{
			nodes: make([]fanNode, l), head: -1, tail: -1,
			col: i, lineBytes: lineBytes,
		}
		total += l
	}
	entries := total + 2 + 1 // two pins, and the reserved entry 0
	m := 1
	for m < 2*entries {
		m <<= 1
	}
	o.dir = fanDir{
		k:      len(lines),
		table:  make([]dirSlot, m),
		shift:  64 - log2(m),
		lines:  make([]uint64, entries),
		holds:  make([]int32, entries),
		frames: make([]int32, entries*len(lines)),
		next:   1,
		free:   make([]int32, 0, entries),
	}
	return o
}

// ref simulates one reference spanning lines first..last at every size
// that is not a twin. Lines are the outer loop so each costs one directory
// lookup for itself and one for its probe; each size still sees its
// accesses and probes in per-size order (access line i, probe line i+1,
// access line i+1, ...). A reference is one reference-level miss at a size
// if any of its lines missed there.
func (o *fanOrg) ref(first, last uint64, kind trace.Kind, write bool) {
	span := last - first + 1
	o.accesses += span
	if write {
		o.writeAccesses += span
	}
	for o.live < len(o.caches)-1 {
		if rep := &o.caches[o.live]; uint64(rep.used)+2*span <= uint64(len(rep.nodes)) {
			break
		}
		o.handoff()
	}
	d := &o.dir
	caches := o.caches[:o.live+1]
	var missed uint64 // bit i: caches[i] missed some line
	e := d.pin(first)
	for line := first; ; line++ {
		p := d.pin((line + 1) & o.lineMask)
		ef := d.column(e)
		pf := d.column(p)
		for i := range caches {
			c := &caches[i]
			if !c.access(d, e, ef[i], write) {
				missed |= 1 << i
			}
			if pf[i] < 0 {
				c.probe(d, p)
			}
		}
		d.release(e)
		if line >= last {
			d.release(p)
			break
		}
		e = p
	}
	for ; missed != 0; missed &= missed - 1 {
		caches[bits.TrailingZeros64(missed)].cur.misses[kind]++
	}
}

// handoff makes the next size the representative: the current one's
// frames, recency list and counts are copied into it, and its directory
// column filled in. Neither has evicted since the purge, so the frames are
// identical index for index.
func (o *fanOrg) handoff() {
	from := &o.caches[o.live]
	o.live++
	to := &o.caches[o.live]
	copy(to.nodes, from.nodes[:from.used])
	to.head, to.tail, to.used = from.head, from.tail, from.used
	to.cur = to.base
	to.cur.credit(from.cur, from.base)
	for fi, n := range to.nodes[:to.used] {
		o.dir.frames[int(n.entry)*o.dir.k+to.col] = int32(fi)
		o.dir.holds[n.entry]++
	}
}

// purge empties every size. Only the simulated sizes are walked; a twin
// holds exactly its representative's lines, so it is credited the
// representative's counts since the last purge, purge pushes included.
func (o *fanOrg) purge() {
	rep := &o.caches[o.live]
	then := rep.base
	for i := range o.caches[:o.live+1] {
		o.caches[i].purge()
	}
	for i := o.live + 1; i < len(o.caches); i++ {
		o.caches[i].base.credit(rep.cur, then)
	}
	for i := range o.caches[:o.live+1] {
		o.caches[i].base = o.caches[i].cur
	}
	o.live = 0
	o.dir.reset()
}

// counts returns size i's counts, resolving a twin through its
// representative.
func (o *fanOrg) counts(i int) fanCounts {
	if i <= o.live {
		return o.caches[i].cur
	}
	rep := &o.caches[o.live]
	c := o.caches[i].base
	c.credit(rep.cur, rep.base)
	return c
}

// result returns size i's statistics, with the size-independent access
// tallies folded in, and its reference-level misses.
func (o *fanOrg) result(i int) (Stats, [3]uint64) {
	c := o.counts(i)
	c.stats.Accesses, c.stats.WriteAccesses = o.accesses, o.writeAccesses
	return c.stats, c.misses
}

// pin returns line's entry, creating it if no size holds the line, and
// adds a hold so no eviction can free it until the matching release.
func (d *fanDir) pin(line uint64) int32 {
	mask := uint32(len(d.table) - 1)
	i := uint32((line * fibMult) >> d.shift)
	for ; d.table[i].entry != 0; i = (i + 1) & mask {
		if d.table[i].line == line {
			e := d.table[i].entry
			d.holds[e]++
			return e
		}
	}
	var e int32
	if n := len(d.free); n > 0 {
		e = d.free[n-1]
		d.free = d.free[:n-1]
	} else {
		e = d.next
		d.next++
	}
	d.table[i] = dirSlot{line: line, entry: e}
	d.lines[e] = line
	d.holds[e] = 1
	col := d.column(e)
	for j := range col {
		col[j] = -1
	}
	return e
}

// column returns entry e's frame columns, one per size.
func (d *fanDir) column(e int32) []int32 {
	return d.frames[int(e)*d.k : int(e+1)*d.k]
}

// release drops one hold on e, deleting the entry when none is left. The
// table slot is removed by backward shift exactly as set.idxDelete does.
func (d *fanDir) release(e int32) {
	if d.holds[e]--; d.holds[e] > 0 {
		return
	}
	d.free = append(d.free, e)
	mask := uint32(len(d.table) - 1)
	i := uint32((d.lines[e] * fibMult) >> d.shift)
	for d.table[i].entry != e {
		i = (i + 1) & mask
	}
	for {
		d.table[i].entry = 0
		j := i
		for {
			j = (j + 1) & mask
			sl := d.table[j]
			if sl.entry == 0 {
				return
			}
			home := uint32((sl.line * fibMult) >> d.shift)
			if (j-home)&mask >= (j-i)&mask {
				d.table[i] = sl
				break
			}
		}
		i = j
	}
}

// reset empties the directory wholesale: after a purge no size holds any
// line.
func (d *fanDir) reset() {
	clear(d.table)
	d.next = 1
	d.free = d.free[:0]
}

// pushFront makes frame ni the recency-list head.
func (c *fanoutCache) pushFront(ni int32) {
	n := &c.nodes[ni]
	n.prev = -1
	n.next = c.head
	if c.head != -1 {
		c.nodes[c.head].prev = ni
	}
	c.head = ni
	if c.tail == -1 {
		c.tail = ni
	}
}

// unlink removes frame ni from the recency list.
func (c *fanoutCache) unlink(ni int32) {
	n := &c.nodes[ni]
	if n.prev != -1 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != -1 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = -1, -1
}

// access performs one demand reference to entry e's line, held in frame ni
// (-1 when absent), returning true on a hit. Accesses/WriteAccesses are
// size-independent and tallied by the organization.
func (c *fanoutCache) access(d *fanDir, e, ni int32, write bool) bool {
	if ni >= 0 {
		n := &c.nodes[ni]
		if n.flags&fanPrefetched != 0 {
			c.cur.stats.PrefetchUsed++
			n.flags &^= fanPrefetched
		}
		if c.head != ni {
			c.unlink(ni)
			c.pushFront(ni)
		}
		if write {
			n.flags |= fanDirty
		}
		return true
	}
	c.cur.stats.Misses++
	c.cur.stats.DemandFetches++
	c.cur.stats.BytesFromMemory += c.lineBytes
	// Copy-back fetch-on-write: a write miss loads the line and dirties it.
	var flags uint8
	if write {
		c.cur.stats.WriteMisses++
		flags = fanDirty
	}
	c.insert(d, e, flags)
	return false
}

// probe is the prefetch-always fetch of the next sequential line, called
// only when it is absent. The fetch is traffic, never a miss; a resident
// line's recency is left alone.
func (c *fanoutCache) probe(d *fanDir, e int32) {
	c.insert(d, e, fanPrefetched)
	c.cur.stats.PrefetchFetches++
	c.cur.stats.BytesFromMemory += c.lineBytes
}

// insert places entry e's line at the head of the recency list with the
// given flags, evicting the LRU line if the cache is full.
func (c *fanoutCache) insert(d *fanDir, e int32, flags uint8) {
	var ni int32
	if c.used < int32(len(c.nodes)) {
		ni = c.used
		c.used++
	} else {
		ni = c.tail
		c.evict(d, ni)
	}
	n := &c.nodes[ni]
	n.entry, n.flags = e, flags
	d.frames[int(e)*d.k+c.col] = ni
	d.holds[e]++
	c.pushFront(ni)
}

// evict pushes frame ni, writing back a dirty line.
func (c *fanoutCache) evict(d *fanDir, ni int32) {
	n := &c.nodes[ni]
	c.cur.stats.Pushes++
	if n.flags&fanDirty != 0 {
		c.cur.stats.DirtyPushes++
		c.cur.stats.WriteTransactions++
		c.cur.stats.BytesToMemory += c.lineBytes
	}
	d.frames[int(n.entry)*d.k+c.col] = -1
	d.release(n.entry)
	c.unlink(ni)
}

// purge pushes every resident line. Accounting matches Cache.Purge; the
// organization resets the directory wholesale afterwards.
func (c *fanoutCache) purge() {
	for ni := c.head; ni != -1; ni = c.nodes[ni].next {
		c.cur.stats.Pushes++
		c.cur.stats.PurgePushes++
		if c.nodes[ni].flags&fanDirty != 0 {
			c.cur.stats.DirtyPushes++
			c.cur.stats.WriteTransactions++
			c.cur.stats.BytesToMemory += c.lineBytes
		}
	}
	c.head, c.tail, c.used = -1, -1, 0
}
