package workload

import (
	"math"
	"math/bits"
	"math/rand"
)

// lomax samples from the Lomax (shifted Pareto) distribution with scale k0
// and shape alpha: P(D >= k) = (1 + k/k0)^(-alpha). It is the classic
// heavy-tailed model for LRU stack distances; the tail weight alpha directly
// shapes how fast a program's miss ratio falls with cache size, since for a
// fully-associative LRU cache of L lines the steady-state miss ratio of a
// stream with stack-distance distribution D is approximately P(D >= L).
func lomax(rng *rand.Rand, k0, alpha float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	// Inverse CDF: k = k0 * (u^(-1/alpha) - 1).
	return k0 * (math.Pow(u, -1/alpha) - 1)
}

// geometric samples a strictly positive run length with the given mean
// (mean >= 1). It is the natural model for the number of sequential
// references between taken branches.
func geometric(rng *rand.Rand, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	// Inverse-CDF sampling of a geometric starting at 1.
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	n := int(math.Log(u)/math.Log(1-p)) + 1
	if n < 1 {
		n = 1
	}
	return n
}

// clampDepth converts a sampled depth d >= 0 to an index in [0, n),
// clamping in float: Go leaves the conversion of a float beyond the int
// range implementation-defined (MinInt64 on amd64, saturation on arm64),
// so an oversized draw must be caught before int() for the same seed to
// give the same stream on every GOARCH. A draw at or past n-1, +Inf
// included, selects the last index.
func clampDepth(d float64, n int) int {
	if d >= float64(n-1) {
		return n - 1
	}
	return int(d)
}

// lruStack is an LRU stack over the line indices [0, n): depth 0 is the
// most recently used line. It supports finding the line at a given stack
// depth and promoting a line to the top, the two operations the generators
// use to realize a target stack-distance distribution. The stack starts in
// address order, so depth d initially holds line d; as the program runs,
// recency reorders it.
//
// It is an order-statistic structure rather than an explicit list, so both
// operations cost O(log n) instead of O(depth). Each line holds the stamp
// of its last promotion, and stamps only grow, so the line at depth d is
// the one holding the (n-d)-th smallest live stamp. A bitmap marks the live
// stamps, 64 to a word, and a Fenwick tree over the words counts them: one
// descent of the tree finds the word, and popcounts find the bit within
// it. When the stamps run out, renumber compacts the live ones to 0..n-1 in
// stack order in linear time; with capacity at least 2n that happens at
// most once per n promotions, so it costs amortized O(1). The line order is
// exactly that of an explicit LRU list, so every stream built on the stack
// is unchanged bit for bit.
type lruStack struct {
	n     int
	live  []uint64 // bit i of live[w] is set when stamp 64w+i is live
	tree  []int32  // Fenwick tree over the words of live, 1-based: set bits
	owner []uint32 // stamp -> the line it was given to
	stamp []uint32 // line -> its live stamp
	next  uint32   // the next stamp to give out; next-1 is the MRU line's
	half  int      // half the number of words: the first step of the descent
}

func newLRUStack(n int) *lruStack {
	c := 64
	for c < 2*n {
		c <<= 1
	}
	s := &lruStack{
		n:     n,
		live:  make([]uint64, c/64),
		tree:  make([]int32, c/64+1),
		owner: make([]uint32, c),
		stamp: make([]uint32, n),
		half:  c / 128,
	}
	// Address order: line 0 is the MRU, so it holds the highest stamp.
	for line := 0; line < n; line++ {
		st := uint32(n - 1 - line)
		s.stamp[line] = st
		s.owner[st] = uint32(line)
	}
	s.fill()
	return s
}

// fill marks stamps 0..n-1 live and the rest free, and rebuilds the tree
// in linear time.
func (s *lruStack) fill() {
	clear(s.live)
	for w := 0; w < s.n/64; w++ {
		s.live[w] = ^uint64(0)
	}
	if r := s.n % 64; r != 0 {
		s.live[s.n/64] = 1<<r - 1
	}
	clear(s.tree)
	for i := 1; i < len(s.tree); i++ {
		s.tree[i] += int32(bits.OnesCount64(s.live[i-1]))
		if j := i + i&-i; j < len(s.tree) {
			s.tree[j] += s.tree[i]
		}
	}
	s.next = uint32(s.n)
}

// Len returns the footprint size in lines.
func (s *lruStack) Len() int { return s.n }

// AtDepth returns the line at stack depth d, clamped to [0, n-1].
func (s *lruStack) AtDepth(d int) uint32 {
	d = min(max(d, 0), s.n-1)
	return s.owner[s.find(s.n-d)]
}

// find returns the k-th smallest live stamp (1 <= k <= n).
func (s *lruStack) find(k int) uint32 {
	w := 0
	for step := s.half; step > 0; step >>= 1 {
		if t := int(s.tree[w+step]); t < k {
			w += step
			k -= t
		}
	}
	// The k-th set bit of the word: halve by popcount, then clear the
	// lowest set bits that remain below it.
	m, b := s.live[w], 0
	if c := bits.OnesCount32(uint32(m)); c < k {
		k -= c
		m >>= 32
		b += 32
	}
	if c := bits.OnesCount16(uint16(m)); c < k {
		k -= c
		m >>= 16
		b += 16
	}
	if c := bits.OnesCount8(uint8(m)); c < k {
		k -= c
		m >>= 8
		b += 8
	}
	for ; k > 1; k-- {
		m &= m - 1
	}
	return uint32(w*64 + b + bits.TrailingZeros64(m))
}

// flip toggles stamp st's live bit and adds v (+1 or -1) to the counts.
func (s *lruStack) flip(st uint32, v int32) {
	w := st / 64
	s.live[w] ^= 1 << (st % 64)
	for i := uint(w) + 1; i < uint(len(s.tree)); i += i & -i {
		s.tree[i] += v
	}
}

// Touch promotes line to the top of the stack. Touching the top is a no-op.
func (s *lruStack) Touch(line uint32) {
	if s.stamp[line] == s.next-1 {
		return
	}
	if int(s.next) == len(s.owner) {
		s.renumber()
	}
	s.flip(s.stamp[line], -1)
	st := s.next
	s.next++
	s.flip(st, 1)
	s.owner[st] = line
	s.stamp[line] = st
}

// renumber gives the live stamps the values 0..n-1, keeping their order,
// and frees every stamp above. A stamp is live when its owner still holds
// it; compacting in place is safe because a line's live stamp is its
// newest, so no later stamp names a line already renumbered.
func (s *lruStack) renumber() {
	j := uint32(0)
	for st := uint32(0); st < s.next; st++ {
		if line := s.owner[st]; s.stamp[line] == st {
			s.owner[j] = line
			s.stamp[line] = j
			j++
		}
	}
	s.fill()
}

// Sample draws a stack depth from Lomax(k0, alpha), returns the line found
// there and promotes it. This single operation gives the reference stream a
// stack-distance distribution matching the Lomax parameters.
func (s *lruStack) Sample(rng *rand.Rand, k0, alpha float64) uint32 {
	line := s.AtDepth(clampDepth(lomax(rng, k0, alpha), s.n))
	s.Touch(line)
	return line
}
