package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLomaxTail(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const k0, alpha = 10.0, 1.5
	n := 200000
	countGE := func(samples []float64, k float64) float64 {
		c := 0
		for _, s := range samples {
			if s >= k {
				c++
			}
		}
		return float64(c) / float64(len(samples))
	}
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = lomax(rng, k0, alpha)
	}
	// P(D >= k) = (1 + k/k0)^(-alpha); check a few quantiles within 2%.
	for _, k := range []float64{5, 10, 50, 200} {
		want := math.Pow(1+k/k0, -alpha)
		got := countGE(samples, k)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("P(D>=%v) = %v, want %v", k, got, want)
		}
	}
}

func TestLomaxNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			if lomax(rng, 5, 1.2) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestGeometricMean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, mean := range []float64{1, 2, 7.25, 24} {
		var sum float64
		n := 100000
		for i := 0; i < n; i++ {
			g := geometric(rng, mean)
			if g < 1 {
				t.Fatalf("geometric(%v) returned %d < 1", mean, g)
			}
			sum += float64(g)
		}
		got := sum / float64(n)
		// The discretized geometric is within ~10% of the requested mean.
		if mean > 1 && math.Abs(got-mean)/mean > 0.1 {
			t.Errorf("geometric mean for %v = %v", mean, got)
		}
		if mean <= 1 && got != 1 {
			t.Errorf("mean <= 1 must give constant 1, got %v", got)
		}
	}
}

func TestLRUStackBasics(t *testing.T) {
	s := newLRUStack(5)
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Pre-filled in address order.
	for d := 0; d < 5; d++ {
		if got := s.AtDepth(d); got != uint32(d) {
			t.Fatalf("AtDepth(%d) = %d", d, got)
		}
	}
	s.Touch(3)
	if s.AtDepth(0) != 3 {
		t.Fatalf("after Touch(3), top = %d", s.AtDepth(0))
	}
	// The rest shift down preserving order: 0,1,2,4.
	want := []uint32{3, 0, 1, 2, 4}
	for d, w := range want {
		if got := s.AtDepth(d); got != w {
			t.Fatalf("depth %d = %d, want %d", d, got, w)
		}
	}
	// Touching the top is a no-op.
	s.Touch(3)
	if s.AtDepth(0) != 3 || s.AtDepth(1) != 0 {
		t.Fatal("touching MRU must not reorder")
	}
}

func TestLRUStackClamps(t *testing.T) {
	s := newLRUStack(3)
	if s.AtDepth(99) != s.AtDepth(2) {
		t.Error("deep AtDepth must clamp to the deepest entry")
	}
	if s.AtDepth(-1) != s.AtDepth(0) {
		t.Error("negative AtDepth must clamp to the top")
	}
}

// naiveStack is the reference the order-statistic stack is checked
// against: an explicit recency list, [0] = MRU, in address order at start.
type naiveStack []uint32

func newNaiveStack(n int) naiveStack {
	s := make(naiveStack, n)
	for i := range s {
		s[i] = uint32(i)
	}
	return s
}

func (s naiveStack) at(d int) uint32 { return s[min(max(d, 0), len(s)-1)] }

func (s naiveStack) touch(line uint32) {
	i := 0
	for s[i] != line {
		i++
	}
	copy(s[1:i+1], s[:i])
	s[0] = line
}

// firstDiff returns the first depth, out-of-range probes included, at
// which s and want disagree, and whether there is one.
func firstDiff(s *lruStack, want naiveStack) (int, bool) {
	for d := -1; d <= len(want)+1; d++ {
		if s.AtDepth(d) != want.at(d) {
			return d, true
		}
	}
	return 0, false
}

// TestLRUStackInvariant checks the stack against a naive recency list at
// every depth after every operation, over random Touch and Sample
// sequences. The stack renumbers its stamps at least once per
// max(62, 3n) promotions, so each run crosses several renumberings;
// n = 1 and 2 are always covered.
func TestLRUStackInvariant(t *testing.T) {
	sizes := []int{1, 2, 3, 7, 64, 65}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6; i++ {
		sizes = append(sizes, 1+rng.Intn(300))
	}
	for _, n := range sizes {
		seed := rng.Int63()
		ops := rand.New(rand.NewSource(seed))
		// Sample draws from one source; the naive side replays the same
		// draws from a twin.
		draws, twin := rand.New(rand.NewSource(seed+1)), rand.New(rand.NewSource(seed+1))
		s, want := newLRUStack(n), newNaiveStack(n)
		for step := 0; step < 40*n+500; step++ {
			switch ops.Intn(3) {
			case 0:
				line := uint32(ops.Intn(n))
				s.Touch(line)
				want.touch(line)
			case 1:
				// Re-touch a shallow line, as a sequential run does.
				line := want.at(ops.Intn(3))
				s.Touch(line)
				want.touch(line)
			default:
				got := s.Sample(draws, 3, 1.2)
				line := want.at(clampDepth(lomax(twin, 3, 1.2), n))
				want.touch(line)
				if got != line {
					t.Fatalf("n=%d step %d: Sample = %d, want %d", n, step, got, line)
				}
			}
			if d, differ := firstDiff(s, want); differ {
				t.Fatalf("n=%d step %d: stacks differ at depth %d", n, step, d)
			}
		}
	}
}

// FuzzLRUStack drives the same comparison with fuzz bytes: the first byte
// sizes the stack, and each later byte either touches a line or promotes
// the line at a depth, probing past both ends.
func FuzzLRUStack(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2})
	f.Add([]byte{1, 0x81, 0x80, 0x81, 3, 4})
	f.Add([]byte{9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x90, 0xff, 0x88, 0x8a, 0x85})
	// n = 64 and 400 promotions: several renumberings.
	ramp := []byte{63}
	for i := 0; i < 400; i++ {
		ramp = append(ramp, byte(i*37))
	}
	f.Add(ramp)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%64
		s, want := newLRUStack(n), newNaiveStack(n)
		for i, b := range data[1:] {
			line := uint32(int(b) % n)
			if b&0x80 != 0 {
				d := int(b&0x7f) - 8
				line = want.at(d)
				if got := s.AtDepth(d); got != line {
					t.Fatalf("op %d: AtDepth(%d) = %d, want %d", i, d, got, line)
				}
			}
			s.Touch(line)
			want.touch(line)
			if d, differ := firstDiff(s, want); differ {
				t.Fatalf("op %d: stacks differ at depth %d", i, d)
			}
		}
	})
}

func TestClampDepth(t *testing.T) {
	for _, c := range []struct {
		d    float64
		n    int
		want int
	}{
		{0, 5, 0},
		{3.99, 5, 3},
		{4, 5, 4},
		{4.5, 5, 4},
		{1e30, 5, 4},
		{math.Ldexp(1, 63), 5, 4},
		{math.Inf(1), 5, 4},
		{0, 1, 0},
		{7, 1, 0},
	} {
		if got := clampDepth(c.d, c.n); got != c.want {
			t.Errorf("clampDepth(%g, %d) = %d, want %d", c.d, c.n, got, c.want)
		}
	}
}

// TestLRUStackSampleOversizedDraw feeds draws far beyond the int range
// (k0 = 1e300 makes every draw oversized): each must select the deepest
// line on every GOARCH, not whatever the float->int conversion yields.
func TestLRUStackSampleOversizedDraw(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := newLRUStack(8)
	for i := 0; i < 50; i++ {
		deepest := s.AtDepth(7)
		if got := s.Sample(rng, 1e300, 0.5); got != deepest {
			t.Fatalf("draw %d: Sample = %d, want the deepest line %d", i, got, deepest)
		}
	}
}

func TestLRUStackSamplePromotes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := newLRUStack(100)
	line := s.Sample(rng, 10, 1.5)
	if s.AtDepth(0) != line {
		t.Fatal("Sample must promote the chosen line")
	}
}
