package cache_test

// The classic Mattson stack algorithm's contract — one pass yields the
// fully-associative LRU demand miss count at every size — held against
// MultiSystem, the engine Table 1, Figure 2, the variance study and the
// design targets run through core.RunSweep.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cacheeval/internal/cache"
	"cacheeval/internal/trace"
)

// stackRun runs addrs (4-byte reads, so none straddles a line) through a
// unified, unpurged MultiSystem with 16-byte lines.
func stackRun(t *testing.T, sizes []int, addrs []uint64) []cache.SizeResult {
	t.Helper()
	ms, err := cache.NewMultiSystem(cache.MultiConfig{Sizes: sizes, LineSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		ms.Ref(trace.Ref{Addr: a, Size: 4, Kind: trace.Read})
	}
	return ms.Results()
}

func TestStackSimBasics(t *testing.T) {
	res := stackRun(t, []int{32, 64}, []uint64{0, 16, 32, 0, 16})
	if got := res[0].Ref.TotalRefs(); got != 5 {
		t.Fatalf("accesses = %d", got)
	}
	// At 3+ lines: only the 3 cold misses. The re-references are at stack
	// distance 2, so a 2-line cache misses them too.
	if got := res[1].Ref.TotalMisses(); got != 3 {
		t.Fatalf("misses(64B) = %d, want 3", got)
	}
	if got := res[0].Ref.TotalMisses(); got != 5 {
		t.Fatalf("misses(32B) = %d, want 5", got)
	}
	if got := res[1].Ref.MissRatio(); got != 0.6 {
		t.Fatalf("miss ratio = %v, want 0.6", got)
	}
	if res[0].Ref.MissRatio() != 1.0 {
		t.Fatalf("miss ratio(32B) = %v, want 1", res[0].Ref.MissRatio())
	}
}

func TestStackSimValidation(t *testing.T) {
	for _, line := range []int{0, 17} {
		if _, err := cache.NewMultiSystem(cache.MultiConfig{Sizes: []int{1024}, LineSize: line}); err == nil {
			t.Errorf("line size %d must be rejected", line)
		}
	}
}

func TestStackSimEmpty(t *testing.T) {
	if stackRun(t, []int{1024}, nil)[0].Ref.MissRatio() != 0 {
		t.Error("empty run miss ratio must be 0")
	}
}

func TestStackSimRun(t *testing.T) {
	refs := make([]trace.Ref, 30)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(i%5) * 16, Size: 4}
	}
	ms, err := cache.NewMultiSystem(cache.MultiConfig{Sizes: []int{1024}, LineSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	n, err := ms.Run(trace.NewSliceReader(refs), 10)
	if err != nil || n != 10 {
		t.Fatalf("Run = %d, %v", n, err)
	}
}

// TestStackSimMatchesCache is the load-bearing equivalence: the one-pass
// stack algorithm must agree exactly with the explicit fully-associative
// LRU demand simulation at every size. Table 1 depends on it.
func TestStackSimMatchesCache(t *testing.T) {
	sizes := []int{32, 64, 256, 1024, 4096, 16384}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		addrs := make([]uint64, 3000)
		for i := range addrs {
			switch rng.Intn(3) {
			case 0: // sequential walk
				if i > 0 {
					addrs[i] = addrs[i-1] + 4
				}
			case 1: // loopy re-reference
				addrs[i] = uint64(rng.Intn(30)) * 16
			default: // scattered
				addrs[i] = uint64(rng.Intn(500)) * 16
			}
		}
		res := stackRun(t, sizes, addrs)
		for i, size := range sizes {
			c, err := cache.New(cache.Config{Size: size, LineSize: 16})
			if err != nil {
				return false
			}
			for _, a := range addrs {
				c.Access(a, false, 0)
			}
			if c.Stats().Misses != res[i].Ref.TotalMisses() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestStackSimMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	addrs := make([]uint64, 10000)
	lines := map[uint64]bool{}
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(400)) * 8
		lines[addrs[i]/16] = true
	}
	var sizes []int
	for size := 32; size <= 65536; size *= 2 {
		sizes = append(sizes, size)
	}
	res := stackRun(t, sizes, addrs)
	prev := ^uint64(0)
	for i, size := range sizes {
		m := res[i].Ref.TotalMisses()
		if m > prev {
			t.Fatalf("misses increased with size at %d: %d > %d", size, m, prev)
		}
		prev = m
	}
	// At sizes beyond the footprint only cold misses remain.
	if prev != uint64(len(lines)) {
		t.Fatalf("huge-cache misses = %d, want footprint %d", prev, len(lines))
	}
}
