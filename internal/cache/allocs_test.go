package cache_test

import (
	"io"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

// loopReader replays a fixed stream and rewinds without allocating, so an
// allocation measured across Run belongs to the engine, not the reader.
type loopReader struct {
	refs []trace.Ref
	pos  int
}

func (r *loopReader) Read() (trace.Ref, error) {
	if r.pos >= len(r.refs) {
		return trace.Ref{}, io.EOF
	}
	r.pos++
	return r.refs[r.pos-1], nil
}

// TestEnginesAllocateNothingPerReference: with no instrumentation installed,
// a warm engine's Run loop allocates nothing, however many references it
// processes. One allocation per reference (or per progress tick) would show
// up as thousands per Run.
func TestEnginesAllocateNothingPerReference(t *testing.T) {
	// Long enough to cross a progress-tick boundary.
	rd := &loopReader{refs: simcheck.Stream(7, 70000)}
	sizes := []int{1024, 4096, 16384}
	line := cache.Config{Size: 4096, LineSize: 16, Assoc: 2}
	engines := map[string]interface {
		Run(trace.Reader, int) (int, error)
	}{}
	sys, err := cache.NewSystem(cache.SystemConfig{Split: true, I: line, D: line, PurgeInterval: 5000})
	if err != nil {
		t.Fatal(err)
	}
	engines["System"] = sys
	ms, err := cache.NewMultiSystem(cache.MultiConfig{Sizes: sizes, LineSize: 16, PurgeInterval: 5000})
	if err != nil {
		t.Fatal(err)
	}
	engines["MultiSystem"] = ms
	fs, err := cache.NewFanoutSystem(cache.FanoutConfig{Sizes: sizes, LineSize: 16, Split: true, PurgeInterval: 5000})
	if err != nil {
		t.Fatal(err)
	}
	engines["FanoutSystem"] = fs
	victim := line
	victim.VictimLines = 4
	h, err := cache.NewHierarchy(cache.HierarchyConfig{
		L1: cache.SystemConfig{Unified: victim, PurgeInterval: 5000},
		L2: cache.Config{Size: 65536, LineSize: 32, Assoc: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	engines["Hierarchy"] = h

	for name, e := range engines {
		run := func() {
			rd.pos = 0
			if n, err := e.Run(rd, 0); err != nil || n != len(rd.refs) {
				t.Fatalf("%s: ran %d refs, err %v", name, n, err)
			}
		}
		run() // warm: grow every table to the stream's working set
		if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
			t.Errorf("%s: %.0f allocations per Run over %d refs, want 0", name, allocs, len(rd.refs))
		}
	}
}
