package workload_test

// Mix stream golden: TestStreamGolden pins every unit on its own, this file
// pins how the paper-grid mixes interleave them. A change to how a mix is
// materialized (the round-robin schedule, the rebasing, the worker count)
// must leave testdata/mixes.golden passing unedited; a deliberate stream
// change regenerates it with
//
//	go test ./internal/workload -run TestMixStreamGolden -update

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"cacheeval/internal/experiments"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

const mixGoldenFile = "testdata/mixes.golden"

// mixGoldenMemberLimit is the per-member cap of the reduced-scale form
// (experiments.Options.RefLimit, the sweep endpoint's ref_limit).
const mixGoldenMemberLimit = 5000

// mixGoldenTotalLimit is the total cap of the evaluate form (a prefix of
// the round-robin schedule, as the evaluate endpoint takes it). It is no
// multiple of either catalog quantum (20,000 and 15,000), so it cuts every
// multi-member mix mid-quantum.
const mixGoldenTotalLimit = 123457

// mixGoldenWorkers are the materialization worker counts every line must
// agree across.
var mixGoldenWorkers = []int{1, 4}

// mixGolden renders one line per (mix, form): the full stream, the
// per-member-limited stream and the total-capped stream, each checked to
// be identical at every worker count in mixGoldenWorkers.
func mixGolden(t *testing.T) string {
	t.Helper()
	ctx := context.Background()
	var b strings.Builder
	for _, m := range append(workload.StandardMixes(), workload.M68000Mix()) {
		forms := []struct {
			name    string
			collect func(workers int) ([]trace.Ref, error)
		}{
			{"full", func(w int) ([]trace.Ref, error) {
				return experiments.Options{Workers: w}.CollectMixContext(ctx, m)
			}},
			{fmt.Sprintf("member%d", mixGoldenMemberLimit), func(w int) ([]trace.Ref, error) {
				return experiments.Options{RefLimit: mixGoldenMemberLimit, Workers: w}.CollectMixContext(ctx, m)
			}},
			{fmt.Sprintf("total%d", mixGoldenTotalLimit), func(w int) ([]trace.Ref, error) {
				return m.Collect(ctx, w, mixGoldenTotalLimit)
			}},
		}
		for _, f := range forms {
			var line string
			for _, w := range mixGoldenWorkers {
				refs, err := f.collect(w)
				if err != nil {
					t.Fatalf("%s %s workers=%d: %v", m.Name, f.name, w, err)
				}
				n, sum, err := streamHash(trace.NewSliceReader(refs), 0)
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("mix %q %s %d %016x\n", m.Name, f.name, n, sum)
				if line != "" && got != line {
					t.Errorf("workers=%d: %q, workers=%d: %q", mixGoldenWorkers[0], line, w, got)
				}
				line = got
			}
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestMixStreamGolden pins a hash of every paper-grid mix's materialized
// stream (the sixteen standard mixes plus the M68000 assortment) at full
// length, at a per-member limit and under a total cap that cuts
// mid-quantum, at one and at four materialization workers.
func TestMixStreamGolden(t *testing.T) {
	got := mixGolden(t)
	if *update {
		if err := os.WriteFile(mixGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(mixGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
