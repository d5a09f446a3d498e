package workload

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cacheeval/internal/trace"
)

// Mix is a (possibly single-program) multiprogramming workload: the unit of
// the paper's §3.3-§3.5 simulations. Multi-program mixes are run round-robin
// with a task-switch quantum equal to the cache purge interval.
type Mix struct {
	Name string
	// Specs are the member traces. A single-spec mix is just that trace.
	Specs []Spec
	// Quantum is the task-switch interval in references (and the purge
	// interval the matching cache simulation should use).
	Quantum int
}

// TotalRefs returns the combined reference count of all members.
func (m Mix) TotalRefs() int {
	total := 0
	for _, s := range m.Specs {
		total += s.Refs
	}
	return total
}

// Open returns the mix's reference stream: its Collect output served from
// memory. Multi-program mixes interleave their members round-robin on the
// quantum, with each member rebased into a disjoint address-space prefix
// (as distinct virtual address spaces are, at least as far as a purged
// cache is concerned).
func (m Mix) Open() (trace.Reader, error) {
	refs, err := m.Collect(context.Background(), 1, 0)
	if err != nil {
		return nil, err
	}
	return trace.NewSliceReader(refs), nil
}

// Collect materializes the mix's round-robin stream into one slice. The
// schedule is the one §3.3 describes: members take turns in index order,
// each turn taking min(Quantum, left) of the member's references, and an
// exhausted member drops out while the rotation goes on with the next (see
// turnStart). Every member of a multi-program mix has its addresses ORed
// with (i+1)<<33, clear of the code/data region bits, so the address spaces
// stay disjoint.
//
// limit > 0 caps the stream at its first limit references, a prefix of the
// schedule; per-member caps are the members' Refs. Each member's generator
// writes its turns straight into their final slots, so members are
// independent: up to workers goroutines generate them concurrently, and
// workers <= 1 runs every member on the calling goroutine without starting
// one. The output is identical for every worker count. ctx is polled at
// least once per turn (every pollRefs references); on cancellation Collect
// returns ctx.Err() once every goroutine it started has exited.
func (m Mix) Collect(ctx context.Context, workers, limit int) ([]trace.Ref, error) {
	if len(m.Specs) == 0 {
		return nil, fmt.Errorf("workload: mix %q has no members", m.Name)
	}
	quantum := m.Quantum
	if quantum < 1 {
		quantum = 1
	}
	lens := make([]int, len(m.Specs))
	total := 0
	for i, s := range m.Specs {
		lens[i] = max(s.Refs, 0)
		total += lens[i]
	}
	if limit > 0 && limit < total {
		total = limit
	}
	out := make([]trace.Ref, total)
	workers = min(workers, len(m.Specs))
	if workers <= 1 {
		for i := range m.Specs {
			if err := m.fillMember(ctx, out, lens, quantum, i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	// Members are handed out in index order; each writes only its own
	// slots and its own error.
	errs := make([]error, len(m.Specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(m.Specs); i = int(next.Add(1)) - 1 {
				errs[i] = m.fillMember(ctx, out, lens, quantum, i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// fillMember generates member i's references into its turns' slots of out,
// stopping at the end of out.
func (m Mix) fillMember(ctx context.Context, out []trace.Ref, lens []int, quantum, i int) error {
	if lens[i] == 0 || turnStart(lens, quantum, i, 0) >= len(out) {
		return nil
	}
	s := m.Specs[i]
	g, err := NewGenerator(s.Params, s.Seed)
	if err != nil {
		return fmt.Errorf("workload: %s: %w", s.Name, err)
	}
	var base uint64
	if len(m.Specs) > 1 {
		base = uint64(i+1) << 33
	}
	for done := 0; done < lens[i]; done += quantum {
		at := turnStart(lens, quantum, i, done)
		if at >= len(out) {
			return nil
		}
		end := at + min(quantum, lens[i]-done, len(out)-at)
		for ; at < end; at += pollRefs {
			if err := ctx.Err(); err != nil {
				return err
			}
			g.fill(out[at:min(at+pollRefs, end)], base)
		}
	}
	return nil
}

// pollRefs is how many references a member generates between context
// polls: a cancelled fill stops within about 0.1 ms, as a stream read
// through trace.ContextReader does, instead of finishing a whole quantum.
const pollRefs = 1024

// turnStart returns where, in a round-robin stream of members with the
// given lengths, member i's turn starting at its own reference done (a
// multiple of quantum below lens[i]) begins. Round r = done/quantum opens
// after every member has supplied min(done, len) references; within the
// round the members before i that are still live each take
// min(quantum, left). This is the rotation of a reader that cycles its
// live members, takes a quantum from each and drops one at its end of
// stream: an exhausted member's turn is skipped, so the next member's turn
// starts at once, and a lone survivor takes turn after turn.
func turnStart(lens []int, quantum, i, done int) int {
	at := 0
	for j, n := range lens {
		at += min(n, done)
		if j < i && n > done {
			at += min(quantum, n-done)
		}
	}
	return at
}

// mustSpec resolves a corpus name, panicking on registry bugs (the standard
// mixes reference only built-in names, so failure is programmer error).
func mustSpec(name string) Spec {
	s, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

// mixOf builds a Mix from corpus trace names.
func mixOf(name string, quantum int, members ...string) Mix {
	specs := make([]Spec, len(members))
	for i, n := range members {
		specs[i] = mustSpec(n)
	}
	return Mix{Name: name, Specs: specs, Quantum: quantum}
}

// singleMix wraps one corpus trace as a Mix with its architecture's purge
// quantum.
func singleMix(name string) Mix {
	s := mustSpec(name)
	return Mix{Name: name, Specs: []Spec{s}, Quantum: Archs()[s.Arch].PurgeInterval}
}

// StandardMixes returns the sixteen workload units of the paper's Table 3
// (and reused by the §3.4 split-cache and §3.5 prefetch simulations): twelve
// individual traces and four round-robin multiprogramming assortments.
func StandardMixes() []Mix {
	lispc := mustSpec("LISPC")
	vaxima := mustSpec("VAXIMA")
	return []Mix{
		{Name: "LISP Compiler - 5 Sections", Specs: Sections(lispc), Quantum: 20000},
		{Name: "VAXIMA - 5 Sections", Specs: Sections(vaxima), Quantum: 20000},
		singleMix("VCCOM"),
		singleMix("VSPICE"),
		singleMix("VOTMD1"),
		singleMix("VPUZZLE"),
		singleMix("VTEKOFF"),
		singleMix("FGO1"),
		singleMix("FGO2"),
		singleMix("CGO1"),
		singleMix("FCOMP1"),
		singleMix("CCOMP1"),
		singleMix("MVS1"),
		singleMix("MVS2"),
		mixOf("Z8000 - Assorted", 20000, "ZVI", "ZGREP", "ZPR", "ZOD", "ZSORT"),
		mixOf("CDC 6400 - Assorted", 20000, "TWOD1", "PPAS", "PPAL", "DIPOLE", "MOTIS"),
	}
}

// M68000Mix returns the four M68000 traces as a round-robin mix with the
// paper's 15,000-reference quantum (§3.5).
func M68000Mix() Mix {
	return mixOf("M68000 - Assorted", 15000, "PLO", "MATCH", "SORT", "STAT")
}
