// Package workload synthesizes program address traces calibrated to the
// characteristics the paper reports for its 49-trace corpus (Table 2 and
// the per-architecture discussion in §2-§3). The original 1985 traces are
// lost; see DESIGN.md §2 for why streams matching those first-order
// statistics preserve the behaviour every experiment in the paper measures.
//
// Two generator layers are provided:
//
//   - Generator emits memory references directly with precise control over
//     the reference mix, sequential-run lengths and stack-distance locality.
//     The corpus of named traces (corpus.go) is built on it.
//   - Program (program.go) models a program at the functional-architecture
//     level — whole instructions and operands — and is combined with
//     memsys.Shaper to study how the memory interface width changes the
//     stream (the paper's §1.1 point and the Z80000 critique of §1.2).
//
// # The LRU stack
//
// Both layers draw locality from an LRU stack (sampler.go): a Lomax draw
// picks a stack depth, the line there is referenced and promoted. The
// stack is an order-statistic structure — recency stamps, a bitmap of the
// live ones and a Fenwick tree counting them per 64-stamp word — so
// finding a depth and promoting a line cost O(log n), not the O(depth)
// shift of an explicit list; renumbering the stamps when they run out is
// linear and amortized O(1). It orders lines exactly as an explicit list
// would, the depth draws and their RNG order are untouched, and an
// oversized draw is clamped in float before its int conversion, so every
// stream is bit-identical to the list-based generator's on every GOARCH.
// stream_golden_test.go pins a hash of each corpus unit's full stream.
//
// # Calibration methodology
//
// This note documents how the synthetic corpus was calibrated so that a
// future maintainer can re-tune it after changing the generator. The
// executable form of everything below is cmd/calibrate (aggregate
// comparison against the paper's targets) and calibration_test.go (the
// regression contract).
//
// # What is calibrated
//
// Each reporting group (the six architectures, with VAX split into LISP and
// non-LISP per the paper's §3.1) is pinned to the statistics the paper's
// text states:
//
//   - reference mix: %ifetch/%read/%write (Table 2 discussion; §3.2);
//   - taken-branch fraction of instruction fetches under the ±8-byte
//     heuristic (§3.2);
//   - address-space footprint, Aspace = 16·(#Ilines + #Dlines) (§3.2);
//   - fully-associative LRU miss ratios at 1K/4K/16K/64K (§3.1);
//   - the Table 3 dirty-push fractions under the 16K+16K purged split.
//
// # Which knob moves which statistic
//
// The knobs are intentionally near-orthogonal:
//
//   - FracIFetch/FracRead set the mix directly (kinds are drawn i.i.d.).
//   - SeqRunRefs sets the branch fraction at roughly 1/SeqRunRefs; the
//     discretized geometric runs slightly long, so tuned values sit ~7%
//     below the naive 1/target (e.g. 4.55 for a 0.175 target).
//   - CodeLines/DataLines set the footprint; the observed Aspace converges
//     to nearly the full configured footprint within 250K references.
//   - LoopFrac/MeanLoopIters are the dominant instruction-miss lever at a
//     fixed branch frequency: a loop re-executes its run, dividing the
//     fresh-line rate by roughly the mean iteration count. Without loops,
//     tightening branch-target locality (CodeK0) paradoxically *raises*
//     the miss ratio, because near-exclusive forward motion turns the
//     instruction stream into a slow cyclic scan of the whole code
//     segment.
//   - CodeK0/CodeAlpha and DataK0/DataAlpha shape the Lomax stack-distance
//     tails: the miss-vs-size curve's slope. Heavier tails (alpha < 1)
//     give the flat, bad curves of MVS; light tails the steep curves of
//     the toys. Remember the unified cache is shared: a stream's
//     effective share of an L-line cache is roughly L divided by ~2.8, so
//     pick K0 against that, not against L.
//   - SeqFrac/MeanScanLines/ScanLocal control the data-scan component:
//     ScanLocal is the re-pass probability; without it, cold scan starts
//     put a size-independent floor under the data miss ratio.
//   - WriteSpread is the Table 3 lever: streamed writes dirty many lines
//     (pushed dirty), hot-region writes dirty few. ScanWriteShare makes
//     write scans chase read scans (the Fortran A(i)=f(B(i)) pattern) —
//     required for the CDC group's 0.80.
//
// # Procedure
//
// 1. Adjust per-architecture defaults in arch.go (or per-trace mutations in
// corpus.go) one statistic at a time, in the order mix → branch →
// footprint → miss curve → dirty fraction; later knobs barely disturb
// earlier statistics.
//
// 2. Run `go run ./cmd/calibrate` and compare the group table against the
// targets it prints (add -traces for per-trace rows).
//
// 3. Check Table 3 with `go run ./cmd/paperrepro -experiment table3`.
//
// 4. Run `go test ./internal/workload/` — calibration_test.go enforces the
// bands, and the corpus tests pin structural facts (counts, seeds,
// code-heavy Z8000 traces, section drift).
package workload
