// Package cacheeval is a trace-driven cache evaluation library reproducing
// Alan Jay Smith's "Cache Evaluation and the Impact of Workload Choice"
// (ISCA 1985). It bundles:
//
//   - a flexible cache simulator (mapping, replacement, write policy,
//     prefetching, sector caches, split/unified, task-switch purging),
//   - a 49-trace synthetic workload corpus calibrated to the paper's
//     published per-architecture characteristics,
//   - the paper's estimation machinery (design-target miss ratios,
//     cross-workload "fudge factors"),
//   - experiment drivers that regenerate every table and figure of the
//     paper's evaluation.
//
// The root package re-exports the stable API; implementation lives under
// internal/. Quick start:
//
//	mix := cacheeval.MixByName("FGO1")
//	report, err := cacheeval.Evaluate(cacheeval.SystemConfig{
//		Unified:       cacheeval.Config{Size: 16384, LineSize: 16},
//		PurgeInterval: 20000,
//	}, mix, 0)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package cacheeval

import (
	"context"

	"cacheeval/internal/busmodel"
	"cacheeval/internal/cache"
	"cacheeval/internal/core"
	"cacheeval/internal/experiments"
	"cacheeval/internal/model"
	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

// Trace substrate.
type (
	// Ref is a single memory reference.
	Ref = trace.Ref
	// Kind classifies a reference (IFetch, Read, Write).
	Kind = trace.Kind
	// Reader is a reference stream ending with io.EOF.
	Reader = trace.Reader
	// Writer consumes references.
	Writer = trace.Writer
	// Characteristics are Table 2-style trace statistics.
	Characteristics = trace.Characteristics
)

// Reference kinds.
const (
	IFetch = trace.IFetch
	Read   = trace.Read
	Write  = trace.Write
)

// Cache simulator.
type (
	// Config describes a single cache.
	Config = cache.Config
	// SystemConfig describes a split or unified cache organization.
	SystemConfig = cache.SystemConfig
	// Cache is a single simulated cache.
	Cache = cache.Cache
	// System drives caches from a reference stream.
	System = cache.System
	// Stats are line-level cache statistics.
	Stats = cache.Stats
	// RefStats are reference-level statistics per kind.
	RefStats = cache.RefStats
	// MultiConfig configures the one-pass multi-size sweep engine.
	MultiConfig = cache.MultiConfig
	// MultiSystem simulates a demand-LRU system at every configured size in
	// one pass over the reference stream.
	MultiSystem = cache.MultiSystem
	// SizeResult is one cache size's statistics from a MultiSystem pass.
	SizeResult = cache.SizeResult
	// FanoutConfig configures the one-pass prefetch sweep engine.
	FanoutConfig = cache.FanoutConfig
	// FanoutSystem simulates a prefetch-always system at every configured
	// size in one pass over the reference stream.
	FanoutSystem = cache.FanoutSystem
	// Replacement selects LRU, FIFO or Random.
	Replacement = cache.Replacement
	// WritePolicy selects copy-back or write-through.
	WritePolicy = cache.WritePolicy
	// FetchPolicy selects demand fetch or prefetch-always.
	FetchPolicy = cache.FetchPolicy
)

// Cache policy constants.
const (
	LRU            = cache.LRU
	FIFO           = cache.FIFO
	Random         = cache.Random
	CopyBack       = cache.CopyBack
	WriteThrough   = cache.WriteThrough
	DemandFetch    = cache.DemandFetch
	PrefetchAlways = cache.PrefetchAlways
)

// Workloads.
type (
	// Spec is one named corpus trace.
	Spec = workload.Spec
	// Mix is a (possibly multiprogrammed) workload unit.
	Mix = workload.Mix
	// GenParams are the synthetic generator's knobs.
	GenParams = workload.GenParams
	// ProgramParams describe a functional-architecture program model.
	ProgramParams = workload.ProgramParams
	// ArchID identifies one of the six corpus architectures.
	ArchID = workload.ArchID
)

// Evaluation engine.
type (
	// Report is the outcome of evaluating a design against a workload.
	Report = core.Report
	// CostModel prices designs for Recommend.
	CostModel = core.CostModel
	// Candidate is one design point in a recommendation sweep.
	Candidate = core.Candidate
	// DesignTarget is a derived conservative miss-ratio estimate.
	DesignTarget = core.DesignTarget
	// WorkloadClass keys the §4 fudge factors.
	WorkloadClass = model.WorkloadClass
)

// Experiment drivers (paper tables and figures).
type (
	// ExperimentOptions scale the paper-reproduction experiments.
	ExperimentOptions = experiments.Options
	// Table1Result holds the Table 1 / Figure 1 reproduction.
	Table1Result = experiments.Table1Result
	// SweepResult holds the §3.3-§3.5 master sweep.
	SweepResult = experiments.SweepResult
)

// Design-space exploration and cross-workload evaluation.
type (
	// NamedDesign pairs a cache organization with a label for matrices.
	NamedDesign = core.NamedDesign
	// Matrix is a designs × workloads evaluation.
	Matrix = core.Matrix
	// Space is a design space for Explore.
	Space = core.Space
	// DesignPoint is one explored configuration with its Pareto flag.
	DesignPoint = core.DesignPoint
)

// EvaluateMatrix evaluates every design against every workload.
func EvaluateMatrix(designs []NamedDesign, mixes []Mix, refLimit int) (*Matrix, error) {
	return core.EvaluateMatrix(designs, mixes, refLimit)
}

// Explore sweeps a design space against one workload and marks the Pareto
// frontier.
func Explore(mix Mix, space Space, cm CostModel, refLimit int) ([]DesignPoint, error) {
	return core.Explore(mix, space, cm, refLimit)
}

// ParetoFrontier filters an exploration to its non-dominated points.
func ParetoFrontier(points []DesignPoint) []DesignPoint { return core.ParetoFrontier(points) }

// Shared-bus multiprocessor model (§3.5.2).
type (
	// BusProcessor is one processor+cache's per-reference bus behaviour.
	BusProcessor = busmodel.Processor
	// SharedBus describes the bus.
	SharedBus = busmodel.Bus
	// BusPoint is the predicted steady state for N processors.
	BusPoint = busmodel.Point
)

// BusSweep solves the shared-bus contention model for 1..maxN processors.
func BusSweep(p BusProcessor, bus SharedBus, maxN int) ([]BusPoint, error) {
	return busmodel.Sweep(p, bus, maxN)
}

// BusKnee returns the smallest processor count reaching frac of the
// sweep's peak throughput.
func BusKnee(points []BusPoint, frac float64) int { return busmodel.Knee(points, frac) }

// NewCache builds a single cache.
func NewCache(cfg Config) (*Cache, error) { return cache.New(cfg) }

// NewSystem builds a split or unified cache system.
func NewSystem(sc SystemConfig) (*System, error) { return cache.NewSystem(sc) }

// NewMultiSystem builds the one-pass multi-size sweep engine.
func NewMultiSystem(cfg MultiConfig) (*MultiSystem, error) { return cache.NewMultiSystem(cfg) }

// NewFanoutSystem builds the one-pass multi-size prefetch sweep engine.
func NewFanoutSystem(cfg FanoutConfig) (*FanoutSystem, error) { return cache.NewFanoutSystem(cfg) }

// Corpus returns the 49 named traces of the paper's workload.
func Corpus() []Spec { return workload.All() }

// CorpusUnits returns the 57 Table 1 simulation units (LISPC and VAXIMA
// expanded into their five sections).
func CorpusUnits() []Spec { return workload.Units() }

// TraceByName resolves a corpus trace (section names like "LISPC-3" work).
func TraceByName(name string) (Spec, error) { return workload.ByName(name) }

// MixByName wraps a corpus trace as a single-program Mix with its
// architecture's task-switch quantum. It panics on unknown names; use
// TraceByName to probe.
func MixByName(name string) Mix {
	spec, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	arch, err := workload.ArchByID(spec.Arch)
	if err != nil {
		panic(err)
	}
	return Mix{Name: spec.Name, Specs: []Spec{spec}, Quantum: arch.PurgeInterval}
}

// StandardMixes returns the sixteen §3.3 workload units.
func StandardMixes() []Mix { return workload.StandardMixes() }

// Evaluate runs one design against one workload.
func Evaluate(design SystemConfig, mix Mix, refLimit int) (Report, error) {
	return core.Evaluate(design, mix, refLimit)
}

// EvaluateContext is Evaluate with cancellation: the simulation aborts
// shortly after ctx is done with an error wrapping ctx.Err().
func EvaluateContext(ctx context.Context, design SystemConfig, mix Mix, refLimit int) (Report, error) {
	return core.EvaluateContext(ctx, design, mix, refLimit)
}

// Recommend sweeps cache sizes and picks the best performance per cost.
func Recommend(mix Mix, sizes []int, cm CostModel, refLimit int) ([]Candidate, int, error) {
	return core.Recommend(mix, sizes, cm, refLimit)
}

// RecommendFetch is Recommend with a caller-chosen fetch policy; demand and
// prefetch-always sweeps each run as a single pass over the stream.
func RecommendFetch(mix Mix, sizes []int, cm CostModel, refLimit int, fetch FetchPolicy) ([]Candidate, int, error) {
	return core.RecommendFetch(mix, sizes, cm, refLimit, fetch)
}

// DefaultCostModel returns the cost model used by examples.
func DefaultCostModel() CostModel { return core.DefaultCostModel() }

// DeriveDesignTargets applies the §4.1 percentile rule across the corpus.
func DeriveDesignTargets(sizes []int, lineSize, refLimit int) ([]DesignTarget, error) {
	return core.DesignTargets(sizes, lineSize, refLimit)
}

// TransferEstimate applies the §4 fudge factors across workload classes.
func TransferEstimate(measured float64, from, to WorkloadClass) (float64, error) {
	return core.TransferEstimate(measured, from, to)
}

// PaperCacheSizes returns the 32B-64K size grid of the paper's tables.
func PaperCacheSizes() []int { return append([]int(nil), model.CacheSizes...) }

// Table5Targets returns the paper's published Table 5 design-target miss
// ratios (reconstructed cells flagged).
func Table5Targets() []model.TargetRow { return model.DesignTargets() }

// Table1 regenerates the paper's Table 1 / Figure 1 data.
func Table1(o ExperimentOptions) (*Table1Result, error) { return experiments.Table1(o) }

// Sweep regenerates the master dataset behind Table 3, Figures 3-10 and
// Table 4.
func Sweep(o ExperimentOptions) (*SweepResult, error) { return experiments.Sweep(o) }

// SweepContext is Sweep with cancellation: the grid aborts shortly after
// ctx is done with an error wrapping ctx.Err().
func SweepContext(ctx context.Context, o ExperimentOptions) (*SweepResult, error) {
	return experiments.SweepContext(ctx, o)
}

// Analyze computes Table 2-style characteristics of a reference stream.
func Analyze(r Reader, lineSize, max int) (Characteristics, error) {
	return trace.Analyze(r, lineSize, max)
}
