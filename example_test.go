package cacheeval_test

// Runnable documentation examples; outputs are deterministic because every
// generator in the library is explicitly seeded.

import (
	"fmt"

	"cacheeval"
)

// Evaluate one cache design against one corpus workload.
func ExampleEvaluate() {
	mix := cacheeval.MixByName("ZGREP") // a Z8000 Unix utility
	report, err := cacheeval.Evaluate(cacheeval.SystemConfig{
		Unified:       cacheeval.Config{Size: 4096, LineSize: 16},
		PurgeInterval: 20000,
	}, mix, 50000)
	if err != nil {
		panic(err)
	}
	fmt.Printf("workload %s: %d refs, miss ratio %.3f\n",
		report.Workload, report.Refs, report.MissRatio)
	// Output:
	// workload ZGREP: 50000 refs, miss ratio 0.013
}

// The one-pass multi-size engine gives every cache size from a single run.
func ExampleNewMultiSystem() {
	spec, err := cacheeval.TraceByName("PLO")
	if err != nil {
		panic(err)
	}
	rd, err := spec.Open()
	if err != nil {
		panic(err)
	}
	sim, err := cacheeval.NewMultiSystem(cacheeval.MultiConfig{
		Sizes: []int{256, 1024, 4096}, LineSize: 16,
	})
	if err != nil {
		panic(err)
	}
	if _, err := sim.Run(rd, 50000); err != nil {
		panic(err)
	}
	for _, r := range sim.Results() {
		fmt.Printf("%dB: %.3f\n", r.Size, r.Ref.MissRatio())
	}
	// Output:
	// 256B: 0.048
	// 1024B: 0.013
	// 4096B: 0.004
}

// Workload-class fudge factors transfer measurements across architectures,
// the paper's §4 machinery behind the Z80000 critique.
func ExampleTransferEstimate() {
	// A miss ratio measured with Z8000 utility traces...
	measured := 0.031
	// ...estimated for an IBM-batch-class (32-bit, mature software) workload.
	est, err := cacheeval.TransferEstimate(measured, 1, 5)
	if err != nil {
		panic(err)
	}
	fmt.Printf("measured %.3f -> estimated %.3f\n", measured, est)
	// Output:
	// measured 0.031 -> estimated 0.170
}

// The shared-bus model quantifies §3.5.2: how many processors can one bus
// carry?
func ExampleBusSweep() {
	proc := cacheeval.BusProcessor{
		HitCycles:       1,
		MissPenalty:     10,
		MissesPerRef:    0.05,
		TransfersPerRef: 0.07,
	}
	points, err := cacheeval.BusSweep(proc, cacheeval.SharedBus{ServiceCycles: 4}, 32)
	if err != nil {
		panic(err)
	}
	fmt.Printf("1 cpu: %.2f refs/cycle\n", points[0].Throughput)
	fmt.Printf("knee:  %d processors\n", cacheeval.BusKnee(points, 0.95))
	// Output:
	// 1 cpu: 0.65 refs/cycle
	// knee:  14 processors
}

// Table-2-style characteristics of any reference stream.
func ExampleAnalyze() {
	spec, err := cacheeval.TraceByName("TWOD1")
	if err != nil {
		panic(err)
	}
	rd, err := spec.Open()
	if err != nil {
		panic(err)
	}
	ch, err := cacheeval.Analyze(rd, 16, 100000)
	if err != nil {
		panic(err)
	}
	fmt.Printf("ifetch %.1f%%, branch %.1f%% of ifetches\n",
		100*ch.FracIFetch(), 100*ch.FracBranch())
	// Output:
	// ifetch 77.1%, branch 3.9% of ifetches
}
