package cache_test

import (
	"fmt"
	"math/rand"
	"testing"

	"cacheeval/internal/cache"
	"cacheeval/internal/simcheck"
	"cacheeval/internal/trace"
)

// FuzzConfigValidate fuzzes the configuration space: Validate must never
// panic and must agree with New (New succeeds exactly when Validate passes),
// and any accepted configuration of testable size must survive a burst of
// accesses with clean internal invariants — cross-checked access-by-access
// against the naive reference model whenever the policy is deterministic.
func FuzzConfigValidate(f *testing.F) {
	f.Add(256, 16, 0, 0, uint8(0), uint8(0), uint8(0), false, 0)
	f.Add(512, 32, 4, 8, uint8(1), uint8(0), uint8(0), false, 0)
	f.Add(256, 16, 0, 4, uint8(0), uint8(1), uint8(2), true, 8)
	f.Add(128, 16, 2, 8, uint8(2), uint8(0), uint8(3), false, 0)
	f.Add(256, 16, 0, 0, uint8(3), uint8(0), uint8(0), false, 0)  // LFU
	f.Add(512, 16, 4, 0, uint8(4), uint8(0), uint8(1), false, 0)  // SLRU + prefetch
	f.Add(256, 16, 2, 0, uint8(5), uint8(0), uint8(0), false, 0)  // ARC
	f.Add(100, 16, 0, 0, uint8(0), uint8(0), uint8(0), false, 0)  // not pow2
	f.Add(16, 64, 0, 0, uint8(0), uint8(0), uint8(0), false, 0)   // line > size
	f.Add(256, 16, 3, 0, uint8(0), uint8(0), uint8(0), false, 0)  // assoc not pow2
	f.Add(256, 16, 0, -1, uint8(0), uint8(0), uint8(0), false, 0) // negative sub-block
	f.Add(64, 64, 0, 0, uint8(0), uint8(0), uint8(0), false, -3)  // bad combine
	f.Add(256, 16, 0, 0, uint8(7), uint8(0), uint8(0), false, 0)  // out-of-range policy
	f.Fuzz(func(t *testing.T, size, lineSize, assoc, subBlock int, repl, write, fetch uint8, nwa bool, combine int) {
		// Policy bytes pass through raw on a slice of the space so the
		// out-of-range rejection paths stay fuzzed; the modulo keeps most
		// of the corpus inside the valid policy family.
		cfg := cache.Config{
			Size: size, LineSize: lineSize, Assoc: assoc, SubBlock: subBlock,
			Repl:            cache.Replacement(repl),
			Write:           cache.WritePolicy(write),
			Fetch:           cache.FetchPolicy(fetch),
			NoWriteAllocate: nwa, CombineWidth: combine,
		}
		if repl%4 != 3 {
			cfg.Repl = cache.Replacement(repl % 6)
			cfg.Write = cache.WritePolicy(write % 2)
			cfg.Fetch = cache.FetchPolicy(fetch % 4)
		}
		verr := cfg.Validate()
		if verr != nil {
			if _, err := cache.New(cfg); err == nil {
				t.Fatalf("Validate rejected %+v (%v) but New accepted it", cfg, verr)
			}
			return
		}
		if cfg.Size > 1<<18 {
			return // valid but too large to build at fuzzing throughput
		}
		c, err := cache.New(cfg)
		if err != nil {
			t.Fatalf("Validate accepted %+v but New rejected it: %v", cfg, err)
		}
		var oracle *simcheck.RefCache
		if cfg.Repl != cache.Random {
			if oracle, err = simcheck.NewRefCache(cfg); err != nil {
				t.Fatalf("reference model rejected valid config %+v: %v", cfg, err)
			}
		}
		rng := rand.New(rand.NewSource(int64(size)*2654435761 + int64(lineSize)))
		for i := 0; i < 300; i++ {
			addr := uint64(rng.Intn(1 << 12))
			write := rng.Intn(3) == 0
			got := c.Access(addr, write, 1)
			if oracle != nil {
				if want := oracle.Access(addr, write, 1); got != want {
					t.Fatalf("%+v ref %d (addr %#x write %v): impl hit=%v, oracle hit=%v",
						cfg, i, addr, write, got, want)
				}
			}
			if i == 150 {
				c.Purge()
				if oracle != nil {
					oracle.Purge()
				}
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if oracle != nil {
			if got, want := c.Stats(), oracle.Stats(); got != want {
				t.Fatalf("%+v: stats diverge\n  impl %+v\noracle %+v", cfg, got, want)
			}
		}
	})
}

// encodeFanoutRefs is the inverse of the reference decoding in
// FuzzFanoutMatchesSystem for references in the bottom 4 KB.
func encodeFanoutRefs(refs []trace.Ref) []byte {
	data := make([]byte, 0, 3*len(refs))
	for _, r := range refs {
		data = append(data, byte(r.Addr), byte(r.Addr>>8)&0x0f|byte(r.Kind)<<4, r.Size)
	}
	return data
}

// FuzzFanoutMatchesSystem holds the fan-out engine to one System per size
// on arbitrary inputs. The bytes decode into references, three bytes each:
// a 12-bit offset into the bottom or the top 4 KB of the address space, a
// kind and a size. The other arguments pick the size subset (bit j of
// sizeMask selects lineSize<<j), the line size (4 to 32 bytes), the purge
// quantum and the organization. Results and RefSnapshot are compared
// halfway through the stream and at its end. The corpus is seeded with the
// hand-off streams of TestFanoutTwinHandoff.
func FuzzFanoutMatchesSystem(f *testing.F) {
	var handoffMask uint16
	for _, size := range handoffSizes {
		handoffMask |= uint16(size / 16)
	}
	for _, refs := range handoffStreams() {
		for _, q := range []uint16{0, 5} {
			f.Add(encodeFanoutRefs(refs), handoffMask, uint8(2), q, false)
			f.Add(encodeFanoutRefs(refs), handoffMask, uint8(2), q, true)
		}
	}
	f.Add(encodeFanoutRefs(simcheck.Stream(5, 300)), uint16(0x3ff), uint8(1), uint16(37), true)
	// Straddles of the top of the address space.
	f.Add([]byte{0xf0, 0x8f, 40, 0xfe, 0x9f, 4, 0x00, 0x80, 1, 0x00, 0x00, 1}, uint16(0x7), uint8(2), uint16(0), false)
	f.Fuzz(func(t *testing.T, data []byte, sizeMask uint16, lineLog uint8, quantum uint16, split bool) {
		if len(data) > 3*512 {
			data = data[:3*512] // bounds the cost of one run
		}
		refs := make([]trace.Ref, 0, len(data)/3)
		for i := 0; i+3 <= len(data); i += 3 {
			r := trace.Ref{
				Addr: uint64(data[i]) | uint64(data[i+1]&0x0f)<<8,
				Kind: trace.Kind(data[i+1]>>4&3) % 3,
				Size: data[i+2],
			}
			if data[i+1]&0x80 != 0 {
				r.Addr |= ^uint64(0xfff) // the top 4 KB, where references wrap
			}
			refs = append(refs, r)
		}
		lineSize := 4 << (lineLog % 4)
		var sizes []int
		for j := 0; j < 10; j++ {
			if sizeMask&(1<<j) != 0 {
				sizes = append(sizes, lineSize<<j)
			}
		}
		if len(sizes) == 0 {
			sizes = []int{lineSize}
		}
		q := int(quantum % 512)
		g := prefetchGrid(sizes, lineSize, split)
		fs, err := cache.NewFanoutSystem(cache.FanoutConfig{
			Sizes: sizes, LineSize: lineSize, Split: split, PurgeInterval: q,
		})
		if err != nil {
			t.Fatal(err)
		}
		check := func(n int) {
			w := simcheck.Workload{Name: "fuzz", Refs: refs[:n], Quantum: q}
			mustMatchSystem(t, fmt.Sprintf("after %d refs", n), fs, g, w)
		}
		half := len(refs) / 2
		for _, r := range refs[:half] {
			fs.Ref(r)
		}
		check(half)
		for _, r := range refs[half:] {
			fs.Ref(r)
		}
		check(len(refs))
	})
}
