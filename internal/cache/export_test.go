package cache

// CheckInvariants exposes the internal consistency checker to the external
// conformance tests in package cache_test (and, through them, the simcheck
// harness): list linkage, index agreement, set mapping, dirty-implies-valid
// and the resident count.
func (c *Cache) CheckInvariants() error { return c.checkInvariants() }

// Simulated reports, per organization (the unified cache, or the
// instruction then the data cache), how many of the engine's distinct sizes
// are simulated; the larger sizes are twins of the largest simulated one.
func (f *FanoutSystem) Simulated() []int {
	if f.cfg.Split {
		return []int{f.icache.live + 1, f.dcache.live + 1}
	}
	return []int{f.unified.live + 1}
}
