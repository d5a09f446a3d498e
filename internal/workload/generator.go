package workload

import (
	"fmt"
	"math/rand"

	"cacheeval/internal/trace"
)

// Address-space layout for generated traces. Code and data live in disjoint
// regions like a real process image; multiprogramming mixes additionally
// rebase whole traces (trace.Rebase) to keep address spaces distinct.
const (
	CodeBase = 0x0000_0000
	DataBase = 0x4000_0000
	// LineBytes is the granularity footprints are expressed in; it matches
	// the 16-byte lines of the paper's Table 2 footprint counts.
	LineBytes = 16
)

// GenParams are the knobs of the memory-level generator. The comments note
// which paper statistic each knob is calibrated against.
type GenParams struct {
	// Reference mix (Table 2 %Ifetch/%Read/%Write): probabilities that the
	// next memory reference is an instruction fetch or a data read; writes
	// take the remainder.
	FracIFetch float64
	FracRead   float64

	// IFetchUnit is the bytes transferred per instruction-fetch reference
	// (the design-architecture interface width of §1.1). DataElem is the
	// operand size of data references.
	IFetchUnit int
	DataElem   int

	// SeqRunRefs is the mean number of sequential instruction-fetch
	// references between taken branches; Table 2's %Branch is ~1/SeqRunRefs.
	SeqRunRefs float64

	// CodeLines and DataLines are the instruction and data footprints in
	// 16-byte lines (Table 2 #Ilines/#Dlines; Aspace = 16*(sum)).
	CodeLines int
	DataLines int

	// Branch-target temporal locality: stack depths are Lomax(CodeK0,
	// CodeAlpha). Small K0 = tight reuse; heavy tails (small Alpha) = the
	// poor locality of large systems (MVS).
	CodeK0    float64
	CodeAlpha float64

	// LoopFrac is the probability that a taken branch closes a loop: the
	// run it starts is then re-executed Geometric(MeanLoopIters) times.
	// Loop iteration is what lets real programs re-execute the same code
	// lines many times per fresh line touched; it is the dominant lever on
	// the instruction miss ratio at a fixed branch frequency.
	LoopFrac      float64
	MeanLoopIters float64

	// Random data reference locality, as above.
	DataK0    float64
	DataAlpha float64

	// SeqFrac is the fraction of data reads taken from sequential scans
	// (array walks); the remainder are stack-distance temporal references.
	// Scans are what make data prefetching profitable (§3.5.1: "data is
	// often stored and referenced sequentially").
	SeqFrac float64
	// MeanScanLines is the mean scan segment length in lines.
	MeanScanLines float64
	// ScanLocal is the probability that a new scan segment restarts in a
	// recently referenced region (a re-pass over the same array) rather
	// than at a uniformly random line. Loop nests re-walking their arrays
	// are why real programs' data miss ratios keep falling with cache size.
	ScanLocal float64

	// WriteSpread is the fraction of writes that stream sequentially across
	// the data space (building output arrays — lines pushed dirty), the
	// remainder hitting a small fixed hot region (stack frames and a few
	// globals; the rest of the resident lines are then replaced clean). It
	// is calibrated against Table 3's per-trace fraction-of-pushes-dirty.
	WriteSpread float64
	// HotK0 is the Lomax scale of hot-region write addresses within the
	// fixed hot region (alpha fixed at 2.5: effectively a few dozen lines).
	HotK0 float64
	// HotLines bounds the fixed hot write region; 0 defaults to
	// max(16, DataLines/20).
	HotLines int
	// ScanWriteShare is the probability that a new write-scan segment
	// starts at the read scan's current position — writes chasing reads
	// through the same arrays, the Fortran A(i)=f(B(i)) pattern that makes
	// most of a numeric program's resident data dirty (CDC 6400's 0.80 in
	// Table 3).
	ScanWriteShare float64
}

// Validate reports whether the parameters are self-consistent.
func (p GenParams) Validate() error {
	if p.FracIFetch < 0 || p.FracRead < 0 || p.FracIFetch+p.FracRead > 1 {
		return fmt.Errorf("workload: bad reference mix ifetch=%v read=%v", p.FracIFetch, p.FracRead)
	}
	if !trace.IsPow2(p.IFetchUnit) || p.IFetchUnit > LineBytes {
		return fmt.Errorf("workload: ifetch unit %d must be a power of two <= %d", p.IFetchUnit, LineBytes)
	}
	if !trace.IsPow2(p.DataElem) || p.DataElem > LineBytes {
		return fmt.Errorf("workload: data element %d must be a power of two <= %d", p.DataElem, LineBytes)
	}
	if p.CodeLines < 2 || p.DataLines < 2 {
		return fmt.Errorf("workload: footprints too small (code %d, data %d lines)", p.CodeLines, p.DataLines)
	}
	if p.SeqRunRefs < 1 {
		return fmt.Errorf("workload: SeqRunRefs %v < 1", p.SeqRunRefs)
	}
	if p.CodeK0 <= 0 || p.CodeAlpha <= 0 || p.DataK0 <= 0 || p.DataAlpha <= 0 || p.HotK0 <= 0 {
		return fmt.Errorf("workload: locality parameters must be positive")
	}
	if p.SeqFrac < 0 || p.SeqFrac > 1 || p.WriteSpread < 0 || p.WriteSpread > 1 || p.ScanLocal < 0 || p.ScanLocal > 1 {
		return fmt.Errorf("workload: SeqFrac/WriteSpread/ScanLocal must be in [0,1]")
	}
	if p.MeanScanLines < 1 {
		return fmt.Errorf("workload: MeanScanLines %v < 1", p.MeanScanLines)
	}
	if p.LoopFrac < 0 || p.LoopFrac > 1 {
		return fmt.Errorf("workload: LoopFrac %v must be in [0,1]", p.LoopFrac)
	}
	if p.LoopFrac > 0 && p.MeanLoopIters < 1 {
		return fmt.Errorf("workload: MeanLoopIters %v < 1 with LoopFrac > 0", p.MeanLoopIters)
	}
	if p.HotLines < 0 || p.HotLines > p.DataLines {
		return fmt.Errorf("workload: HotLines %d out of range [0,%d]", p.HotLines, p.DataLines)
	}
	if p.ScanWriteShare < 0 || p.ScanWriteShare > 1 {
		return fmt.Errorf("workload: ScanWriteShare %v must be in [0,1]", p.ScanWriteShare)
	}
	return nil
}

// hotLines resolves the fixed hot-region size.
func (p GenParams) hotLines() int {
	if p.HotLines > 0 {
		return p.HotLines
	}
	h := p.DataLines / 20
	if h < 16 {
		h = 16
	}
	if h > p.DataLines {
		h = p.DataLines
	}
	return h
}

// hotWriteAlpha is the fixed tail shape of hot-region writes.
const hotWriteAlpha = 2.5

// Generator produces an endless memory reference stream; wrap it in
// trace.NewLimitReader (or use Spec.Open, which does) for a finite trace.
// It implements trace.Reader and never returns an error.
type Generator struct {
	p   GenParams
	rng *rand.Rand

	codeStack *lruStack
	dataStack *lruStack

	// instruction stream state
	iAddr     uint64 // next ifetch address (absolute)
	runLeft   int    // sequential refs remaining before the next branch
	lastILine uint32
	// active loop, if any: jump back to loopStart for loopIters more runs
	// of loopRun references each.
	loopStart uint64
	loopRun   int
	loopIters int

	// data scan state (reads)
	scan scanState
	// write scan state (output stream)
	wscan scanState
}

// scanState walks sequentially through data lines in element-size steps.
type scanState struct {
	addr uint64 // next element address (absolute)
	left int    // elements remaining in the current segment
}

// NewGenerator returns a deterministic generator for p seeded with seed.
func NewGenerator(p GenParams, seed uint64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		p:         p,
		rng:       rand.New(rand.NewSource(int64(seed))),
		codeStack: newLRUStack(p.CodeLines),
		dataStack: newLRUStack(p.DataLines),
	}
	g.iAddr = CodeBase
	g.runLeft = geometric(g.rng, p.SeqRunRefs)
	return g, nil
}

// Params returns the generator's parameters.
func (g *Generator) Params() GenParams { return g.p }

// Read produces the next memory reference. It never returns an error.
func (g *Generator) Read() (trace.Ref, error) {
	u := g.rng.Float64()
	switch {
	case u < g.p.FracIFetch:
		return g.ifetch(), nil
	case u < g.p.FracIFetch+g.p.FracRead:
		return g.dataRead(), nil
	default:
		return g.dataWrite(), nil
	}
}

// fill writes the next len(dst) references into dst, ORing base into every
// address (a multi-program mix's address-space prefix).
func (g *Generator) fill(dst []trace.Ref, base uint64) {
	for k := range dst {
		ref, _ := g.Read() // never fails
		ref.Addr |= base
		dst[k] = ref
	}
}

// ifetch advances the instruction stream: sequential within a run, then a
// branch. A branch either iterates an active loop (jumping back to the loop
// head), opens a new loop, or is a plain jump whose target depth follows the
// code locality distribution.
func (g *Generator) ifetch() trace.Ref {
	if g.runLeft <= 0 {
		if g.loopIters > 0 {
			// Loop back-edge: re-execute the loop body.
			g.loopIters--
			g.iAddr = g.loopStart
			g.runLeft = g.loopRun
		} else {
			line := g.codeStack.Sample(g.rng, g.p.CodeK0, g.p.CodeAlpha)
			g.iAddr = CodeBase + uint64(line)*LineBytes
			g.runLeft = geometric(g.rng, g.p.SeqRunRefs)
			if g.p.LoopFrac > 0 && g.rng.Float64() < g.p.LoopFrac {
				g.loopStart = g.iAddr
				g.loopRun = g.runLeft
				g.loopIters = geometric(g.rng, g.p.MeanLoopIters) - 1
			}
		}
		// Force the touch logic below to promote the target line.
		g.lastILine = ^uint32(0)
	}
	ref := trace.Ref{Addr: g.iAddr, Size: uint8(g.p.IFetchUnit), Kind: trace.IFetch}
	g.runLeft--
	g.iAddr += uint64(g.p.IFetchUnit)
	// Wrap at the end of the code segment; the wrap registers as a branch
	// under the paper's heuristic, as a real trace's would.
	if g.iAddr >= CodeBase+uint64(g.p.CodeLines)*LineBytes {
		g.iAddr = CodeBase
	}
	if line := uint32((ref.Addr - CodeBase) / LineBytes); line != g.lastILine {
		g.codeStack.Touch(line)
		g.lastILine = line
	}
	return ref
}

// dataRead returns the next data read: a sequential scan step with
// probability SeqFrac, otherwise a temporal-locality reference.
func (g *Generator) dataRead() trace.Ref {
	if g.rng.Float64() < g.p.SeqFrac {
		return g.scanStep(&g.scan, trace.Read)
	}
	line := g.dataStack.Sample(g.rng, g.p.DataK0, g.p.DataAlpha)
	offset := uint64(g.rng.Intn(LineBytes/g.p.DataElem)) * uint64(g.p.DataElem)
	return trace.Ref{
		Addr: DataBase + uint64(line)*LineBytes + offset,
		Size: uint8(g.p.DataElem),
		Kind: trace.Read,
	}
}

// dataWrite returns the next data write: a streaming output-array write with
// probability WriteSpread, otherwise a write into the fixed hot region
// (stack frames, accumulators). Hot writes target the low end of the data
// space so the set of dirty-but-not-streamed lines stays small and stable.
func (g *Generator) dataWrite() trace.Ref {
	if g.rng.Float64() < g.p.WriteSpread {
		return g.scanStep(&g.wscan, trace.Write)
	}
	line := clampDepth(lomax(g.rng, g.p.HotK0, hotWriteAlpha), g.p.hotLines())
	g.dataStack.Touch(uint32(line))
	offset := uint64(g.rng.Intn(LineBytes/g.p.DataElem)) * uint64(g.p.DataElem)
	return trace.Ref{
		Addr: DataBase + uint64(line)*LineBytes + offset,
		Size: uint8(g.p.DataElem),
		Kind: trace.Write,
	}
}

// scanStep advances a sequential scan. When the current segment is
// exhausted a fresh one starts: a write scan may chase the read scan
// (ScanWriteShare); otherwise segments start in a recently referenced
// region (a re-pass, probability ScanLocal) or at a uniformly random line.
func (g *Generator) scanStep(s *scanState, kind trace.Kind) trace.Ref {
	if s.left <= 0 {
		lines := geometric(g.rng, g.p.MeanScanLines)
		if lines > g.p.DataLines {
			lines = g.p.DataLines
		}
		var start int
		switch {
		case kind == trace.Write && g.rng.Float64() < g.p.ScanWriteShare:
			if g.scan.addr >= DataBase { // read scan not started yet -> line 0
				start = int((g.scan.addr - DataBase) / LineBytes)
			}
			if start >= g.p.DataLines {
				start = 0
			}
		case g.rng.Float64() < g.p.ScanLocal:
			start = int(g.dataStack.Sample(g.rng, g.p.DataK0*2, g.p.DataAlpha))
		default:
			start = g.rng.Intn(g.p.DataLines)
		}
		s.addr = DataBase + uint64(start)*LineBytes
		s.left = lines * (LineBytes / g.p.DataElem)
	}
	ref := trace.Ref{Addr: s.addr, Size: uint8(g.p.DataElem), Kind: kind}
	if (s.addr-DataBase)%LineBytes == 0 {
		g.dataStack.Touch(uint32((s.addr - DataBase) / LineBytes))
	}
	s.addr += uint64(g.p.DataElem)
	if s.addr >= DataBase+uint64(g.p.DataLines)*LineBytes {
		s.addr = DataBase
	}
	s.left--
	return ref
}

// Generate is a convenience returning n references from a fresh generator.
func Generate(p GenParams, seed uint64, n int) ([]trace.Ref, error) {
	g, err := NewGenerator(p, seed)
	if err != nil {
		return nil, err
	}
	refs := make([]trace.Ref, n)
	for i := range refs {
		refs[i], _ = g.Read()
	}
	return refs, nil
}

var _ trace.Reader = (*Generator)(nil)
