package workload

import (
	"math"
	"testing"

	"cacheeval/internal/trace"
)

// testParams returns a small valid parameter set.
func testParams() GenParams {
	return GenParams{
		FracIFetch: 0.5, FracRead: 0.33,
		IFetchUnit: 4, DataElem: 4,
		SeqRunRefs: 5,
		CodeLines:  100, DataLines: 200,
		CodeK0: 5, CodeAlpha: 1.5,
		DataK0: 8, DataAlpha: 1.4,
		LoopFrac: 0.4, MeanLoopIters: 3,
		SeqFrac: 0.4, MeanScanLines: 10, ScanLocal: 0.5,
		WriteSpread: 0.5, HotK0: 4,
	}
}

func TestGenParamsValidate(t *testing.T) {
	if err := testParams().Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*GenParams)
	}{
		{"mix > 1", func(p *GenParams) { p.FracIFetch, p.FracRead = 0.8, 0.5 }},
		{"negative mix", func(p *GenParams) { p.FracIFetch = -0.1 }},
		{"ifetch unit", func(p *GenParams) { p.IFetchUnit = 3 }},
		{"ifetch unit > line", func(p *GenParams) { p.IFetchUnit = 32 }},
		{"data elem", func(p *GenParams) { p.DataElem = 0 }},
		{"tiny code", func(p *GenParams) { p.CodeLines = 1 }},
		{"tiny data", func(p *GenParams) { p.DataLines = 0 }},
		{"run refs", func(p *GenParams) { p.SeqRunRefs = 0.5 }},
		{"code k0", func(p *GenParams) { p.CodeK0 = 0 }},
		{"data alpha", func(p *GenParams) { p.DataAlpha = -1 }},
		{"hot k0", func(p *GenParams) { p.HotK0 = 0 }},
		{"seq frac", func(p *GenParams) { p.SeqFrac = 1.5 }},
		{"write spread", func(p *GenParams) { p.WriteSpread = -0.2 }},
		{"scan local", func(p *GenParams) { p.ScanLocal = 2 }},
		{"scan lines", func(p *GenParams) { p.MeanScanLines = 0 }},
		{"loop frac", func(p *GenParams) { p.LoopFrac = 1.2 }},
		{"loop iters", func(p *GenParams) { p.LoopFrac, p.MeanLoopIters = 0.5, 0 }},
		{"hot lines", func(p *GenParams) { p.HotLines = 10000 }},
		{"scan write share", func(p *GenParams) { p.ScanWriteShare = -1 }},
	}
	for _, m := range mutations {
		p := testParams()
		m.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", m.name)
		}
		if _, err := NewGenerator(p, 1); err == nil {
			t.Errorf("%s: NewGenerator must validate", m.name)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, err := Generate(testParams(), 42, 5000)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(testParams(), 42, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c, _ := Generate(testParams(), 43, 5000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGeneratorMix(t *testing.T) {
	p := testParams()
	refs, err := Generate(p, 7, 100000)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := trace.Analyze(trace.NewSliceReader(refs), 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ch.FracIFetch()-p.FracIFetch) > 0.01 {
		t.Errorf("ifetch frac = %v, want %v", ch.FracIFetch(), p.FracIFetch)
	}
	if math.Abs(ch.FracRead()-p.FracRead) > 0.01 {
		t.Errorf("read frac = %v, want %v", ch.FracRead(), p.FracRead)
	}
	wantW := 1 - p.FracIFetch - p.FracRead
	if math.Abs(ch.FracWrite()-wantW) > 0.01 {
		t.Errorf("write frac = %v, want %v", ch.FracWrite(), wantW)
	}
}

func TestGeneratorBranchFrequency(t *testing.T) {
	p := testParams()
	p.SeqRunRefs = 8
	refs, _ := Generate(p, 11, 200000)
	ch, _ := trace.Analyze(trace.NewSliceReader(refs), 16, 0)
	// Branch fraction ~ 1/SeqRunRefs, within the slack the discretized
	// geometric and in-line jumps introduce.
	got := ch.FracBranch()
	if got < 0.06 || got > 0.15 {
		t.Errorf("branch frac = %v, want ~0.125", got)
	}
}

func TestGeneratorRegions(t *testing.T) {
	p := testParams()
	refs, _ := Generate(p, 13, 50000)
	codeEnd := uint64(CodeBase) + uint64(p.CodeLines)*LineBytes
	dataEnd := uint64(DataBase) + uint64(p.DataLines)*LineBytes
	for i, r := range refs {
		switch r.Kind {
		case trace.IFetch:
			if r.Addr < CodeBase || r.Addr >= codeEnd {
				t.Fatalf("ref %d: ifetch outside code segment: %#x", i, r.Addr)
			}
			if int(r.Size) != p.IFetchUnit {
				t.Fatalf("ref %d: ifetch size %d", i, r.Size)
			}
			if r.Addr%uint64(p.IFetchUnit) != 0 {
				t.Fatalf("ref %d: unaligned ifetch %#x", i, r.Addr)
			}
		case trace.Read, trace.Write:
			if r.Addr < DataBase || r.Addr >= dataEnd {
				t.Fatalf("ref %d: data ref outside data segment: %#x", i, r.Addr)
			}
			if int(r.Size) != p.DataElem {
				t.Fatalf("ref %d: data size %d", i, r.Size)
			}
			if r.Addr%uint64(p.DataElem) != 0 {
				t.Fatalf("ref %d: unaligned data ref %#x", i, r.Addr)
			}
		default:
			t.Fatalf("ref %d: bad kind %v", i, r.Kind)
		}
	}
}

func TestGeneratorFootprintBounded(t *testing.T) {
	p := testParams()
	refs, _ := Generate(p, 17, 200000)
	ch, _ := trace.Analyze(trace.NewSliceReader(refs), 16, 0)
	if int(ch.ILines) > p.CodeLines {
		t.Errorf("ILines %d exceeds CodeLines %d", ch.ILines, p.CodeLines)
	}
	if int(ch.DLines) > p.DataLines {
		t.Errorf("DLines %d exceeds DataLines %d", ch.DLines, p.DataLines)
	}
	// A long run should cover most of the configured footprint.
	if float64(ch.ILines) < 0.5*float64(p.CodeLines) {
		t.Errorf("ILines %d cover too little of %d", ch.ILines, p.CodeLines)
	}
}

func TestLoopsReduceInstructionMisses(t *testing.T) {
	// The loop construct exists to divide the fresh-line rate at a fixed
	// branch frequency; verify the direction holds.
	newLines := func(loopFrac float64) int {
		p := testParams()
		p.CodeLines = 2000
		p.LoopFrac = loopFrac
		p.MeanLoopIters = 8
		refs, err := Generate(p, 23, 50000)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[uint64]bool{}
		n := 0
		for _, r := range refs {
			if r.Kind == trace.IFetch && !seen[r.Line(16)] {
				seen[r.Line(16)] = true
				n++
			}
		}
		return n
	}
	without, with := newLines(0), newLines(0.6)
	if with >= without {
		t.Errorf("loops should reduce fresh instruction lines: %d -> %d", without, with)
	}
}

func TestHotLinesDefault(t *testing.T) {
	p := testParams()
	p.DataLines = 1000
	if got := p.hotLines(); got != 50 {
		t.Errorf("hotLines = %d, want 50", got)
	}
	p.DataLines = 100
	if got := p.hotLines(); got != 16 {
		t.Errorf("small footprint hotLines = %d, want 16", got)
	}
	p.DataLines = 8
	if got := p.hotLines(); got != 8 {
		t.Errorf("tiny footprint hotLines = %d, want 8", got)
	}
	p.HotLines = 33
	if got := p.hotLines(); got != 33 {
		t.Errorf("explicit hotLines = %d, want 33", got)
	}
}

// TestHotWriteOversizedDraw makes every hot-region write draw overflow the
// int range: each must land on the last hot line on every GOARCH.
func TestHotWriteOversizedDraw(t *testing.T) {
	p := testParams()
	p.WriteSpread = 0
	p.HotK0 = 1e300
	refs, err := Generate(p, 31, 20000)
	if err != nil {
		t.Fatal(err)
	}
	last := uint64(p.hotLines() - 1)
	writes := 0
	for _, r := range refs {
		if r.Kind != trace.Write {
			continue
		}
		writes++
		if line := (r.Addr - DataBase) / LineBytes; line != last {
			t.Fatalf("hot write to line %d, want the last hot line %d", line, last)
		}
	}
	if writes == 0 {
		t.Fatal("no writes generated")
	}
}

func TestWriteSpreadDirection(t *testing.T) {
	// More write spread must dirty more distinct lines.
	distinctWritten := func(spread float64) int {
		p := testParams()
		p.WriteSpread = spread
		refs, _ := Generate(p, 29, 50000)
		seen := map[uint64]bool{}
		for _, r := range refs {
			if r.Kind == trace.Write {
				seen[r.Line(16)] = true
			}
		}
		return len(seen)
	}
	lo, hi := distinctWritten(0.05), distinctWritten(0.9)
	if hi <= lo {
		t.Errorf("write spread should widen the written footprint: %d -> %d", lo, hi)
	}
}

func TestGeneratorParamsAccessor(t *testing.T) {
	p := testParams()
	g, err := NewGenerator(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Params() != p {
		t.Error("Params accessor mismatch")
	}
}

func TestGeneratorNeverErrors(t *testing.T) {
	g, _ := NewGenerator(testParams(), 99)
	for i := 0; i < 10000; i++ {
		if _, err := g.Read(); err != nil {
			t.Fatalf("Read error at %d: %v", i, err)
		}
	}
}
