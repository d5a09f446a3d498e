package workload_test

// Stream golden: the corpus is the repository's stand-in for the paper's
// lost traces, so every unit's reference stream is pinned bit for bit. A
// change to the generators' internals (the LRU stack, the samplers) must
// leave this file passing unedited; a deliberate stream change regenerates
// it with
//
//	go test ./internal/workload -run TestStreamGolden -update

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"strings"
	"testing"

	"cacheeval/internal/trace"
	"cacheeval/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/streams.golden from the current generators")

const streamGoldenFile = "testdata/streams.golden"

// programGoldenRefs is how much of each functional-program preset's
// (endless) stream the golden pins.
const programGoldenRefs = 200000

// streamHash reads r to io.EOF (or n references when n > 0) and returns
// the count and the FNV-1a hash of every reference's address, size and
// kind.
func streamHash(r trace.Reader, n int) (int, uint64, error) {
	h := fnv.New64a()
	var buf [10]byte
	count := 0
	for n <= 0 || count < n {
		ref, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return count, 0, err
		}
		for i := 0; i < 8; i++ {
			buf[i] = byte(ref.Addr >> (8 * i))
		}
		buf[8] = ref.Size
		buf[9] = byte(ref.Kind)
		h.Write(buf[:])
		count++
	}
	return count, h.Sum64(), nil
}

// streamGolden renders one line per corpus unit and per program preset.
func streamGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, spec := range workload.Units() {
		r, err := spec.Open()
		if err != nil {
			t.Fatal(err)
		}
		n, sum, err := streamHash(r, 0)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		fmt.Fprintf(&b, "unit %s %d %016x\n", spec.Name, n, sum)
	}
	presets := []struct {
		name string
		p    workload.ProgramParams
	}{
		{"vax", workload.VAXProgram()},
		{"ibm370", workload.IBM370Program()},
		{"cdc6400", workload.CDC6400Program()},
		{"z8000", workload.Z8000Program()},
	}
	for _, pr := range presets {
		g, err := workload.NewProgram(pr.p, 1)
		if err != nil {
			t.Fatal(err)
		}
		n, sum, err := streamHash(g, programGoldenRefs)
		if err != nil {
			t.Fatalf("program %s: %v", pr.name, err)
		}
		fmt.Fprintf(&b, "program %s %d %016x\n", pr.name, n, sum)
	}
	return b.String()
}

// TestStreamGolden pins a hash of the full stream of all 57 corpus units
// (the M68000 traces included) and of a prefix of each functional-program
// preset.
func TestStreamGolden(t *testing.T) {
	got := streamGolden(t)
	if *update {
		if err := os.WriteFile(streamGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(streamGoldenFile)
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
