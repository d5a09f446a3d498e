package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestReproGolden regenerates every table and figure at a short reference
// budget and diffs the output against testdata. Any refactor of the engines
// or the experiments that moves a single digit of the reproduction fails
// here; results/paperrepro_full.txt pins the full-scale run the same way
// (make repro-check). Regenerate deliberately with
//
//	go run ./cmd/paperrepro -refs 20000 -q > cmd/paperrepro/testdata/repro_refs20000.golden
func TestReproGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/repro_refs20000.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if err := run([]string{"-refs", "20000", "-q"}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("output differs from golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
			}
		}
		t.Fatal("output differs from golden")
	}
}
