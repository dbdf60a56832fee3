package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// plainGoldenPath pins the -v module coordinates the plain path (no
// -json* flag) prints for the flat annealing methods on two circuits,
// seed 1, default schedule: one "== bench method" header per run
// followed by its coordinate lines.
var plainGoldenPath = filepath.Join("testdata", "plain_coords_golden.txt")

// coordLine matches one printCoords row.
var coordLine = regexp.MustCompile(`^  \S+\s+x=`)

// coordLines extracts the module coordinate rows of a -v run, without
// their trailing padding.
func coordLines(out string) []string {
	var lines []string
	for _, l := range strings.Split(out, "\n") {
		if coordLine.MatchString(l) {
			lines = append(lines, strings.TrimRight(l, " "))
		}
	}
	return lines
}

func plainGoldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, bench := range []string{"miller", "folded_casc"} {
		for _, method := range []string{"seqpair", "bstar", "tcg", "slicing", "absolute"} {
			out, err := cli(t, "-bench", bench, "-method", method, "-seed", "1", "-v")
			if err != nil {
				t.Fatalf("%s %s: %v", bench, method, err)
			}
			coords := coordLines(out)
			if len(coords) == 0 {
				t.Fatalf("%s %s: no coordinate lines in\n%s", bench, method, out)
			}
			lines = append(lines, "== "+bench+" "+method)
			lines = append(lines, coords...)
		}
	}
	return lines
}

// TestPlainPathGolden: the plain CLI path places the flat methods
// exactly as pinned.
func TestPlainPathGolden(t *testing.T) {
	got := plainGoldenLines(t)
	if os.Getenv("GEN_GOLDEN") != "" {
		if err := os.WriteFile(plainGoldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skip("regenerated " + plainGoldenPath)
	}
	data, err := os.ReadFile(plainGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d lines, %d pinned", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d differs from the pinned output:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}
