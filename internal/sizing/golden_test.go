package sizing

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fig10GoldenPath holds the exact Fig. 10 outputs for seeds 1–5 in
// both modes: final design, annealing statistics and the pre-/post-
// extraction evaluations, one line per run. TestFig10Story checks the
// qualitative story; this pins the search trajectory bit for bit, so
// a change to the annealing engine or to the move set that alters any
// random draw shows up here.
var fig10GoldenPath = filepath.Join("testdata", "fig10_golden.txt")

// fig10Line formats one run; floats print in Go's shortest exact
// round-trip form.
func fig10Line(seed int64, mode string, r *Result) string {
	s := r.Stats
	return fmt.Sprintf("seed=%d mode=%s design=%+v stats=stages:%d,moves:%d,accepted:%d,improved:%d,init:%v,best:%v,final_temp:%v pre=%+v post=%+v",
		seed, mode, r.Design, s.Stages, s.Moves, s.Accepted, s.Improved, s.InitCost, s.BestCost, s.FinalTemp, r.Pre, r.Post)
}

func fig10Lines(t *testing.T) []string {
	var lines []string
	for seed := int64(1); seed <= 5; seed++ {
		nominal, aware := runBoth(t, seed)
		lines = append(lines, fig10Line(seed, "nominal", nominal), fig10Line(seed, "layout_aware", aware))
	}
	return lines
}

func TestFig10Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the ten pinned Fig. 10 runs in -short mode")
	}
	data, err := os.ReadFile(fig10GoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	got := fig10Lines(t)
	if len(got) != len(want) {
		t.Fatalf("%d runs, %d pinned", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run %d differs from the pinned output:\ngot:  %s\nwant: %s", i, got[i], want[i])
		}
	}
}
