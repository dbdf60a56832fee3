package placer_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/placer"
)

// fastSchedule keeps the stochastic engines cheap in tests.
var fastSchedule = placer.Schedule{MovesPerStage: 30, MaxStages: 15, StallStages: 10}

// TestGeneticEnginesSolve: the memetic registry entries solve a
// symmetry-constrained benchmark end to end — a legal placement over
// every module, and for the sequence-pair variant zero violations
// (symmetry holds by construction through the S-F encoding).
func TestGeneticEnginesSolve(t *testing.T) {
	p, err := placer.Benchmark("miller")
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{placer.GeneticSeqPair, placer.GeneticAbsolute} {
		t.Run(algo, func(t *testing.T) {
			res, err := placer.Solve(t.Context(), p,
				placer.WithAlgorithm(algo), placer.WithSeed(3),
				placer.WithSchedule(fastSchedule))
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != algo {
				t.Fatalf("algorithm %q, want %q", res.Algorithm, algo)
			}
			if len(res.Placement) != len(p.Modules) {
				t.Fatalf("placed %d modules, want %d", len(res.Placement), len(p.Modules))
			}
			if res.Stages == 0 || res.Moves == 0 {
				t.Fatalf("no search work reported: stages=%d moves=%d", res.Stages, res.Moves)
			}
			if algo == placer.GeneticSeqPair {
				if len(res.Violations) != 0 {
					t.Fatalf("genetic seqpair violates constraints: %v", res.Violations)
				}
				if !res.Legal {
					t.Fatal("genetic seqpair placement overlaps")
				}
			}
			// Deterministic for a fixed seed.
			again, err := placer.Solve(t.Context(), p,
				placer.WithAlgorithm(algo), placer.WithSeed(3),
				placer.WithSchedule(fastSchedule))
			if err != nil {
				t.Fatal(err)
			}
			if again.Cost != res.Cost {
				t.Fatalf("costs differ across identical runs: %v vs %v", again.Cost, res.Cost)
			}
		})
	}
}

// TestGeneticEnginesListed: the memetic engines appear in the registry
// listing (and therefore in analogplace -algorithms and GET
// /v1/algorithms, which render this listing) and are never raced by
// the portfolio.
func TestGeneticEnginesListed(t *testing.T) {
	found := map[string]bool{}
	for _, info := range placer.Algorithms() {
		found[info.Name] = true
		if strings.HasPrefix(info.Name, "genetic:") && info.PortfolioEligible() {
			t.Errorf("%s must not be portfolio-eligible", info.Name)
		}
	}
	if !found[placer.GeneticSeqPair] || !found[placer.GeneticAbsolute] {
		t.Fatalf("genetic engines missing from registry listing: %v", found)
	}
}

// TestAdaptiveMovesSolve: the opt-in adaptive move portfolio solves
// the same problems to valid placements, stays deterministic for a
// seed, and leaves the default path untouched (the pin tests assert
// the latter bit for bit; here we only check the option plumbs
// through).
func TestAdaptiveMovesSolve(t *testing.T) {
	p, err := placer.Benchmark("miller")
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{placer.SeqPair, placer.Slicing, placer.Absolute} {
		t.Run(algo, func(t *testing.T) {
			res, err := placer.Solve(t.Context(), p,
				placer.WithAlgorithm(algo), placer.WithSeed(7),
				placer.WithAdaptiveMoves(),
				placer.WithSchedule(fastSchedule))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Placement) != len(p.Modules) {
				t.Fatalf("placed %d modules, want %d", len(res.Placement), len(p.Modules))
			}
			if algo == placer.SeqPair && len(res.Violations) != 0 {
				t.Fatalf("adaptive seqpair violates constraints: %v", res.Violations)
			}
			again, err := placer.Solve(t.Context(), p,
				placer.WithAlgorithm(algo), placer.WithSeed(7),
				placer.WithAdaptiveMoves(),
				placer.WithSchedule(fastSchedule))
			if err != nil {
				t.Fatal(err)
			}
			if again.Cost != res.Cost {
				t.Fatalf("adaptive runs with one seed differ: %v vs %v", again.Cost, res.Cost)
			}
		})
	}
}

// TestGeneticEnginesGolden pins the exact output of both memetic
// engines on the Miller op amp, with and without the adaptive move
// portfolio. The GA phase mutates through the representation's own
// move set (never the adaptive portfolio) and the SA phase refines in
// place, so the adaptive option may only change what the refinement
// finds: on this schedule it does for seqpair and not for absolute.
func TestGeneticEnginesGolden(t *testing.T) {
	p, err := placer.Benchmark("miller")
	if err != nil {
		t.Fatal(err)
	}
	sched := placer.Schedule{MovesPerStage: 100, MaxStages: 30, StallStages: 30}
	golden := []struct {
		algo          string
		adaptive      bool
		cost          float64
		stages, moves int
		placement     string
	}{
		{placer.GeneticSeqPair, false, 10563, 60, 4219, "P1:40,72,40,20 P2:0,72,40,20 N3:60,30,16,30 N4:76,30,16,30 P5:80,60,12,24 P6:0,60,24,12 P7:40,60,24,12 N8:60,0,50,30 C:0,0,60,60"},
		{placer.GeneticSeqPair, true, 10551, 60, 4219, "P1:96,30,20,40 P2:76,30,20,40 N3:0,60,30,16 N4:30,60,30,16 P5:0,0,12,24 P6:96,70,24,12 P7:72,70,24,12 N8:72,0,50,30 C:12,0,60,60"},
		{placer.GeneticAbsolute, false, 19303, 60, 4219, "P1:101,19,20,40 P2:61,0,40,20 N3:61,24,16,30 N4:0,61,30,16 P5:61,122,24,12 P6:122,61,12,24 P7:115,121,24,12 N8:61,61,50,30 C:0,0,60,60"},
		{placer.GeneticAbsolute, true, 19303, 60, 4219, "P1:101,19,20,40 P2:61,0,40,20 N3:61,24,16,30 N4:0,61,30,16 P5:61,122,24,12 P6:122,61,12,24 P7:115,121,24,12 N8:61,61,50,30 C:0,0,60,60"},
	}
	for _, g := range golden {
		opts := []placer.Option{placer.WithAlgorithm(g.algo), placer.WithSeed(3), placer.WithSchedule(sched)}
		if g.adaptive {
			opts = append(opts, placer.WithAdaptiveMoves())
		}
		res, err := placer.Solve(t.Context(), p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		var placed []string
		for _, m := range res.Placement {
			placed = append(placed, fmt.Sprintf("%s:%d,%d,%d,%d", m.Name, m.X, m.Y, m.W, m.H))
		}
		got := strings.Join(placed, " ")
		if res.Cost != g.cost || res.Stages != g.stages || res.Moves != g.moves || got != g.placement {
			t.Errorf("%s adaptive=%v: cost %v stages %d moves %d placement %s\npinned: cost %v stages %d moves %d placement %s",
				g.algo, g.adaptive, res.Cost, res.Stages, res.Moves, got, g.cost, g.stages, g.moves, g.placement)
		}
	}
}
