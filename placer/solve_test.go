package placer_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/placer"
)

// quick is a short but observable schedule for tests.
var quick = placer.WithSchedule(placer.Schedule{MovesPerStage: 40, MaxStages: 20, StallStages: 20})

func miller(t *testing.T) *placer.Problem {
	t.Helper()
	p, err := placer.Benchmark("miller")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSolveDefaultAlgorithm: the zero option set runs seqpair.
func TestSolveDefaultAlgorithm(t *testing.T) {
	res, err := placer.Solve(t.Context(), miller(t), quick, placer.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != placer.DefaultAlgorithm {
		t.Fatalf("default ran %q, want %q", res.Algorithm, placer.DefaultAlgorithm)
	}
	if res.Stages == 0 || len(res.Placement) != 9 || !res.Legal {
		t.Fatalf("implausible result: %+v", res)
	}
	if res.Runtime <= 0 {
		t.Error("no runtime recorded")
	}
}

// TestSolveLastSelectionWins: WithAlgorithm and WithPortfolio
// override each other, last one wins.
func TestSolveLastSelectionWins(t *testing.T) {
	res, err := placer.Solve(t.Context(), miller(t), quick, placer.WithSeed(1),
		placer.WithPortfolio(), placer.WithAlgorithm(placer.BStar))
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != placer.BStar {
		t.Fatalf("ran %q, want bstar (WithAlgorithm given last)", res.Algorithm)
	}
}

// TestSolveDoesNotMutateCaller: Solve normalizes a copy; the caller's
// problem keeps its spelling.
func TestSolveDoesNotMutateCaller(t *testing.T) {
	p := miller(t)
	p.Nets[0][0], p.Nets[0][1] = p.Nets[0][1], p.Nets[0][0] // de-normalize
	p.Objective.AreaWeight = 0
	before := *p.Clone()
	if _, err := placer.Solve(t.Context(), p, quick, placer.WithSeed(1)); err != nil {
		t.Fatal(err)
	}
	if p.Nets[0][0] != before.Nets[0][0] || p.Objective.AreaWeight != 0 {
		t.Fatalf("Solve mutated the caller's problem: %+v", p.Nets[0])
	}
}

// TestSolveProgressStreams: WithProgress receives per-stage snapshots
// tagged with the algorithm, monotonically covering the whole run.
func TestSolveProgressStreams(t *testing.T) {
	var mu sync.Mutex
	var snaps []placer.Progress
	res, err := placer.Solve(t.Context(), miller(t), quick,
		placer.WithSeed(1), placer.WithAlgorithm(placer.SeqPair),
		placer.WithProgress(func(p placer.Progress) {
			mu.Lock()
			snaps = append(snaps, p)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != res.Stages {
		t.Fatalf("%d snapshots for %d stages", len(snaps), res.Stages)
	}
	last := snaps[len(snaps)-1]
	if last.Algorithm != placer.SeqPair || last.Stage != res.Stages || last.Moves != res.Moves {
		t.Fatalf("final snapshot %+v disagrees with result (stages %d moves %d)", last, res.Stages, res.Moves)
	}
	if last.Best != res.Cost {
		t.Fatalf("final best %v, result cost %v", last.Best, res.Cost)
	}
}

// TestSolveDeadline: an expired WithDeadline cancels at the first
// stage boundary and returns best-so-far flagged cancelled.
func TestSolveDeadline(t *testing.T) {
	res, err := placer.Solve(t.Context(), miller(t), quick, placer.WithSeed(1),
		placer.WithDeadline(time.Now().Add(-time.Second)))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cancelled {
		t.Fatal("expired deadline did not cancel")
	}
	if len(res.Placement) != 9 {
		t.Fatalf("cancelled run kept no best-so-far placement: %d modules", len(res.Placement))
	}
}

// TestSolveRejects: validation errors surface before any annealing.
func TestSolveRejects(t *testing.T) {
	if _, err := placer.Solve(t.Context(), &placer.Problem{}); err == nil {
		t.Error("empty problem accepted")
	}
	if _, err := placer.Solve(t.Context(), miller(t),
		placer.WithSchedule(placer.Schedule{InitialTemp: 1, MinTemp: 2})); err == nil {
		t.Error("inverted temperature schedule accepted")
	}
	if _, err := placer.Solve(t.Context(), miller(t),
		placer.WithSchedule(placer.Schedule{Cooling: 1.5})); err == nil {
		t.Error("cooling outside (0,1) accepted")
	}
}

// TestSolveZeroStageGuard: a MinTemp above the calibrated initial
// temperature must fail, not return the random initial placement as a
// solved result.
func TestSolveZeroStageGuard(t *testing.T) {
	_, err := placer.Solve(t.Context(), miller(t), placer.WithSeed(1),
		placer.WithSchedule(placer.Schedule{MinTemp: 1e30}))
	if err == nil || !strings.Contains(err.Error(), "zero annealing stages") {
		t.Fatalf("zero-stage schedule returned %v, want guard error", err)
	}
}

// TestSolveWorkersNeverLose: the multi-start reduction keeps worker
// 0's serial chain, so more workers never yield a worse cost on the
// same seed.
func TestSolveWorkersNeverLose(t *testing.T) {
	serial, err := placer.Solve(t.Context(), miller(t), quick, placer.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	multi, err := placer.Solve(t.Context(), miller(t), quick, placer.WithSeed(5), placer.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if multi.Cost > serial.Cost {
		t.Fatalf("3-worker multi-start cost %v worse than serial %v", multi.Cost, serial.Cost)
	}
}

// TestSolveHierarchicalFromFlat: the hierarchical engine accepts a
// problem with no hierarchy (synthesizing one), and symmetry still
// holds by construction.
func TestSolveHierarchicalFromFlat(t *testing.T) {
	p := miller(t)
	p.Hierarchy = nil
	res, err := placer.Solve(t.Context(), p, quick, placer.WithSeed(1), placer.WithAlgorithm(placer.HBStar))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("hbstar on synthesized hierarchy violates constraints: %v", res.Violations)
	}
}

// fast is the schedule of the engine-coverage tests below: long
// enough that every engine settles on miller.
var fast = placer.WithSchedule(placer.Schedule{MovesPerStage: 40, MaxStages: 60, StallStages: 15})

// builtinEngines lists the registered algorithms, minus the fakes
// other tests register.
func builtinEngines() []string {
	var names []string
	for _, info := range placer.Algorithms() {
		if !strings.HasPrefix(info.Name, "x-test-") {
			names = append(names, info.Name)
		}
	}
	return names
}

// outlineCost returns the outline term's share of a result's cost and
// whether the term is present.
func outlineCost(res *placer.Result) (float64, bool) {
	for _, tc := range res.Breakdown {
		if tc.Name == "outline" {
			return tc.Cost, true
		}
	}
	return 0, false
}

// absoluteEngines are the engines placing modules at free coordinates;
// their placements may overlap.
var absoluteEngines = map[string]bool{placer.Absolute: true, placer.GeneticAbsolute: true}

// TestEveryEngineSolvesMiller: every registered engine other than the
// absolute-coordinate ones places every module of miller legally.
func TestEveryEngineSolvesMiller(t *testing.T) {
	for _, algo := range builtinEngines() {
		if absoluteEngines[algo] {
			continue
		}
		res, err := placer.Solve(t.Context(), miller(t), fast, placer.WithSeed(1), placer.WithAlgorithm(algo))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Placement) != 9 {
			t.Errorf("%s: placed %d modules, want 9", algo, len(res.Placement))
		}
		if !res.Legal {
			t.Errorf("%s: illegal placement", algo)
		}
		if res.AreaUsage < 1 {
			t.Errorf("%s: area usage %.3f below 1 is impossible", algo, res.AreaUsage)
		}
	}
}

// TestAbsoluteEnginesMayOverlap: the absolute-coordinate engines may
// return an overlapping placement, but it still covers every module.
func TestAbsoluteEnginesMayOverlap(t *testing.T) {
	for algo := range absoluteEngines {
		res, err := placer.Solve(t.Context(), miller(t), fast, placer.WithSeed(2), placer.WithAlgorithm(algo))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if len(res.Placement) != 9 {
			t.Errorf("%s: placed %d modules, want 9", algo, len(res.Placement))
		}
	}
}

// TestSolveOutlineTerm: the default objective carries no outline term;
// a generous outline is met at zero cost by seqpair, bstar and hbstar,
// and an impossible one costs a positive penalty.
func TestSolveOutlineTerm(t *testing.T) {
	plain, err := placer.Solve(t.Context(), miller(t), fast, placer.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := outlineCost(plain); ok {
		t.Fatal("default objective must not carry an outline term")
	}
	for _, algo := range []string{placer.SeqPair, placer.BStar, placer.HBStar} {
		p := miller(t)
		p.Objective.OutlineW, p.Objective.OutlineH = 2*plain.BBoxW, 2*plain.BBoxH
		res, err := placer.Solve(t.Context(), p, fast, placer.WithSeed(2), placer.WithAlgorithm(algo))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if c, ok := outlineCost(res); !ok || c != 0 {
			t.Errorf("%s: generous outline %dx%d: term present=%v cost %v, bbox %dx%d",
				algo, p.Objective.OutlineW, p.Objective.OutlineH, ok, c, res.BBoxW, res.BBoxH)
		}
	}
	p := miller(t)
	p.Objective.OutlineW, p.Objective.OutlineH = 1, 1
	res, err := placer.Solve(t.Context(), p, fast, placer.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := outlineCost(res); !ok || c <= 0 {
		t.Fatalf("impossible outline: term present=%v cost %v, want a positive penalty", ok, c)
	}
}

// TestSolveThermalProxLegal: thermal and proximity weights reach the
// engines without breaking legality.
func TestSolveThermalProxLegal(t *testing.T) {
	for _, algo := range []string{placer.SeqPair, placer.HBStar} {
		p := miller(t)
		p.Objective.ThermalWeight, p.Objective.ProxWeight = 2, 0.5
		res, err := placer.Solve(t.Context(), p, fast, placer.WithSeed(3), placer.WithAlgorithm(algo))
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if !res.Legal {
			t.Errorf("%s: illegal placement under thermal objective", algo)
		}
	}
}
