package place

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/anneal"
	"repro/internal/bstar"
	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/seqpair"
	"repro/internal/tcg"
)

// incrementalFixtures builds one kernel solution per placer over a
// problem with every objective term enabled, so the property test
// exercises area, HPWL, outline, proximity and thermal caches
// together. The from-scratch reference is the kernel's own RefCost
// (fresh model, full Eval over the current encoding).
func incrementalFixtures(t *testing.T) map[string]*engine.Solution {
	t.Helper()
	bench := circuits.MillerOpAmp()
	newProb := func(groups bool) *Problem {
		p, err := FromBench(bench)
		if err != nil {
			t.Fatal(err)
		}
		if !groups {
			p.Groups = nil
		}
		p.OutlineW, p.OutlineH = 150, 150
		p.ProxWeight = 0.3
		if len(p.ProxGroups) == 0 {
			p.ProxGroups = [][]int{{0, 1, 2}}
		}
		p.ThermalWeight = 2
		return p
	}
	prob := newProb(true)
	// The thermal term derives its pairs from Groups, so the
	// group-free problems exercise every term except thermal; the
	// seqpair fixtures cover thermal.
	free := newProb(false)

	rng := rand.New(rand.NewSource(17))

	bt := newKernel(free, newBTRep(free, bstar.NewRandom(free.W, free.H, rng)))
	sps := newKernel(prob, newSPRep(prob, seqpair.RandomSF(prob.N(), prob.Groups, rng)))
	rej := newKernel(prob, newSPRejectRep(prob, seqpair.RandomSF(prob.N(), prob.Groups, rng)))
	tc := newKernel(free, newTCGRep(free, tcg.New(free.W, free.H)))

	n := free.N()
	expr := polish{0}
	for i := 1; i < n; i++ {
		expr = append(expr, i, opV)
	}
	sl := newKernel(free, newSlRep(free, expr))

	absR := newAbsRep(free, 10)
	for i := 0; i < n; i++ {
		absR.x[i], absR.y[i] = (i%3)*15, (i/3)*15
	}
	abs := engine.New(absR, absConfig(free, 10))

	return map[string]*engine.Solution{
		"bstar":          bt,
		"seqpair":        sps,
		"seqpair-reject": rej,
		"tcg":            tc,
		"slicing":        sl,
		"absolute":       abs,
	}
}

// TestIncrementalCostMatchesFullEval is the incremental-vs-full
// property test: random Perturb/Undo/Snapshot/Restore sequences on
// every placer, asserting after each step that the incrementally
// maintained cost equals a from-scratch evaluation with tolerance
// zero.
func TestIncrementalCostMatchesFullEval(t *testing.T) {
	for name, sol := range incrementalFixtures(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			check := func(step int, op string) {
				t.Helper()
				got, want := sol.Cost(), sol.RefCost()
				if !costsEqual(got, want) {
					t.Fatalf("step %d (%s): incremental cost %v, from-scratch %v", step, op, got, want)
				}
			}
			check(-1, "init")
			var snap any
			for step := 0; step < 250; step++ {
				switch r := rng.Intn(10); {
				case r < 6:
					sol.Perturb(rng)
					check(step, "perturb")
				case r < 8:
					undo := sol.Perturb(rng)
					undo()
					check(step, "undo")
				case r < 9:
					snap = sol.Snapshot()
					check(step, "snapshot")
				default:
					if snap != nil {
						sol.Restore(snap)
						check(step, "restore")
					}
				}
			}
		})
	}
}

// TestMoveReporter pins the optional MoveReporter protocol on every
// placer: the reported moved set holds unique in-range module ids, and
// a move the model saw as empty leaves the cost unchanged (the set is
// the model's actual dirty set, not a decoration).
func TestMoveReporter(t *testing.T) {
	bench := circuits.MillerOpAmp()
	prob, err := FromBench(bench)
	if err != nil {
		t.Fatal(err)
	}
	n := prob.N()
	for name, sol := range incrementalFixtures(t) {
		t.Run(name, func(t *testing.T) {
			mr, ok := anneal.Solution(sol).(anneal.MoveReporter)
			if !ok {
				t.Fatalf("%s does not implement anneal.MoveReporter", name)
			}
			rng := rand.New(rand.NewSource(3))
			seen := make(map[int]bool, n)
			for step := 0; step < 100; step++ {
				before := sol.Cost()
				sol.Perturb(rng)
				moved := mr.Moved()
				clear(seen)
				for _, m := range moved {
					if m < 0 || m >= n {
						t.Fatalf("step %d: module id %d outside [0,%d)", step, m, n)
					}
					if seen[m] {
						t.Fatalf("step %d: module id %d reported twice", step, m)
					}
					seen[m] = true
				}
				// Infeasible outcomes (packing/predicate rejection)
				// bypass the model, so only finite-to-finite steps
				// must tie an empty moved set to an unchanged cost.
				if len(moved) == 0 && !math.IsInf(before, 1) && !math.IsInf(sol.Cost(), 1) &&
					sol.Cost() != before {
					t.Fatalf("step %d: empty moved set but cost changed %v -> %v",
						step, before, sol.Cost())
				}
			}
		})
	}
}
