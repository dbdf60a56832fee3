package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/wire"
	"repro/placer"
)

// solveCase is one solve of a closed-loop workload's round: an engine
// on an instance with a solver seed.
type solveCase struct {
	alg   string
	label string
	prob  *placer.Problem
	seed  int64
}

// pair names the case's engine and instance, which several cases share
// when a round solves them with several seeds.
func (c *solveCase) pair() string { return c.alg + " × " + c.label }

// solveSpec describes a closed-loop solve workload: one caller makes
// sequential single-worker placer.Solve calls over its cases, round
// after round.
type solveSpec struct {
	sched placer.Schedule
	// cases builds one round from the run seed.
	cases func(seed int64) ([]solveCase, error)
}

// largeSchedule is solve-large's fixed 200-move × 3-stage schedule.
var largeSchedule = placer.Schedule{MovesPerStage: 200, MaxStages: 3, StallStages: 3}

func largeCases(n int) func(int64) ([]solveCase, error) {
	return func(seed int64) ([]solveCase, error) {
		p, err := placer.Synthetic(placer.SyntheticSpec{N: n, Seed: instanceSeed(seed, 0)})
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("synthetic-n%d", n)
		return []solveCase{{placer.SeqPair, label, p, seed}, {placer.BStar, label, p, seed}}, nil
	}
}

// circuitSchedule is solve-circuits' fixed short schedule.
var circuitSchedule = placer.Schedule{MovesPerStage: 20, MaxStages: 3, StallStages: 3}

// circuitPairs are the timed (engine, circuit) pairs of solve-circuits.
var circuitPairs = [][2]string{
	{placer.SeqPair, "miller_v2"},
	{placer.SeqPair, "folded_casc"},
	{placer.SeqPair, "buffer"},
	{placer.SeqPair, "biasynth"},
	{placer.HBStar, "folded_casc"},
	{placer.HBStar, "lnamixbias"},
	{placer.TCG, "buffer"},
}

// knownDefect is the pair that fails today ("no feasible initial
// solution"). Every traced solve-circuits run solves it once, after
// the window, and reports it by name with its error and time. It stays
// out of the timed set because its long failing search would swamp
// solve_wall_s, and out of the untraced runs because it would double
// their length.
var knownDefect = [2]string{placer.SeqPair, "lnamixbias"}

// circuitCases builds a round that solves every pair with solver seeds
// 1..seeds, in an order shuffled by the run seed. The solver seeds are
// fixed, not drawn from the run seed: one seed's search path decides
// much of a symmetric solve's time (biasynth takes 0.8–1.6 s across
// seeds at the same schedule), and with seeds drawn from the run seed
// the round time moved by a quarter from one run seed to the next.
func circuitCases(pairs [][2]string, seeds int) func(int64) ([]solveCase, error) {
	return func(seed int64) ([]solveCase, error) {
		var out []solveCase
		for _, pr := range pairs {
			p, err := placer.Benchmark(pr[1])
			if err != nil {
				return nil, err
			}
			for s := 1; s <= seeds; s++ {
				out = append(out, solveCase{pr[0], pr[1], p, int64(s)})
			}
		}
		rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out, nil
	}
}

// call is one timed Solve with its stage boundaries.
type call struct {
	c    *solveCase
	res  *placer.Result
	wall time.Duration
	// Stage boundaries from the progress callback (traced calls only):
	// entry → first callback is init, first → last the move loop, last
	// → return the finish.
	traced            bool
	first, last       time.Duration
	firstMoves, moves int
	accepted          int
}

func (spec solveSpec) solve(ctx context.Context, c *solveCase, traced bool) (*call, error) {
	cl := &call{c: c, traced: traced}
	opts := []placer.Option{
		placer.WithAlgorithm(c.alg),
		placer.WithSchedule(spec.sched),
		placer.WithSeed(c.seed),
		placer.WithWorkers(1),
	}
	start := time.Now()
	if traced {
		opts = append(opts, placer.WithProgress(func(p placer.Progress) {
			at := time.Since(start)
			if cl.first == 0 {
				cl.first, cl.firstMoves = at, p.Moves
			}
			cl.last, cl.moves, cl.accepted = at, p.Moves, p.Accepted
		}))
	}
	res, err := placer.Solve(ctx, c.prob, opts...)
	cl.wall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s × %s: %w", c.alg, c.label, err)
	}
	cl.res = res
	return cl, nil
}

// solveWindow is the outcome of a closed-loop window.
type solveWindow struct {
	calls  []*call
	rounds int
	wall   time.Duration
	gaps   []time.Duration // caller time between one call's return and the next call
	cpu    time.Duration
}

// runRounds solves every case in turn, whole rounds only, until the
// window has lasted at least d (and at least one round has run).
func (spec solveSpec) runRounds(cases []solveCase, d time.Duration, traced bool) (*solveWindow, error) {
	w := &solveWindow{}
	ctx := context.Background()
	cpu0 := cpuTime()
	start := time.Now()
	var prevEnd time.Time
	for w.rounds == 0 || time.Since(start) < d {
		for i := range cases {
			t := time.Now()
			if !prevEnd.IsZero() {
				w.gaps = append(w.gaps, t.Sub(prevEnd))
			}
			cl, err := spec.solve(ctx, &cases[i], traced)
			if err != nil {
				return nil, err
			}
			prevEnd = time.Now()
			w.calls = append(w.calls, cl)
		}
		w.rounds++
	}
	w.wall = time.Since(start)
	w.cpu = cpuTime() - cpu0
	return w, nil
}

// checkCalls is the solve workloads' correctness pass: each case's
// first result must be a legal placement of every module, and every
// repeat of the case (same engine, instance and seed) must reproduce
// its cost and placement exactly. It returns the number of failed calls
// with their reasons.
func checkCalls(calls []*call) (failed int, reasons []string) {
	first := make(map[*solveCase]*placer.Result)
	for _, cl := range calls {
		ref, seen := first[cl.c]
		var msg string
		switch {
		case !seen:
			first[cl.c] = cl.res
			if !cl.res.Legal {
				msg = "result not legal"
			} else {
				msg = checkPlacement(cl.res.Placement, cl.c.prob)
			}
		case cl.res.Cost != ref.Cost:
			msg = fmt.Sprintf("cost %v differs from the first solve's %v", cl.res.Cost, ref.Cost)
		case !slices.Equal(cl.res.Placement, ref.Placement):
			msg = "placement differs from the first solve's"
		}
		if msg != "" {
			failed++
			reasons = append(reasons, fmt.Sprintf("%s seed %d: %s", cl.c.pair(), cl.c.seed, msg))
		}
	}
	return failed, reasons
}

// firstCosts returns the cost of each case's first result.
func firstCosts(calls []*call) []float64 {
	seen := make(map[*solveCase]bool)
	var out []float64
	for _, cl := range calls {
		if !seen[cl.c] {
			seen[cl.c] = true
			out = append(out, cl.res.Cost)
		}
	}
	return out
}

// checkPlacement verifies a placement independently of the engine's
// own legality flag: every module of p placed exactly once with its own
// dimensions (possibly rotated), and no two rectangles overlapping.
func checkPlacement(placed []placer.Placed, p *placer.Problem) string {
	if len(placed) != p.N() {
		return fmt.Sprintf("%d modules placed, want %d", len(placed), p.N())
	}
	unplaced := make(map[string]placer.Module, p.N())
	for _, m := range p.Modules {
		unplaced[m.Name] = m
	}
	for _, r := range placed {
		m, ok := unplaced[r.Name]
		if !ok {
			return fmt.Sprintf("unknown module %q placed, or placed twice", r.Name)
		}
		delete(unplaced, r.Name)
		if !(r.W == m.W && r.H == m.H) && !(r.W == m.H && r.H == m.W) {
			return fmt.Sprintf("module %q placed as %d×%d, want %d×%d", r.Name, r.W, r.H, m.W, m.H)
		}
	}
	if !toGeom(placed).Legal() {
		return "overlapping modules"
	}
	return ""
}

// wireRequest is the wire form of a solve case, as a client of the
// daemon would send it.
func (spec solveSpec) wireRequest(c *solveCase) (*item, error) {
	return newItem(c.prob, wire.Options{
		Method:        c.alg,
		Seed:          c.seed,
		MovesPerStage: spec.sched.MovesPerStage,
		MaxStages:     spec.sched.MaxStages,
		StallStages:   spec.sched.StallStages,
	})
}
