package anneal

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"

	"repro/internal/obs"
)

// defaultTemperLadder is the geometric spacing between neighboring
// rungs of the tempering temperature ladder when Options.TemperLadder
// is unset. 1.6 keeps neighboring rungs close enough that exchange
// acceptance stays useful on the placement objectives (measured
// 20–60 % on the synthetic instances) while spanning more than an
// order of magnitude of temperature across 8 chains.
//
// The ladder is anchored at the top: the hottest rung runs at the
// calibrated (or configured) initial temperature and rung k sits
// TemperLadder^(chains−1−k) below it. Anchoring at the bottom — cold
// rung at the calibrated temperature, hotter rungs above — wastes the
// high rungs, because calibration already targets near-free
// acceptance and anything hotter is a pure random walk. Anchored at
// the top, the ladder covers the whole useful temperature range at
// once: the cold rung starts where a serial schedule would arrive
// only after dozens of cooling stages, and the hot rungs keep the
// mobility the serial schedule front-loads.
const defaultTemperLadder = 3.5

// temperExchangeSalt offsets the dedicated exchange RNG from the
// chain seeds, so enabling exchanges never perturbs any chain's own
// move sequence.
const temperExchangeSalt = 0x7E117E9

// replica is one rung of the tempering ladder: a chain with its own
// solution, RNG, temperature and best-so-far tracking.
type replica struct {
	sol      Solution
	rng      *rand.Rand
	cost     float64
	temp     float64
	bestSnap any
	bestCost float64
	stats    Stats
	kinds    MoveKindReporter // non-nil when sol reports per-kind counters
}

// noteBest records the current state as the replica's best if it
// improves on it (used after a replica exchange delivers a state the
// chain's own walk never visited).
func (r *replica) noteBest() {
	if r.cost < r.bestCost {
		r.bestCost = r.cost
		r.bestSnap = r.sol.Snapshot()
	}
}

// runStage advances the replica by one temperature stage. The move
// loop, acceptance rule, statistics and RNG discipline are exactly
// Anneal's, so a replica with exchanges disabled walks the
// same trajectory a serial chain with the same seed would. Progress
// snapshots and flight events carry the replica's rung in Worker:
// replicas are pinned to their rung (exchanges swap states, not
// chains), so the stream tracks one temperature level.
func (r *replica) runStage(opt *Options) {
	stageSpan := obs.ChildSpan(opt.Context, "stage", obs.Int("chain", r.stats.Worker), obs.Int("stage", r.stats.Stages+1))
	r.stats.Stages++
	for move := 0; move < opt.MovesPerStage; move++ {
		r.stats.Moves++
		undo := r.sol.Perturb(r.rng)
		nextCost := r.sol.Cost()
		delta := nextCost - r.cost
		if delta <= 0 || r.rng.Float64() < math.Exp(-delta/r.temp) {
			r.stats.Accepted++
			if delta < 0 {
				r.stats.Improved++
			}
			r.cost = nextCost
			if r.cost < r.bestCost {
				r.bestCost = r.cost
				r.bestSnap = r.sol.Snapshot()
			}
		} else {
			undo()
		}
	}
	r.temp *= opt.Cooling
	r.stats.FinalTemp = r.temp
	opt.report(r.stats, r.bestCost)
	if opt.Flight != nil {
		recordStage(opt.Flight, r.stats.Worker, &r.stats, r.cost, r.bestCost, r.kinds)
	}
	stageSpan.End()
}

// TemperAnneal runs parallel tempering (replica exchange): chains
// replicas anneal concurrently at a geometric temperature ladder
// anchored at the top (the hottest rung at the calibrated base
// temperature, rung k at TemperLadder^(chains−1−k) below it, rung 0
// coldest), and every Options.ExchangeEvery stages neighboring
// rungs attempt a state swap through Snapshot/Restore, accepted with
// the Metropolis criterion min(1, exp((βa−βb)(Ea−Eb))) — a better
// state always migrates toward the cold rung, a worse one climbs the
// ladder with temperature-matched probability. High rungs cross cost
// barriers that would trap a cold chain; exchanges hand their
// discoveries down the ladder.
//
// With exchanges disabled (ExchangeEvery ≤ 0) or fewer than two
// chains the call delegates to ParallelAnneal, bit-identically: rung
// 0 then replicates the exact serial chain of Anneal with the same
// Options, preserving the never-loses-to-serial contract. With
// exchanges enabled each chain still draws the move sequence of its
// multi-start counterpart (the exchange sweep has its own RNG), the
// schedule ends on rung 0's temperature floor, and the run remains
// deterministic for a fixed (Seed, chains, ExchangeEvery).
//
// Cancellation is checked once per stage on the coordinator; chains
// are joined at stage boundaries and exchanges happen between them,
// so a cancelled run never leaves a wedged chain. Stats aggregate all
// chains (Exchanges/ExchangeAccepted count the sweep outcomes);
// InitCost/BestCost/FinalTemp/Worker come from the winning rung, ties
// broken by the lowest rung id.
func TemperAnneal(newSolution func(seed int64) Solution, chains int, opt Options) (Solution, Stats) {
	if chains < 2 || opt.ExchangeEvery <= 0 {
		return ParallelAnneal(newSolution, chains, opt)
	}
	opt = opt.withDefaults()
	ladder := opt.TemperLadder
	if ladder <= 1 {
		ladder = defaultTemperLadder
	}
	// One span for the whole ladder; the replicas' stage spans parent
	// to it through the derived context.
	var ladderSpan *obs.ActiveSpan
	opt.Context, ladderSpan = obs.StartSpan(opt.Context, "anneal", obs.Int("chains", chains))
	defer ladderSpan.End()

	var panicMu sync.Mutex
	var panicked any
	capture := func(k int) {
		if r := recover(); r != nil {
			panicMu.Lock()
			if panicked == nil {
				panicked = fmt.Sprintf("replica %d: %v\n%s", k, r, debug.Stack())
			}
			panicMu.Unlock()
		}
	}

	// Build every replica concurrently: each owns its representation,
	// workspaces and RNG, seeded exactly like ParallelAnneal's chains;
	// only rung 0 consumes a resume checkpoint. Calibration mirrors
	// Anneal, then the ladder scales rung k's base temperature.
	reps := make([]*replica, chains)
	var wg sync.WaitGroup
	wg.Add(chains)
	for k := 0; k < chains; k++ {
		go func(k int) {
			defer wg.Done()
			defer capture(k)
			seed := chainSeed(opt.Seed, k)
			r := &replica{rng: rand.New(rand.NewSource(seed + 1))}
			r.stats.Worker = k
			r.sol = newSolution(seed)
			r.kinds, _ = r.sol.(MoveKindReporter)
			resumed := false
			if k == 0 && opt.Resume != nil {
				if snap, ok := opt.Resume(); ok {
					r.sol.Restore(snap)
					resumed = true
				}
			}
			r.cost = r.sol.Cost()
			if resumed && opt.Flight != nil {
				opt.Flight.Record(obs.Event{Kind: obs.EventResume, Worker: int32(k), Cur: r.cost, Best: r.cost, Peer: -1})
			}
			r.stats.InitCost = r.cost
			r.bestSnap = r.sol.Snapshot()
			r.bestCost = r.cost
			base := opt.InitialTemp
			if base <= 0 {
				base = calibrate(r.sol, r.rng)
				r.cost = r.sol.Cost()
			}
			r.temp = base * math.Pow(ladder, float64(k-(chains-1)))
			reps[k] = r
		}(k)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}

	minTemp := opt.MinTemp
	if minTemp <= 0 {
		minTemp = reps[0].temp * 1e-3
	}
	xrng := rand.New(rand.NewSource(opt.Seed + temperExchangeSalt))

	agg := Stats{}
	globalBestCost := math.Inf(1)
	var globalBestSnap any
	for _, r := range reps {
		if r.bestCost < globalBestCost {
			globalBestCost = r.bestCost
			globalBestSnap = r.bestSnap
		}
	}
	// The initial best is capture-worthy, exactly as in Anneal.
	newSinceCapture := true

	stall := 0
	stages := 0
	// The schedule is rung 0's: the run ends when the coldest chain's
	// temperature floor, stage bound or stall bound trips, with stall
	// counted on the ladder-wide best.
	for stage := 0; stage < opt.MaxStages && reps[0].temp > minTemp && stall < opt.StallStages; stage++ {
		if opt.cancelled() {
			agg.Cancelled = true
			break
		}
		stages++
		wg.Add(chains)
		for k := 0; k < chains; k++ {
			go func(k int) {
				defer wg.Done()
				defer capture(k)
				reps[k].runStage(&opt)
			}(k)
		}
		wg.Wait()
		if panicked != nil {
			panic(panicked)
		}
		improved := false
		for _, r := range reps {
			if r.bestCost < globalBestCost {
				globalBestCost = r.bestCost
				globalBestSnap = r.bestSnap
				improved = true
				newSinceCapture = true
			}
		}
		if improved {
			stall = 0
		} else {
			stall++
		}
		if opt.Checkpoint != nil && newSinceCapture && stages%opt.CheckpointEvery == 0 {
			opt.Checkpoint(globalBestSnap, globalBestCost, stages)
			// Worker -1: the capture is of the ladder-wide best, not any
			// one rung's.
			opt.Flight.Record(obs.Event{Kind: obs.EventCheckpoint, Worker: -1, Stage: int32(stages), Best: globalBestCost, Peer: -1})
			newSinceCapture = false
		}
		// Replica-exchange sweep over neighboring rungs, on the
		// coordinator between stage barriers (no chain is running, so
		// a swap can never race a move and cancellation can never
		// wedge a chain mid-exchange). The sweep's RNG is its own:
		// enabling exchanges changes no chain's move sequence.
		if stages%opt.ExchangeEvery == 0 {
			for k := 0; k < chains-1; k++ {
				a, b := reps[k], reps[k+1]
				agg.Exchanges++
				// βa > βb (a is colder); swapping states changes the
				// joint Boltzmann weight by exp((βa−βb)(Ea−Eb)).
				delta := (1/a.temp - 1/b.temp) * (a.cost - b.cost)
				accept := delta >= 0 || xrng.Float64() < math.Exp(delta)
				if opt.Flight != nil {
					// Recorded with the pre-swap costs: the decision's
					// inputs, whichever way it went.
					opt.Flight.Record(obs.Event{
						Kind: obs.EventExchange, Stage: int32(stages),
						Worker: int32(k), Temp: a.temp, Cur: a.cost,
						Peer: int32(k + 1), PeerTemp: b.temp, PeerCost: b.cost,
						Accept: accept,
					})
				}
				if accept {
					agg.ExchangeAccepted++
					sa := a.sol.Snapshot()
					a.sol.Restore(b.sol.Snapshot())
					b.sol.Restore(sa)
					a.cost, b.cost = b.cost, a.cost
					a.noteBest()
					b.noteBest()
				}
			}
		}
	}

	win := 0
	for i, r := range reps {
		agg.Stages += r.stats.Stages
		agg.Moves += r.stats.Moves
		agg.Accepted += r.stats.Accepted
		agg.Improved += r.stats.Improved
		if r.bestCost < reps[win].bestCost {
			win = i
		}
	}
	agg.InitCost = reps[win].stats.InitCost
	agg.BestCost = reps[win].bestCost
	agg.FinalTemp = reps[win].stats.FinalTemp
	agg.Worker = win
	if opt.Checkpoint != nil && newSinceCapture {
		opt.Checkpoint(globalBestSnap, globalBestCost, stages)
		opt.Flight.Record(obs.Event{Kind: obs.EventCheckpoint, Worker: -1, Stage: int32(stages), Best: globalBestCost, Peer: -1})
	}
	winner := reps[win]
	winner.sol.Restore(winner.bestSnap)
	return winner.sol, agg
}
