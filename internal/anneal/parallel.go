package anneal

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// chainSeed derives the seed of worker i from the base seed. The
// multiplier is an arbitrary large odd constant so neighboring worker
// ids land far apart in the seed space; the mapping is fixed, keeping
// multi-start runs reproducible for a given (seed, workers) pair.
func chainSeed(base int64, worker int) int64 {
	const stride = 0x4F1BBCDCBFA53E0B // 2⁶³/φ, odd
	return base + int64(worker)*stride
}

// ParallelAnneal runs parallel multi-start simulated annealing: one
// independent chain per worker, each on its own solution built by
// newSolution from a derived seed (so every chain owns its RNG, its
// representation state and its packing workspaces — nothing is shared
// between goroutines), followed by a best-of reduction.
//
// The result is deterministic for a fixed (opt.Seed, workers) pair:
// worker i always receives chainSeed(opt.Seed, i) regardless of
// scheduling, and cost ties in the reduction are broken by the lowest
// worker id. Worker 0 runs the exact chain a serial Anneal with the
// same Options would run.
//
// Each chain runs the in-place engine, allocation-free at steady
// state; the aggregate Stats sum moves across chains while InitCost/BestCost/FinalTemp come
// from the winning chain, Worker records the winning chain's id, and
// Cancelled is set when any chain stopped on Options.Context.
//
// Options.Progress snapshots are stamped with the reporting chain's
// Worker id; the callback is invoked concurrently from every chain.
func ParallelAnneal(newSolution func(seed int64) Solution, workers int, opt Options) (Solution, Stats) {
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		return Anneal(newSolution(chainSeed(opt.Seed, 0)), opt)
	}
	type chain struct {
		best  Solution
		stats Stats
	}
	results := make([]chain, workers)
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicked any
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func(i int) {
			defer wg.Done()
			defer func() {
				// A chain panic would kill the process from this
				// goroutine, where no caller can recover it; capture
				// it — with the originating chain's stack, which the
				// rethrow would otherwise lose — and rethrow on the
				// calling goroutine, so servers wrapping
				// ParallelAnneal in a recover see it.
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = fmt.Sprintf("worker %d: %v\n%s", i, r, debug.Stack())
					}
					panicMu.Unlock()
				}
			}()
			seed := chainSeed(opt.Seed, i)
			wopt := opt
			wopt.Seed = seed
			wopt.Workers = 1
			// Flight events and stage spans carry the chain id; the
			// recorder itself is shared (it is concurrency-safe).
			wopt.chain = i
			if prog := opt.Progress; prog != nil {
				wopt.Progress = func(st Stats) {
					st.Worker = i
					prog(st)
				}
			}
			// Only worker 0 — the chain that replicates a serial run —
			// resumes from a checkpoint; the other chains keep their
			// independent multi-start starts, so a resumed run still
			// explores while never losing the checkpointed best.
			if i != 0 {
				wopt.Resume = nil
			}
			best, stats := Anneal(newSolution(seed), wopt)
			stats.Worker = i
			results[i] = chain{best, stats}
		}(i)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}

	win := 0
	agg := Stats{}
	for i, r := range results {
		agg.Stages += r.stats.Stages
		agg.Moves += r.stats.Moves
		agg.Accepted += r.stats.Accepted
		agg.Improved += r.stats.Improved
		if r.stats.Cancelled {
			agg.Cancelled = true
		}
		if r.stats.BestCost < results[win].stats.BestCost {
			win = i
		}
	}
	agg.InitCost = results[win].stats.InitCost
	agg.BestCost = results[win].stats.BestCost
	agg.FinalTemp = results[win].stats.FinalTemp
	agg.Worker = results[win].stats.Worker
	return results[win].best, agg
}
