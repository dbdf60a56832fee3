package placer

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/anneal"
	"repro/internal/cost"
	"repro/internal/geom"
	"repro/internal/obs"
)

// Default annealing schedule, written explicitly into a zero Schedule
// by Solve. It is the one definition shared with the wire format
// (whose canonical encoding spells it out) and the CLI.
const (
	DefaultMovesPerStage = 150
	DefaultMaxStages     = 200
	DefaultStallStages   = 40
	DefaultCooling       = 0.95
)

// DefaultAlgorithm is what Solve runs when no WithAlgorithm or
// WithPortfolio option is given.
const DefaultAlgorithm = SeqPair

// Schedule tunes the annealing schedule. Zero fields mean the
// defaults above; zero InitialTemp/MinTemp mean per-problem
// calibration.
type Schedule struct {
	MovesPerStage int
	MaxStages     int
	StallStages   int
	Cooling       float64
	InitialTemp   float64
	MinTemp       float64
}

// normalize writes the defaults explicitly.
func (s *Schedule) normalize() {
	if s.MovesPerStage == 0 {
		s.MovesPerStage = DefaultMovesPerStage
	}
	if s.MaxStages == 0 {
		s.MaxStages = DefaultMaxStages
	}
	if s.StallStages == 0 {
		s.StallStages = DefaultStallStages
	}
	if s.Cooling == 0 {
		s.Cooling = DefaultCooling
	}
}

// validate rejects schedules that cannot run.
func (s *Schedule) validate() error {
	if s.MovesPerStage < 0 || s.MaxStages < 0 || s.StallStages < 0 {
		return fmt.Errorf("placer: negative schedule option")
	}
	if s.Cooling < 0 || s.Cooling >= 1 {
		return fmt.Errorf("placer: cooling %v outside (0,1)", s.Cooling)
	}
	for _, v := range []float64{s.Cooling, s.InitialTemp, s.MinTemp} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("placer: schedule option %v is not a finite non-negative number", v)
		}
	}
	if s.InitialTemp > 0 && s.MinTemp >= s.InitialTemp {
		// The schedule would run zero stages and hand back the random
		// initial placement as a "solved" result.
		return fmt.Errorf("placer: MinTemp %v not below InitialTemp %v", s.MinTemp, s.InitialTemp)
	}
	return nil
}

// Progress is one streamed annealing snapshot: engines report after
// every completed temperature stage, from every multi-start chain
// (Worker) and — under WithPortfolio — every racing algorithm. The
// callback runs on the annealing goroutines, so it must be cheap and
// safe for concurrent calls.
type Progress struct {
	// Algorithm that produced the snapshot.
	Algorithm string
	// Worker identifies the multi-start chain (0 for serial runs).
	Worker int
	// Stage counts completed temperature stages of that chain.
	Stage int
	// Moves, Accepted and Improved count proposed, accepted and
	// incumbent-improving moves so far (cumulative per chain).
	Moves    int
	Accepted int
	Improved int
	// Temp is the temperature after the reported stage.
	Temp float64
	// Best is the lowest cost the chain has seen so far.
	Best float64
}

// Checkpointer persists best-so-far solver state across solve
// attempts: Save receives the engine's opaque best-state snapshot
// (periodically during the run and at the end, cancelled runs
// included) and Load hands a previously saved snapshot back to warm-
// start the next solve of the same problem. Snapshots are only
// meaningful to the algorithm that produced them — both methods carry
// the algorithm name, and under WithPortfolio every racer checkpoints
// under its own — and to the same problem; the service keys stores by
// the wire content hash, which pins both. Implementations must be
// safe for concurrent use: multi-start chains and portfolio racers
// save concurrently.
type Checkpointer interface {
	Save(algorithm string, snapshot any, cost float64, stage int)
	Load(algorithm string) (snapshot any, cost float64, ok bool)
}

// EngineOptions are the resolved solver knobs an Engine receives from
// Solve: defaults already applied, never nil-ambiguous.
type EngineOptions struct {
	Seed     int64
	Workers  int
	Schedule Schedule
	// TemperChains/ExchangeEvery select parallel tempering (see
	// WithTempering). TemperChains ≤ 1 means no tempering.
	TemperChains  int
	ExchangeEvery int
	// Progress, when non-nil, streams per-stage snapshots.
	Progress func(Progress)
	// AdaptiveMoves enables the engine kernel's acceptance-rate-
	// weighted move portfolio (see WithAdaptiveMoves).
	AdaptiveMoves bool
	// Checkpoint, when non-nil, saves and resumes best-so-far solver
	// state (see WithCheckpoint).
	Checkpoint Checkpointer

	// flight is the solve's flight recorder (see WithTrace), threaded
	// to the annealing engines through annealOptions. It is unexported
	// so the internal recorder type never leaks into the public API:
	// Solve owns the recorder's lifecycle, and external engines —
	// which build no annealOptions — simply record nothing.
	flight *obs.Flight
}

// annealOptions maps the engine options onto the annealing engine's,
// threading the context and tagging progress with the algorithm name.
func (o EngineOptions) annealOptions(ctx context.Context, algorithm string) anneal.Options {
	var sink func(anneal.Stats)
	if o.Progress != nil {
		progress := o.Progress
		sink = func(st anneal.Stats) {
			progress(Progress{
				Algorithm: algorithm,
				Worker:    st.Worker,
				Stage:     st.Stages,
				Moves:     st.Moves,
				Accepted:  st.Accepted,
				Improved:  st.Improved,
				Temp:      st.FinalTemp,
				Best:      st.BestCost,
			})
		}
	}
	aopt := anneal.Options{
		Seed:          o.Seed,
		Workers:       o.Workers,
		TemperChains:  o.TemperChains,
		ExchangeEvery: o.ExchangeEvery,
		MovesPerStage: o.Schedule.MovesPerStage,
		MaxStages:     o.Schedule.MaxStages,
		StallStages:   o.Schedule.StallStages,
		Cooling:       o.Schedule.Cooling,
		InitialTemp:   o.Schedule.InitialTemp,
		MinTemp:       o.Schedule.MinTemp,
		Context:       ctx,
		Progress:      sink,
		Flight:        o.flight,
	}
	if cp := o.Checkpoint; cp != nil {
		aopt.Checkpoint = func(snapshot any, cost float64, stage int) {
			cp.Save(algorithm, snapshot, cost, stage)
		}
		aopt.Resume = func() (any, bool) {
			snapshot, _, ok := cp.Load(algorithm)
			return snapshot, ok
		}
	}
	return aopt
}

// Placed is one module of a solved placement. Its JSON tags are the
// wire result's spelling.
type Placed struct {
	Name string `json:"name"`
	X    int    `json:"x"`
	Y    int    `json:"y"`
	W    int    `json:"w"`
	H    int    `json:"h"`
}

// TermCost is one objective term's share of a result's cost:
// Cost = Weight × Value, and the shares sum to Result.Cost exactly.
type TermCost struct {
	Name   string
	Weight float64
	Value  float64
	Cost   float64
}

// Result is a solved placement.
type Result struct {
	// Algorithm that produced the winning placement (under
	// WithPortfolio: the race winner).
	Algorithm string
	// Cost is the final composite objective value.
	Cost float64
	// Breakdown decomposes Cost per objective term (area, hpwl,
	// outline, proximity, thermal, plus engine-specific terms such as
	// the absolute engine's overlap penalty or the hierarchical
	// engine's proximity-frag count).
	Breakdown []TermCost
	// BBoxW/BBoxH is the placement bounding box; AreaUsage is module
	// area over bounding-box area; Legal reports the placement
	// overlap-free.
	BBoxW, BBoxH int
	AreaUsage    float64
	Legal        bool
	// Violations lists remaining constraint violations against the
	// problem's full constraint set (symmetry included, whether or not
	// the representation enforced it by construction).
	Violations []string
	// Cancelled reports the run stopped on ctx cancellation or
	// WithDeadline expiry; the placement is the best seen so far.
	// Under WithPortfolio it is set if any racer was truncated, even
	// when the winner ran to completion.
	Cancelled bool
	// Stages and Moves count annealing work (under WithPortfolio and
	// multi-start: summed across racers and chains).
	Stages, Moves int
	// Runtime is the solve wall-clock.
	Runtime time.Duration
	// Trace is the solve's flight recording (see WithTrace); nil when
	// tracing was not requested. Under WithPortfolio it is the winning
	// racer's recording.
	Trace *Trace
	// EngineTraces holds every racer's recording under WithPortfolio —
	// winner included, in racing order, each bounded to its newest
	// MaxEngineTraceEvents events — so losing representations remain
	// inspectable (why did seqpair beat slicing here?). Nil outside
	// portfolio mode or when tracing was not requested.
	EngineTraces []*Trace
	// Placement lists modules in problem order, so equal results mean
	// identical placements.
	Placement []Placed
}

// config is the resolved option set.
type config struct {
	algorithm     string
	portfolio     bool
	workers       int
	seed          int64
	schedule      Schedule
	progress      func(Progress)
	deadline      time.Time
	adaptive      bool
	checkpoint    Checkpointer
	temperChains  int
	exchangeEvery int
	trace         bool
	traceEvents   int
	recorder      *obs.Flight
}

// Option configures Solve.
type Option func(*config)

// WithAlgorithm selects a registered algorithm by name (default
// seqpair). It overrides an earlier WithPortfolio, and vice versa —
// the last selection option wins.
func WithAlgorithm(name string) Option {
	return func(c *config) {
		c.algorithm = name
		c.portfolio = false
	}
}

// WithPortfolio races every portfolio-eligible flat engine (see
// PortfolioAlgorithms) on the problem concurrently and keeps the
// winner: fewest constraint violations first, then lowest cost, then
// racing order — so a symmetry-constrained problem is never "won" by
// a representation that ignored its symmetry groups, and the choice
// is deterministic.
func WithPortfolio() Option {
	return func(c *config) { c.portfolio = true }
}

// WithWorkers runs n parallel multi-start annealing chains per engine
// (worker 0 replicates the serial chain, so multi-start never loses
// to serial). Under WithPortfolio the budget is split across the
// racers. Values below 1 mean 1.
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithSeed seeds the annealing RNGs; equal seeds give bit-identical
// runs.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithTempering runs parallel tempering (replica exchange) instead of
// independent multi-start: chains annealing chains run at a geometric
// temperature ladder (chain 0 coldest) and every exchangeEvery stages
// neighboring chains attempt a Metropolis-accepted state swap, so
// discoveries made at high temperature migrate down the ladder. With
// exchangeEvery ≤ 0 exchanges are disabled and the run is
// bit-identical to WithWorkers(chains) multi-start — chain 0 still
// replicates the serial chain, so tempering never loses to serial.
// chains ≤ 1 disables tempering entirely. When both WithTempering and
// WithWorkers are given, tempering wins (the chains are the
// parallelism); under WithPortfolio every racer tempers with the same
// parameters. See PERFORMANCE.md's PR 7 section for when this pays:
// on the n ≥ 10⁴ synthetic instances it reaches the best multi-start
// cost in a fraction of the wall-clock for the same chain budget.
func WithTempering(chains, exchangeEvery int) Option {
	return func(c *config) {
		c.temperChains = chains
		c.exchangeEvery = exchangeEvery
	}
}

// WithSchedule tunes the annealing schedule (zero fields keep the
// defaults).
func WithSchedule(s Schedule) Option {
	return func(c *config) { c.schedule = s }
}

// WithProgress streams per-stage annealing snapshots to fn while the
// solve runs. fn is called from the annealing goroutines (one per
// chain and racer), so it must be cheap and concurrency-safe.
func WithProgress(fn func(Progress)) Option {
	return func(c *config) { c.progress = fn }
}

// WithDeadline bounds the solve wall-clock: past t the run cancels at
// the next annealing stage boundary and returns the best-so-far
// placement with Result.Cancelled set. It composes with (and never
// extends) a deadline already on ctx.
func WithDeadline(t time.Time) Option {
	return func(c *config) { c.deadline = t }
}

// WithAdaptiveMoves enables the engine kernel's adaptive move
// portfolio: move kinds are proposed with probability proportional to
// their observed acceptance rate instead of the representation's fixed
// distribution, so the search shifts effort toward moves the current
// temperature regime still accepts. It applies to flat engines whose
// representation exposes a move table (seqpair, slicing, absolute and
// the genetic variants); other engines ignore it. Default off — the
// fixed distributions are the bit-reproducible historical behavior, so
// runs with adaptive moves are deterministic for a seed but not
// comparable to runs without.
func WithAdaptiveMoves() Option {
	return func(c *config) { c.adaptive = true }
}

// WithCheckpoint persists best-so-far solver state through cp: the
// engines periodically save their best snapshot while annealing (and
// always at the end, so a run cancelled by ctx or WithDeadline leaves
// its latest best behind), and a later Solve of the same problem with
// the same cp warm-starts from the saved state instead of a cold
// random placement — under multi-start, on the serial-equivalent
// chain, so the resumed run is never worse than the checkpoint.
// Engines without an in-place annealing phase ignore it.
func WithCheckpoint(cp Checkpointer) Option {
	return func(c *config) { c.checkpoint = cp }
}

// Solve places the problem. The problem is validated and a normalized
// copy is solved (the caller's struct is never modified), so any two
// spellings of one semantic problem solve identically. Cancellation —
// ctx or WithDeadline — lands at annealing stage boundaries and
// returns the best placement found so far with Result.Cancelled set.
func Solve(ctx context.Context, p *Problem, opts ...Option) (*Result, error) {
	cfg := config{algorithm: DefaultAlgorithm, workers: 1}
	for _, o := range opts {
		o(&cfg)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.temperChains < 0 {
		cfg.temperChains = 0
	}
	if cfg.exchangeEvery < 0 {
		cfg.exchangeEvery = 0
	}
	cfg.schedule.normalize()
	if err := cfg.schedule.validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	np := p.Clone()
	np.Normalize()
	if !cfg.deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, cfg.deadline)
		defer cancel()
	}
	start := time.Now()
	res, err := solveConfigured(ctx, np, cfg)
	if err != nil {
		return nil, err
	}
	if res.Stages == 0 && !res.Cancelled {
		// A degenerate schedule (e.g. MinTemp above the calibrated
		// initial temperature, which static validation cannot see)
		// would hand back the random initial placement as if it were
		// solved.
		return nil, fmt.Errorf("placer: schedule ran zero annealing stages; check MinTemp against the (calibrated) initial temperature")
	}
	res.Runtime = time.Since(start)
	return res, nil
}

// solveConfigured dispatches one normalized problem: the portfolio
// race, or a single registry engine.
func solveConfigured(ctx context.Context, p *Problem, cfg config) (*Result, error) {
	if cfg.portfolio {
		return solvePortfolio(ctx, p, cfg)
	}
	factory, ok := Lookup(cfg.algorithm)
	if !ok {
		return nil, ErrUnknownAlgorithm(cfg.algorithm)
	}
	eo := cfg.engineOptions()
	ctx, span := obs.StartSpan(ctx, "engine", obs.KV("algorithm", cfg.algorithm))
	res, err := factory().Solve(ctx, p, eo)
	span.End()
	if err == nil && eo.flight != nil {
		res.Trace = traceFromFlight(cfg.algorithm, eo.flight)
	}
	return res, err
}

func (c config) engineOptions() EngineOptions {
	eo := EngineOptions{
		Seed:          c.seed,
		Workers:       c.workers,
		Schedule:      c.schedule,
		TemperChains:  c.temperChains,
		ExchangeEvery: c.exchangeEvery,
		Progress:      c.progress,
		AdaptiveMoves: c.adaptive,
		Checkpoint:    c.checkpoint,
	}
	switch {
	case c.recorder != nil:
		eo.flight = c.recorder
	case c.trace:
		eo.flight = obs.NewFlight(c.traceEvents)
	}
	return eo
}

// solvePortfolio races the portfolio-eligible flat engines on the
// same problem concurrently — each chain honors ctx, so one
// cancellation stops the whole race — and keeps the winner under the
// deterministic feasibility-first ranking of WithPortfolio.
func solvePortfolio(ctx context.Context, p *Problem, cfg config) (*Result, error) {
	racers := PortfolioAlgorithms()
	if len(racers) == 0 {
		return nil, fmt.Errorf("placer: no portfolio-eligible algorithms registered")
	}
	type entry struct {
		res *Result
		err error
	}
	results := make([]entry, len(racers))
	// The racers split the caller's worker budget rather than each
	// claiming it, so portfolio mode cannot multiply a worker ceiling
	// by the racer count.
	racerCfg := cfg
	racerCfg.workers = max(1, cfg.workers/len(racers))
	// A caller-owned recorder is never shared across racers: their
	// interleaved events would destroy per-racer trace determinism.
	// Each racer gets a private ring of the same capacity instead (see
	// WithRecorder); engineOptions allocates it per racer below.
	racerCfg.recorder = nil
	var wg sync.WaitGroup
	wg.Add(len(racers))
	for i, name := range racers {
		go func(i int, name string) {
			defer wg.Done()
			defer func() {
				// One racer's panic fails that racer, not the caller's
				// process-wide run.
				if r := recover(); r != nil {
					results[i] = entry{nil, fmt.Errorf("placer: %s racer panic: %v\n%s", name, r, debug.Stack())}
				}
			}()
			factory, ok := Lookup(name)
			if !ok {
				results[i] = entry{nil, ErrUnknownAlgorithm(name)}
				return
			}
			// Every racer records into its own ring; the winner's
			// recording survives on the returned result.
			eo := racerCfg.engineOptions()
			rctx, span := obs.StartSpan(ctx, "engine", obs.KV("algorithm", name))
			res, err := factory().Solve(rctx, p, eo)
			span.End()
			if err == nil && eo.flight != nil {
				res.Trace = traceFromFlight(name, eo.flight)
			}
			results[i] = entry{res, err}
		}(i, name)
	}
	wg.Wait()

	order := make([]int, 0, len(results))
	var firstErr error
	for i, e := range results {
		if e.err != nil {
			if firstErr == nil {
				firstErr = e.err
			}
			continue
		}
		order = append(order, i)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("placer: every portfolio racer failed: %v", firstErr)
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := results[order[a]].res, results[order[b]].res
		if len(ra.Violations) != len(rb.Violations) {
			return len(ra.Violations) < len(rb.Violations)
		}
		if ra.Cost != rb.Cost {
			return ra.Cost < rb.Cost
		}
		return order[a] < order[b]
	})
	win := results[order[0]].res
	if win.Stages == 0 && !win.Cancelled {
		// Checked on the winner's own counters, before loser
		// aggregation can mask it: a zero-stage winner is its random
		// initial placement, not a solved one (see Solve's guard).
		return nil, fmt.Errorf("placer: portfolio winner %s ran zero annealing stages; check MinTemp against the (calibrated) initial temperature", win.Algorithm)
	}
	// Aggregate race-wide counters so progress and result agree on the
	// total work done — and the race-wide cancellation: if any racer
	// was truncated, the race is not the full deterministic race, so
	// the result must be flagged cancelled (and, in the service, never
	// cached), even when the winning racer itself ran to completion.
	for _, i := range order[1:] {
		win.Stages += results[i].res.Stages
		win.Moves += results[i].res.Moves
		if results[i].res.Cancelled {
			win.Cancelled = true
		}
	}
	// Retain every racer's recording (winner included) in racing
	// order, each capped — the winner's full trace is already on
	// win.Trace; EngineTraces is the bounded race post-mortem.
	if cfg.trace {
		for i := range results {
			if results[i].err == nil && results[i].res.Trace != nil {
				win.EngineTraces = append(win.EngineTraces, truncateTrace(results[i].res.Trace, MaxEngineTraceEvents))
			}
		}
	}
	return win, nil
}

// newResult assembles the common result fields from a named
// placement; violations are the caller's to append.
func newResult(p *Problem, algorithm string, pl geom.Placement, costVal float64, stats anneal.Stats, breakdown []cost.TermValue) *Result {
	bb := pl.BBox()
	out := &Result{
		Algorithm: algorithm,
		Cost:      costVal,
		BBoxW:     bb.W,
		BBoxH:     bb.H,
		AreaUsage: pl.AreaUsage(),
		Legal:     pl.Legal(),
		Cancelled: stats.Cancelled,
		Stages:    stats.Stages,
		Moves:     stats.Moves,
	}
	for _, tv := range breakdown {
		out.Breakdown = append(out.Breakdown, TermCost{
			Name:   tv.Name,
			Weight: tv.Weight,
			Value:  tv.Value,
			Cost:   tv.Weight * tv.Value,
		})
	}
	for _, m := range p.Modules {
		if r, ok := pl[m.Name]; ok {
			out.Placement = append(out.Placement, Placed{Name: m.Name, X: r.X, Y: r.Y, W: r.W, H: r.H})
		}
	}
	return out
}
