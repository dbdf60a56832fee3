package service

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/wire"
	"repro/placer"
)

// Solve runs one wire request to completion (or cancellation) and
// builds the wire result; it is the one solve path shared by the
// scheduler, the CLI's -json mode and client examples, and it alone
// converts the request's timeout_ms into a context deadline (callers
// layer their own ceilings on ctx). It is a thin adapter over
// placer.Solve: the wire problem's embedded placer.Problem is solved
// as is (placer.Solve works on its own copy), the options map onto
// functional options, and the placer registry does all algorithm
// dispatch — the service carries no algorithm switch of its own. The progress callback (may be nil)
// receives every annealing stage snapshot tagged with the algorithm
// that produced it. Extra placer options (the scheduler's checkpoint
// wiring, a shortened pressure-mode schedule) are appended after the
// request-derived ones, so they win where they overlap.
//
// Failpoints (chaos testing, see internal/fault): "solve/error" fails
// the solve with an injected error; "solve/slow" stalls it — bounded
// by ctx, so deadlines and cancellation still cut a stuck solve loose.
func Solve(ctx context.Context, req *wire.Request, progress func(placer.Progress), extra ...placer.Option) (*wire.Result, error) {
	// Always solve the canonical form, whatever the caller's spelling:
	// content-addressed caching is only sound if the normalized
	// encoding is also the one that runs. Normalize never masks
	// validity; Validate rejects what decoding would have rejected.
	req.Problem.Normalize()
	req.Options.Normalize()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if t := req.Options.TimeoutMS; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(t)*time.Millisecond)
		defer cancel()
	}
	opts := []placer.Option{
		placer.WithSeed(req.Options.Seed),
		placer.WithWorkers(req.Options.Workers),
		placer.WithSchedule(req.Options.Schedule()),
	}
	if req.Options.TemperChains > 0 {
		opts = append(opts, placer.WithTempering(req.Options.TemperChains, req.Options.ExchangeEvery))
	}
	if req.Options.Method == wire.MethodPortfolio {
		opts = append(opts, placer.WithPortfolio())
	} else {
		opts = append(opts, placer.WithAlgorithm(req.Options.Method)) // Normalize made the method explicit
	}
	if progress != nil {
		opts = append(opts, placer.WithProgress(progress))
	}
	opts = append(opts, extra...)
	ctx, span := obs.StartSpan(ctx, "solve",
		obs.KV("method", req.Options.Method), obs.KV("problem", req.Problem.Name))
	defer span.End()
	fired, err := injectSolveFaults(ctx)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := placer.Solve(ctx, &req.Problem.Problem, opts...)
	if err != nil {
		return nil, err
	}
	// The wire result names the algorithm that produced the placement;
	// under method=portfolio that is the winning racer, same as before
	// the placer refactor, so clients learn which representation won.
	out := wireResult(&req.Problem, res.Algorithm, res)
	out.RuntimeMS = time.Since(start).Milliseconds()
	if res.Trace != nil {
		// Solve-path failpoints fire before any chain exists; they lead
		// the recording so chaos runs are visible in the same trace that
		// explains the solve.
		out.Trace = prependFailpoints(&wire.Trace{Version: wire.Version, Trace: *res.Trace}, fired)
	}
	// Portfolio races carry every racer's (capped) recording alongside
	// the winner's full trace.
	for _, et := range res.EngineTraces {
		out.EngineTraces = append(out.EngineTraces, &wire.Trace{Version: wire.Version, Trace: *et})
	}
	return out, nil
}

// maxInjectedStall bounds the "solve/slow" failpoint's stall on a
// context with no deadline, so an injected hang can prove the
// MaxSolve/timeout machinery cuts stuck solves loose without being
// able to wedge a deadline-free caller forever.
const maxInjectedStall = 30 * time.Second

// injectSolveFaults applies the solve-path failpoints: a stall
// ("solve/slow", bounded by ctx) and an error return ("solve/error").
// With no failpoint armed it costs one atomic load per name. It
// returns the names of failpoints that fired (for the flight
// recording) alongside any injected error.
func injectSolveFaults(ctx context.Context) (fired []string, err error) {
	if fault.Point("solve/slow") {
		fired = append(fired, "solve/slow")
		t := time.NewTimer(maxInjectedStall)
		select {
		case <-ctx.Done():
		case <-t.C:
		}
		t.Stop()
	}
	if fault.Point("solve/error") {
		fired = append(fired, "solve/error")
		return fired, fmt.Errorf("service: injected solve error (failpoint solve/error)")
	}
	return fired, nil
}

// wireResult encodes a placer result onto the wire.
func wireResult(p *wire.Problem, method string, res *placer.Result) *wire.Result {
	return &wire.Result{
		Version:    wire.Version,
		Name:       p.Name,
		Method:     method,
		Cost:       res.Cost,
		Breakdown:  wireBreakdown(res.Breakdown),
		BBoxW:      res.BBoxW,
		BBoxH:      res.BBoxH,
		AreaUsage:  res.AreaUsage,
		Legal:      res.Legal,
		Violations: res.Violations,
		Cancelled:  res.Cancelled,
		Stages:     res.Stages,
		Moves:      res.Moves,
		// Wire placements list modules in problem order (placer.Result
		// already does), so byte-equal results mean identical placements.
		Placement: res.Placement,
	}
}

// prependFailpoints returns tr led by one failpoint event per point,
// outside any chain (worker and stage -1), in firing order. It is how
// solve-path failpoints and the worker crashes a job survived enter
// its recording. With points to add it returns a fresh trace (a bare
// header when tr is nil) and never mutates tr, which may be a stored
// result's; with none it returns tr itself.
func prependFailpoints(tr *wire.Trace, points []string) *wire.Trace {
	if len(points) == 0 {
		return tr
	}
	out := &wire.Trace{Version: wire.Version}
	if tr != nil {
		*out = *tr
	}
	events := make([]placer.TraceEvent, 0, len(points)+len(out.Events))
	for _, point := range points {
		events = append(events, placer.TraceEvent{Kind: wire.TraceKindFailpoint, Worker: -1, Stage: -1, Point: point})
	}
	out.Events = append(events, out.Events...)
	return out
}

// wireBreakdown maps the per-term cost decomposition onto the named
// wire fields (weighted contributions; they sum to the result cost).
func wireBreakdown(terms []placer.TermCost) *wire.Breakdown {
	if len(terms) == 0 {
		return nil
	}
	bd := &wire.Breakdown{}
	for _, t := range terms {
		switch t.Name {
		case "area":
			bd.Area = t.Cost
		case "hpwl":
			bd.HPWL = t.Cost
		case "outline":
			bd.Outline = t.Cost
		case "proximity":
			bd.Proximity = t.Cost
		case "thermal":
			bd.Thermal = t.Cost
		case "overlap":
			bd.Overlap = t.Cost
		case "proximity-frag":
			bd.Fragments = t.Cost
		}
	}
	return bd
}

// AlgorithmView is one registry entry on the HTTP API and in the
// CLI's -algorithms listing.
type AlgorithmView struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"` // flat, hierarchical, or portfolio (the meta-method)
	Portfolio   bool   `json:"portfolio"`
	Description string `json:"description,omitempty"`
}

// AlgorithmViews lists every valid wire method from the placer
// registry: the registered engines (name, flat/hierarchical,
// portfolio eligibility) plus the portfolio meta-method, so clients
// never have to guess valid `algorithm` strings.
func AlgorithmViews() []AlgorithmView {
	infos := placer.Algorithms()
	out := make([]AlgorithmView, 0, len(infos)+1)
	for _, info := range infos {
		out = append(out, AlgorithmView{
			Name:        info.Name,
			Kind:        info.Kind(),
			Portfolio:   info.PortfolioEligible(),
			Description: info.Description,
		})
	}
	out = append(out, AlgorithmView{
		Name:        wire.MethodPortfolio,
		Kind:        "portfolio",
		Description: fmt.Sprintf("races %v concurrently and keeps the best feasible placement", placer.PortfolioAlgorithms()),
	})
	return out
}
