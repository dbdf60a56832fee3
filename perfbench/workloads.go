package main

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/geom"
	"repro/internal/service"
	"repro/placer"
)

// The four workloads. The serve rates keep a 2-vCPU box about a quarter
// busy; at half busy their latency was not steady from run to run (see
// DESIGN.md).
var (
	serveHot = serveWorkload{serveSpec{
		rate: 60, hotN: 1000, hotCount: 32, hitShare: 1,
	}}
	serveMixed = serveWorkload{serveSpec{
		rate: 120, hotN: 200, hotCount: 64, hitShare: 0.75, coldN: 30, fileStore: true,
	}}
	solveLarge    = solveWorkload{spec: solveSpec{sched: largeSchedule, cases: largeCases(30000)}}
	solveCircuits = solveWorkload{spec: solveSpec{sched: circuitSchedule, cases: circuitCases(circuitPairs, 4)}, defect: true}
)

// serveSchedule is serveOptions' schedule, for replaying a serve
// workload's solves directly.
var serveSchedule = func() placer.Schedule { o := serveOptions(0); return o.Schedule() }()

// layerSamples bounds how many of a serve workload's requests and
// responses the wire and legality replays time.
const layerSamples = 8

type serveWorkload struct{ spec serveSpec }

func (w serveWorkload) run(cfg runConfig) (*report, error) {
	rep := &report{e2e: metrics{}, layers: metrics{}}
	var solveWalls []float64
	cfg.rec.on.Store(cfg.trace) // a traced run traces its warm-up solves too
	sr, setup, err := medianSetup(cfg, func() (*serveRun, error) {
		plan, err := makeServePlan(w.spec, cfg.seed, cfg.seconds)
		if err != nil {
			return nil, err
		}
		sr, err := setUpServe(w.spec, plan, cfg.rec, cfg.tmp)
		if err == nil {
			solveWalls = append(solveWalls, sr.solveWall.Seconds())
		}
		return sr, err
	}, (*serveRun).close)
	if err != nil {
		return nil, err
	}
	defer sr.close()
	warmMark := len(cfg.rec.snapshot())
	cfg.rec.on.Store(false)

	gets0, hits0 := sr.d.results.gets.Load(), sr.d.results.hits.Load()
	win := sr.runWindow(cfg.trace)
	gets, hits := sr.d.results.gets.Load()-gets0, sr.d.results.hits.Load()-hits0

	// Correctness and the end-to-end figures over the whole window.
	var lat, hitLat, missLat, late, costs []float64
	var reasons []string
	for _, o := range sr.warmUp {
		costs = append(costs, o.view.Result.Cost)
	}
	for _, o := range win.outcomes {
		lat = append(lat, ms(o.latency))
		late = append(late, ms(o.lateness))
		if o.hit {
			hitLat = append(hitLat, ms(o.latency))
		} else {
			missLat = append(missLat, ms(o.latency))
			if o.view != nil && o.view.Result != nil {
				costs = append(costs, o.view.Result.Cost)
			}
		}
		if o.err != "" {
			reasons = append(reasons, fmt.Sprintf("request %d: %s", o.id, o.err))
		}
	}
	rep.attempted, rep.failed = len(win.outcomes), len(reasons)
	rep.fail(reasons)
	lateP95 := quantile(late, 0.95)
	if lateP95 > ms(maxLateness) {
		rep.invalid = append(rep.invalid, fmt.Sprintf("load generator fell behind: dispatch lateness p95 %.3g ms > %v", lateP95, maxLateness))
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("requests %d (%d hits, %d misses) over %.3g s, %d connections", len(lat), len(hitLat), len(missLat), win.wall.Seconds(), runtime.NumCPU()),
		fmt.Sprintf("hit_latency_p50_ms %.6g, miss_latency_p50_ms %.6g", median(hitLat), median(missLat)),
		// The tail is printed, not reported as a metric: on a shared
		// 2-vCPU box it moves by a third between runs (DESIGN.md).
		fmt.Sprintf("latency_p95_ms %.6g (p90 %.4g, p99 %.4g)", quantile(lat, 0.95), quantile(lat, 0.9), quantile(lat, 0.99)),
		fmt.Sprintf("loadgen.lateness_p95_ms %.6g", lateP95))

	rep.e2e.add("latency_p50_ms", median(lat), "ms")
	rep.e2e.add("cpu_ms_per_req", ms(win.cpu)/float64(len(lat)), "ms")
	rep.e2e.add("solve_wall_s", median(solveWalls), "s")
	rep.e2e.add("cost_geomean", geomean(costs), "cost")
	rep.e2e.add("setup_s", setup.Seconds(), "s")
	rep.e2e.add("peak_rss_mb", peakRSSMB(), "MB")
	if !cfg.trace {
		return rep, nil
	}

	// Per-layer figures. Hit-path spans come from the traced half of
	// the window; miss-path figures from the window's misses, or from
	// the warm-up solves when the window has none.
	all := cfg.rec.snapshot()
	spans := all[win.spanMark:]
	misses, missSpans := windowMisses(win), all
	if len(misses) == 0 {
		misses, missSpans = sr.warmUp, all[:warmMark]
	}
	m := rep.layers
	serviceLayers(m, spans, missSpans, misses)
	m.add("store.result_hit_ratio", float64(hits)/float64(gets), "ratio")
	m.add("loadgen.lateness_p95_ms", lateP95, "ms")
	var solve []float64
	for _, o := range misses {
		if d, ok := runDuration(o.view); ok {
			solve = append(solve, ms(d))
		}
	}
	m.add("placer.solve_ms", median(solve), "ms")
	halfOverhead(m, win)

	// Replays outside the request path, on this workload's own inputs.
	replay := solveSpec{sched: serveSchedule}
	var probs []*placer.Problem
	var calls []*call
	var items []*item
	var views []*service.JobView
	var placements []geom.Placement
	for _, o := range append(sr.warmUp, misses...) {
		if len(items) == layerSamples {
			break
		}
		items = append(items, o.it)
		views = append(views, o.view)
		placements = append(placements, toGeom(wirePlaced(o.view.Result)))
	}
	for _, it := range []*item{sr.plan.warm[0], firstCold(sr.plan)} {
		if it == nil {
			continue
		}
		probs = append(probs, it.prob)
		cl, err := replay.solve(context.Background(), &solveCase{alg: placer.SeqPair, label: "replay", prob: it.prob, seed: cfg.seed}, true)
		if err != nil {
			return nil, err
		}
		calls = append(calls, cl)
	}
	stageLayers(m, calls)
	timeLayers(m, cfg.seed, probs, placements, items, views)
	return rep, nil
}

func firstCold(pl *servePlan) *item {
	if len(pl.cold) == 0 {
		return nil
	}
	return pl.cold[0]
}

// windowMisses returns the window's correct solved (non-hit) requests.
func windowMisses(w *serveWindow) []*outcome {
	var out []*outcome
	for _, o := range w.outcomes {
		if !o.hit && o.err == "" {
			out = append(out, o)
		}
	}
	return out
}

// halfOverhead reports the tracing overhead of a serve window: the
// traced half's latency and CPU per request minus the untraced half's.
func halfOverhead(m metrics, w *serveWindow) {
	var lat [2][]float64
	for _, o := range w.outcomes {
		h := 0
		if o.due >= w.half {
			h = 1
		}
		lat[h] = append(lat[h], ms(o.latency))
	}
	m.add("trace.latency_p50_delta_ms", median(lat[1])-median(lat[0]), "ms")
	m.add("trace.cpu_ms_per_req_delta", ms(w.cpuHalf[1])/float64(len(lat[1]))-ms(w.cpuHalf[0])/float64(len(lat[0])), "ms")
}

// serviceLayers reports the request-path layers from spans: handler
// and store timings from spans, queue wait of each solved request from
// missSpans (its synchronous cache lookup, its asynchronous result
// write, and the run time its progress reports).
func serviceLayers(m metrics, spans, missSpans []span, misses []*outcome) {
	named := byName(spans)
	missNamed := byName(missSpans)
	self := selfTimes(spans)
	var handlerSelf []float64
	for _, s := range spans {
		if s.Name == "service.handler" {
			handlerSelf = append(handlerSelf, ms(self[s.ID]))
		}
	}
	pick := func(name string) []time.Duration {
		if v := named[name]; len(v) > 0 {
			return v
		}
		return missNamed[name]
	}
	m.add("loadgen.request_ms", median(durs(named["loadgen.request"], ms)), "ms")
	m.add("service.handler_ms", median(durs(named["service.handler"], ms)), "ms")
	m.add("service.handler_self_ms", median(handlerSelf), "ms")
	m.add("store.result_get_ms", median(durs(pick("store.result_get"), ms)), "ms")
	m.add("store.result_put_ms", median(durs(pick("store.result_put"), ms)), "ms")
	m.add("store.job_put_ms", median(durs(pick("store.job_put"), ms)), "ms")

	gets := make(map[int64]span)
	puts := make(map[int64]span)
	for _, s := range missSpans {
		switch {
		case s.Name == "store.result_get" && !s.Async:
			gets[s.Req] = s
		case s.Name == "store.result_put" && s.Async:
			puts[s.Req] = s
		}
	}
	var wait []float64
	for _, o := range misses {
		g, okG := gets[o.id]
		p, okP := puts[o.id]
		run, okR := runDuration(o.view)
		if okG && okP && okR {
			wait = append(wait, math.Max(0, ms(p.Start-run-g.End)))
		}
	}
	m.add("service.queue_wait_ms", median(wait), "ms")
}

type solveWorkload struct {
	spec   solveSpec
	defect bool // run the known-defect pair after the window
}

func (w solveWorkload) run(cfg runConfig) (*report, error) {
	rep := &report{e2e: metrics{}, layers: metrics{}}
	cases, setup, err := medianSetup(cfg, func() ([]solveCase, error) { return w.spec.cases(cfg.seed) }, func([]solveCase) {})
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.seconds * float64(time.Second))
	var wins []*solveWindow
	if cfg.trace {
		// Untraced then traced halves, for the tracing overhead.
		for _, traced := range []bool{false, true} {
			win, err := w.spec.runRounds(cases, window/2, traced)
			if err != nil {
				return nil, err
			}
			wins = append(wins, win)
		}
	} else {
		win, err := w.spec.runRounds(cases, window, false)
		if err != nil {
			return nil, err
		}
		wins = append(wins, win)
	}
	var calls []*call
	for _, win := range wins {
		calls = append(calls, win.calls...)
	}
	if len(calls) == len(cases) {
		// A single round solved nothing twice: repeat the first solves,
		// untimed, for the determinism check.
		for i := range cases[:min(len(cases), 8)] {
			cl, err := w.spec.solve(context.Background(), &cases[i], false)
			if err != nil {
				return nil, err
			}
			calls = append(calls, cl)
		}
	}
	failed, reasons := checkCalls(calls)
	rep.attempted, rep.failed = len(calls), failed
	rep.fail(reasons)
	// The pairs differ by orders of magnitude, so latency_p50_ms is the
	// geometric mean over pairs of each pair's median latency over its
	// calls (every solver seed, every round).
	win := wins[len(wins)-1]
	p50 := pairMedian(win.calls)
	rep.e2e.add("latency_p50_ms", p50, "ms")
	rep.e2e.add("cpu_ms_per_req", ms(win.cpu)/float64(len(win.calls)), "ms")
	rep.e2e.add("solve_wall_s", (win.wall / time.Duration(win.rounds)).Seconds(), "s")
	rep.e2e.add("cost_geomean", geomean(firstCosts(calls)), "cost")
	rep.e2e.add("setup_s", setup.Seconds(), "s")
	rep.e2e.add("peak_rss_mb", peakRSSMB(), "MB")
	rep.notes = append(rep.notes, fmt.Sprintf("%d calls in %d rounds of %d", len(win.calls), win.rounds, len(cases)))
	pairs := byPair(win.calls)
	for _, name := range slices.Sorted(maps.Keys(pairs)) {
		l := pairs[name]
		rep.notes = append(rep.notes, fmt.Sprintf("%-34s p50 %10.4g ms  p95 %10.4g ms", name, median(l), quantile(l, 0.95)))
	}
	if !cfg.trace {
		return rep, nil
	}
	if w.defect {
		rep.notes = append(rep.notes, w.runDefect(cfg.seed, rep))
	}

	m := rep.layers
	m.add("placer.solve_ms", p50, "ms")
	stageLayers(m, win.calls)
	untraced := pairMedian(wins[0].calls)
	m.add("trace.latency_p50_delta_ms", p50-untraced, "ms")
	m.add("trace.cpu_ms_per_req_delta", ms(win.cpu)/float64(len(win.calls))-ms(wins[0].cpu)/float64(len(wins[0].calls)), "ms")
	m.add("loadgen.lateness_p95_ms", quantile(durs(win.gaps, ms), 0.95), "ms")

	// The request path is idle in this workload: replay its first case
	// through an embedded daemon once as a miss and once as a hit. The
	// wire, packing and legality calls are timed on one solve of every
	// pair.
	var items []*item
	var probs []*placer.Problem
	var placements []geom.Placement
	seen := make(map[string]bool)
	for _, cl := range calls {
		if seen[cl.c.pair()] {
			continue
		}
		seen[cl.c.pair()] = true
		it, err := w.spec.wireRequest(cl.c)
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		if !slices.Contains(probs, cl.c.prob) {
			probs = append(probs, cl.c.prob)
		}
		placements = append(placements, toGeom(cl.res.Placement))
	}
	views, err := replayService(cfg, items[0], m)
	if err != nil {
		return nil, err
	}
	timeLayers(m, cfg.seed, probs, placements, items, views)
	return rep, nil
}

// byPair groups call latencies (ms) by engine and instance.
func byPair(calls []*call) map[string][]float64 {
	out := make(map[string][]float64)
	for _, cl := range calls {
		out[cl.c.pair()] = append(out[cl.c.pair()], ms(cl.wall))
	}
	return out
}

// pairMedian returns the geometric mean over pairs of each pair's
// median latency (ms).
func pairMedian(calls []*call) float64 {
	var meds []float64
	for _, l := range byPair(calls) {
		meds = append(meds, median(l))
	}
	return geomean(meds)
}

// runDefect solves the known-defect pair once and describes the
// outcome. The failure it is known for is expected and reported, not
// counted; an unexpected success must still be a legal placement.
func (w solveWorkload) runDefect(seed int64, rep *report) string {
	p, err := placer.Benchmark(knownDefect[1])
	if err != nil {
		rep.invalid = append(rep.invalid, err.Error())
		return ""
	}
	c := &solveCase{alg: knownDefect[0], label: knownDefect[1], prob: p, seed: seed}
	start := time.Now()
	cl, err := w.spec.solve(context.Background(), c, false)
	took := time.Since(start)
	if err != nil {
		return fmt.Sprintf("known defect %s × %s: failed after %.3g s: %v", c.alg, c.label, took.Seconds(), err)
	}
	if f, reasons := checkCalls([]*call{cl}); f > 0 {
		rep.attempted++
		rep.failed += f
		rep.fail(reasons)
	}
	return fmt.Sprintf("known defect %s × %s: solved after %.3g s (cost %.6g); the defect did not show", c.alg, c.label, took.Seconds(), cl.res.Cost)
}

// replayService sends it through an embedded daemon with in-memory
// stores twice, as a miss and then as a hit, with tracing on, and
// reports the request-path layers. It returns both responses' views.
func replayService(cfg runConfig, it *item, m metrics) ([]*service.JobView, error) {
	cfg.rec.on.Store(true)
	defer cfg.rec.on.Store(false)
	mark := len(cfg.rec.snapshot())
	sr, err := setUpServe(serveSpec{}, &servePlan{warm: []*item{it}}, cfg.rec, cfg.tmp)
	if err != nil {
		return nil, err
	}
	defer sr.close()
	// The worker writes the result to the cache just after the waiting
	// request is answered; wait for it so the repeat is a cache hit.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok, _ := sr.d.results.ResultCache.Get(it.hash); ok {
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("replay: result of %s never reached the cache", it.hash)
		}
		time.Sleep(time.Millisecond)
	}
	status, body, err := sr.post(sr.nextID+1, it)
	msg := httpErr(status, err)
	if msg == "" {
		msg = checkHit(it, body)
	}
	if msg != "" {
		return nil, fmt.Errorf("replay hit: %s", msg)
	}
	var hv service.JobView
	if err := json.Unmarshal(body, &hv); err != nil {
		return nil, err
	}
	spans := cfg.rec.snapshot()[mark:]
	serviceLayers(m, spans, spans, sr.warmUp)
	gets, hits := sr.d.results.gets.Load(), sr.d.results.hits.Load()
	m.add("store.result_hit_ratio", float64(hits)/float64(gets), "ratio")
	return []*service.JobView{sr.warmUp[0].view, &hv}, nil
}
