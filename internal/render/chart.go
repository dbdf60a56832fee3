package render

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/wire"
)

// chart layout constants: a fixed 840×560 canvas with a cost panel on
// top, an acceptance-rate panel below it, and a legend strip.
const (
	chartW       = 840.0
	chartCostH   = 300.0
	chartAccH    = 130.0
	chartMarginL = 64.0
	chartMarginR = 16.0
	chartMarginT = 28.0
	chartGap     = 44.0
	chartLegendH = 30.0
)

// chartSeries is one rung's stage history, reassembled from the flat
// event list.
type chartSeries struct {
	worker int
	stages []int
	best   []float64
	cur    []float64
	accept []float64 // per-stage acceptance rate, from the cumulative counters
	moves  []int64
	accCum []int64
}

// ChartSVG renders a flight recording as a standalone SVG chart: the
// top panel plots each rung's best (solid) and current (faint) cost
// against the stage number, with replica-exchange attempts marked on
// the colder rung's trajectory (filled when accepted); the bottom
// panel plots each rung's per-stage move acceptance rate, the
// annealer's cooling made visible. Returns an error when the trace
// has no stage events to plot.
func ChartSVG(w io.Writer, tr *wire.Trace) error {
	if tr == nil {
		return fmt.Errorf("render: nil trace")
	}
	byWorker := map[int]*chartSeries{}
	maxStage := 0
	minCost, maxCost := math.Inf(1), math.Inf(-1)
	for _, e := range tr.Events {
		if e.Kind != wire.TraceKindStage {
			continue
		}
		s := byWorker[e.Worker]
		if s == nil {
			s = &chartSeries{worker: e.Worker}
			byWorker[e.Worker] = s
		}
		// Acceptance counters are cumulative; the per-stage rate is the
		// delta over this stage's moves.
		var prevMoves, prevAcc int64
		if n := len(s.moves); n > 0 {
			prevMoves, prevAcc = s.moves[n-1], s.accCum[n-1]
		}
		rate := 0.0
		if dm := e.Moves - prevMoves; dm > 0 {
			rate = float64(e.Accepted-prevAcc) / float64(dm)
		}
		s.stages = append(s.stages, e.Stage)
		s.best = append(s.best, e.Best)
		s.cur = append(s.cur, e.Cur)
		s.accept = append(s.accept, rate)
		s.moves = append(s.moves, e.Moves)
		s.accCum = append(s.accCum, e.Accepted)
		if e.Stage > maxStage {
			maxStage = e.Stage
		}
		for _, v := range []float64{e.Best, e.Cur} {
			if v < minCost {
				minCost = v
			}
			if v > maxCost {
				maxCost = v
			}
		}
	}
	if len(byWorker) == 0 {
		return fmt.Errorf("render: trace has no stage events to chart")
	}
	if maxStage < 1 {
		maxStage = 1
	}
	if maxCost <= minCost {
		maxCost = minCost + 1
	}

	workers := make([]int, 0, len(byWorker))
	for k := range byWorker {
		workers = append(workers, k)
	}
	sort.Ints(workers)

	height := chartMarginT + chartCostH + chartGap + chartAccH + chartLegendH
	plotW := chartW - chartMarginL - chartMarginR
	toX := func(stage int) float64 {
		return chartMarginL + plotW*float64(stage)/float64(maxStage)
	}
	costY := func(c float64) float64 {
		return chartMarginT + chartCostH*(1-(c-minCost)/(maxCost-minCost))
	}
	accTop := chartMarginT + chartCostH + chartGap
	accY := func(r float64) float64 { return accTop + chartAccH*(1-r) }

	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	p(`<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f">`+"\n",
		chartW, height, chartW, height)
	p(`<rect width="100%%" height="100%%" fill="white"/>` + "\n")
	p(`<text x="%.1f" y="%.1f" font-size="13" font-family="sans-serif">cost by stage — %s (capacity %d, dropped %d)</text>`+"\n",
		chartMarginL, chartMarginT-10, tr.Algorithm, tr.Capacity, tr.Dropped)

	// Panel frames and extremal tick labels.
	p(`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#888"/>`+"\n",
		chartMarginL, chartMarginT, plotW, chartCostH)
	p(`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="none" stroke="#888"/>`+"\n",
		chartMarginL, accTop, plotW, chartAccH)
	p(`<text x="%.1f" y="%.1f" font-size="11" font-family="sans-serif" text-anchor="end">%.4g</text>`+"\n",
		chartMarginL-4, chartMarginT+10, maxCost)
	p(`<text x="%.1f" y="%.1f" font-size="11" font-family="sans-serif" text-anchor="end">%.4g</text>`+"\n",
		chartMarginL-4, chartMarginT+chartCostH, minCost)
	p(`<text x="%.1f" y="%.1f" font-size="11" font-family="sans-serif" text-anchor="end">1.0</text>`+"\n",
		chartMarginL-4, accTop+10)
	p(`<text x="%.1f" y="%.1f" font-size="11" font-family="sans-serif" text-anchor="end">0.0</text>`+"\n",
		chartMarginL-4, accTop+chartAccH)
	p(`<text x="%.1f" y="%.1f" font-size="11" font-family="sans-serif" text-anchor="end">stage %d</text>`+"\n",
		chartW-chartMarginR, accTop+chartAccH+14, maxStage)
	p(`<text x="%.1f" y="%.1f" font-size="11" font-family="sans-serif">acceptance rate</text>`+"\n",
		chartMarginL, accTop-6)

	polyline := func(xs []int, ys []float64, toY func(float64) float64, color string, width float64, opacity float64) {
		if len(xs) == 0 {
			return
		}
		pts := ""
		for i := range xs {
			pts += fmt.Sprintf("%.1f,%.1f ", toX(xs[i]), toY(ys[i]))
		}
		p(`<polyline points="%s" fill="none" stroke="%s" stroke-width="%.1f" stroke-opacity="%.2f"/>`+"\n",
			pts, color, width, opacity)
	}

	for _, k := range workers {
		s := byWorker[k]
		color := colorFor(fmt.Sprintf("rung:%d", k))
		polyline(s.stages, s.cur, costY, color, 1, 0.35)
		polyline(s.stages, s.best, costY, color, 2, 1)
		polyline(s.stages, s.accept, accY, color, 1.5, 1)
	}

	// Exchange attempts, marked at the colder rung's pre-swap cost:
	// filled when the Metropolis test accepted the swap.
	for _, e := range tr.Events {
		if e.Kind != wire.TraceKindExchange {
			continue
		}
		fill := "none"
		if e.Accept {
			fill = colorFor(fmt.Sprintf("rung:%d", e.Worker))
		}
		p(`<circle cx="%.1f" cy="%.1f" r="3" fill="%s" stroke="#333" stroke-width="0.8"/>`+"\n",
			toX(e.Stage), costY(clampCost(e.Cur, minCost, maxCost)), fill)
	}

	// Legend: one swatch per rung.
	lx := chartMarginL
	ly := accTop + chartAccH + chartLegendH - 6
	for _, k := range workers {
		color := colorFor(fmt.Sprintf("rung:%d", k))
		p(`<rect x="%.1f" y="%.1f" width="12" height="12" fill="%s"/>`+"\n", lx, ly-10, color)
		p(`<text x="%.1f" y="%.1f" font-size="11" font-family="sans-serif">rung %d</text>`+"\n", lx+16, ly, k)
		lx += 80
	}
	p(`<text x="%.1f" y="%.1f" font-size="11" font-family="sans-serif">○ exchange attempt, ● accepted</text>`+"\n", lx, ly)

	p(`</svg>` + "\n")
	return err
}

func clampCost(c, lo, hi float64) float64 {
	if c < lo {
		return lo
	}
	if c > hi {
		return hi
	}
	return c
}
