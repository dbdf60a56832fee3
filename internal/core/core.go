// Package core is the top of the library: a unified analog placement
// API over the four topological approaches the paper surveys, plus
// drivers that regenerate every table and figure of the evaluation
// (cmd/table1, cmd/fig8, cmd/fig10 and cmd/lemma run them).
//
// The four approaches, selected by Method:
//
//   - MethodSeqPair — Section II: simulated annealing over
//     symmetric-feasible sequence-pairs with symmetric packing.
//   - MethodHBStar — Section III: hierarchical placement with
//     HB*-trees and ASF-B*-tree symmetry islands.
//   - MethodDeterministicESF / MethodDeterministicRSF — Section IV:
//     deterministic hierarchically bounded enumeration with enhanced /
//     regular shape functions.
//   - Baselines: MethodBStar (flat B*-tree), MethodTCG (transitive
//     closure graphs [15]), MethodSlicing (normalized Polish
//     expressions), MethodAbsolute (absolute coordinates with overlap
//     penalty).
//
// Section V's layout-aware sizing flow is driven through RunFig10.
package core

import (
	"fmt"
	"time"

	"repro/internal/anneal"
	"repro/internal/circuits"
	"repro/internal/cost"
	"repro/internal/geom"
	"repro/internal/hbstar"
	"repro/internal/place"
	"repro/internal/shapefn"
	"repro/internal/sizing"
	"repro/placer"
)

// Method selects a placement engine.
type Method int

// Placement methods.
const (
	MethodSeqPair Method = iota
	MethodBStar
	MethodHBStar
	MethodSlicing
	MethodAbsolute
	MethodTCG
	MethodDeterministicESF
	MethodDeterministicRSF
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodSeqPair:
		return "seqpair"
	case MethodBStar:
		return "bstar"
	case MethodHBStar:
		return "hbstar"
	case MethodSlicing:
		return "slicing"
	case MethodAbsolute:
		return "absolute"
	case MethodTCG:
		return "tcg"
	case MethodDeterministicESF:
		return "esf"
	case MethodDeterministicRSF:
		return "rsf"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// ParseMethod resolves a CLI method name to its Method: the built-in
// engine names plus the deterministic Section IV methods (esf, rsf),
// which have no stochastic engine behind them. Algorithms that exist
// only in the placer registry have no core.Method — core is the
// paper-experiment harness over the built-ins — so callers offering
// registry-external algorithms route them through placer.Solve
// instead. Unknown names fail with the registry's shared
// unknown-algorithm error, so the CLI, the daemon and placer.Solve
// reject a typo with one message.
func ParseMethod(name string) (Method, error) {
	for m := MethodSeqPair; m <= MethodDeterministicRSF; m++ {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, placer.ErrUnknownAlgorithm(name)
}

// Objective tunes the composable placement cost (internal/cost) the
// stochastic placers optimize. The zero value keeps every method's
// historical default objective.
type Objective struct {
	// AreaWeight scales the bounding-box area term (0 = default 1).
	AreaWeight float64
	// WireWeight scales HPWL (0 = keep the method's default).
	WireWeight float64
	// OutlineW/OutlineH, when both positive, add a fixed-outline
	// penalty on the bounding box exceeding the target outline.
	OutlineW, OutlineH int
	// OutlineWeight scales that penalty (0 = heuristic default).
	OutlineWeight float64
	// ProxWeight enables the proximity term over the hierarchy's
	// proximity groups for the flat placers (0 = off; the hierarchical
	// placer always enforces proximity through its fragments penalty).
	ProxWeight float64
	// ThermalWeight enables the thermal-mismatch term over symmetry
	// pairs (0 = off); ThermalSigma is the decay length (0 = default).
	ThermalWeight, ThermalSigma float64
}

// OutlineReport describes a placement against a requested fixed
// outline.
type OutlineReport struct {
	W, H             int // requested outline
	ExcessW, ExcessH int // bounding-box excess per dimension (0 = fits)
	Penalty          float64
}

// Fits reports whether the bounding box respects the outline.
func (r *OutlineReport) Fits() bool { return r.ExcessW == 0 && r.ExcessH == 0 }

// PlaceResult is the outcome of PlaceBench.
type PlaceResult struct {
	Method     Method
	Placement  geom.Placement
	Legal      bool
	AreaUsage  float64 // bounding-box area / module area (Table I metric)
	Violations []error // constraint violations, if any
	Runtime    time.Duration
	// Outline reports the final bounding box against the requested
	// fixed outline; nil when the objective requested none.
	Outline *OutlineReport
	// Breakdown decomposes the final cost per objective term (empty
	// for the deterministic methods, which optimize no tunable cost).
	Breakdown []cost.TermValue
}

// PlaceBench places a benchmark circuit with the selected method under
// the default objective. Stochastic methods honor opt; the
// deterministic methods ignore it.
func PlaceBench(b *circuits.Bench, m Method, opt anneal.Options) (*PlaceResult, error) {
	return PlaceBenchObjective(b, m, opt, nil)
}

// PlaceBenchObjective is PlaceBench with an explicit composite
// objective. The deterministic Section IV methods do not optimize a
// tunable cost and only report against the requested outline.
func PlaceBenchObjective(b *circuits.Bench, m Method, opt anneal.Options, obj *Objective) (*PlaceResult, error) {
	start := time.Now()
	if obj == nil {
		obj = &Objective{}
	}
	var pl geom.Placement
	var violations []error
	var breakdown []cost.TermValue

	switch m {
	case MethodSeqPair, MethodBStar, MethodSlicing, MethodAbsolute, MethodTCG:
		prob, err := place.FromBench(b)
		if err != nil {
			return nil, err
		}
		applyObjective(prob, obj)
		var res *place.Result
		switch m {
		case MethodSeqPair:
			res, err = place.SeqPair(prob, opt)
		case MethodBStar:
			prob.Groups = nil // plain B*-tree ignores symmetry
			res, err = place.BStar(prob, opt)
		case MethodSlicing:
			prob.Groups = nil
			res, err = place.Slicing(prob, opt)
		case MethodAbsolute:
			prob.Groups = nil
			res, err = place.Absolute(prob, opt)
		case MethodTCG:
			prob.Groups = nil
			res, err = place.TCG(prob, opt)
		}
		if err != nil {
			return nil, err
		}
		pl = res.Placement
		breakdown = res.Breakdown
		if m == MethodSeqPair {
			violations = prob.ConstraintSet().Violations(pl)
		}
	case MethodHBStar:
		hp := &hbstar.Problem{
			Bench:         b,
			AreaWeight:    obj.AreaWeight,
			WireWeight:    hbstar.DefaultWireWeight,
			OutlineW:      obj.OutlineW,
			OutlineH:      obj.OutlineH,
			OutlineWeight: obj.OutlineWeight,
			ThermalWeight: obj.ThermalWeight,
			ThermalSigma:  obj.ThermalSigma,
		}
		if obj.WireWeight > 0 {
			hp.WireWeight = obj.WireWeight
		}
		res, err := hbstar.Place(hp, opt)
		if err != nil {
			return nil, err
		}
		pl = res.Placement
		breakdown = res.Breakdown
		violations = res.Violations
	case MethodDeterministicESF, MethodDeterministicRSF:
		res, err := deterministic(b, m == MethodDeterministicESF)
		if err != nil {
			return nil, err
		}
		pl = res.Placement
	default:
		return nil, fmt.Errorf("core: unknown method %v", m)
	}

	return &PlaceResult{
		Method:     m,
		Placement:  pl,
		Legal:      pl.Legal(),
		AreaUsage:  pl.AreaUsage(),
		Violations: violations,
		Runtime:    time.Since(start),
		Outline:    outlineReport(pl, obj),
		Breakdown:  breakdown,
	}, nil
}

// applyObjective copies objective tuning onto a flat placement
// problem.
func applyObjective(p *place.Problem, obj *Objective) {
	p.AreaWeight = obj.AreaWeight
	if obj.WireWeight > 0 {
		p.WireWeight = obj.WireWeight
	}
	p.OutlineW, p.OutlineH = obj.OutlineW, obj.OutlineH
	p.OutlineWeight = obj.OutlineWeight
	p.ProxWeight = obj.ProxWeight
	p.ThermalWeight = obj.ThermalWeight
	p.ThermalSigma = obj.ThermalSigma
}

// outlineReport measures a final placement against the requested
// outline (nil when none was requested).
func outlineReport(pl geom.Placement, obj *Objective) *OutlineReport {
	if obj.OutlineW <= 0 || obj.OutlineH <= 0 {
		return nil
	}
	bb := pl.BBox()
	r := &OutlineReport{
		W:       obj.OutlineW,
		H:       obj.OutlineH,
		ExcessW: max(0, bb.W-obj.OutlineW),
		ExcessH: max(0, bb.H-obj.OutlineH),
	}
	ow := obj.OutlineWeight
	if ow == 0 {
		ow = cost.DefaultOutlineWeight(pl.ModuleArea())
	}
	r.Penalty = ow * (float64(r.ExcessW)*float64(r.ExcessW) + float64(r.ExcessH)*float64(r.ExcessH))
	return r
}

// deterministic runs the Section IV placer on a benchmark.
func deterministic(b *circuits.Bench, enhanced bool) (*shapefn.Result, error) {
	p, err := shapefn.NewPlacer(b.Tree, benchDims(b), enhanced)
	if err != nil {
		return nil, err
	}
	return p.Place(b.Tree)
}

func benchDims(b *circuits.Bench) func(string) (int, int, error) {
	return func(name string) (int, int, error) {
		d := b.Circuit.Device(name)
		if d == nil {
			return 0, 0, fmt.Errorf("core: unknown device %q", name)
		}
		if d.FW <= 0 || d.FH <= 0 {
			return 0, 0, fmt.Errorf("core: device %q has no footprint", name)
		}
		return d.FW, d.FH, nil
	}
}

// Fig10Result bundles the two sizing runs of the Fig. 10 experiment.
type Fig10Result struct {
	Nominal, Aware *sizing.Result
}

// RunFig10 executes the layout-aware sizing experiment: a nominal
// (schematic-only) sizing and a layout-aware sizing of the same
// folded-cascode OTA against the same specification.
func RunFig10(opt anneal.Options) (*Fig10Result, error) {
	nominal, err := sizing.Run(sizing.Problem{
		Spec: sizing.Fig10Spec(),
		Mode: sizing.Nominal,
		Base: sizing.DefaultBase(),
	}, opt)
	if err != nil {
		return nil, err
	}
	aware, err := sizing.Run(sizing.Problem{
		Spec:      sizing.Fig10Spec(),
		Mode:      sizing.LayoutAware,
		MaxAspect: 1.3,
		Base:      sizing.DefaultBase(),
	}, opt)
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Nominal: nominal, Aware: aware}, nil
}
