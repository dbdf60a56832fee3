// Package core drives the paper's experiments: it regenerates every
// table and figure of the evaluation (cmd/table1, cmd/fig8, cmd/fig10
// and cmd/lemma run it) and is the entry to the Section IV
// deterministic placer.
//
//   - Deterministic — Section IV: hierarchically bounded enumeration
//     with enhanced (ESF) or regular (RSF) shape functions; RunTableI
//     and RunFig8 compare the two.
//   - RunLemma — Section II: the symmetric-feasible sequence-pair
//     count of the Lemma.
//   - RunFig10 — Section V: the layout-aware sizing flow.
//
// The annealing placers of Sections II and III and their baselines
// (B*-tree, TCG, slicing, absolute) are not driven from here: every
// annealing solve goes through the engine registry and placer.Solve.
package core

import (
	"fmt"

	"repro/internal/anneal"
	"repro/internal/circuits"
	"repro/internal/shapefn"
	"repro/internal/sizing"
)

// Deterministic runs the Section IV placer on a benchmark: enhanced
// shape functions (ESF) when enhanced is set, regular ones (RSF)
// otherwise. The result's Placement is the minimum-area placement.
func Deterministic(b *circuits.Bench, enhanced bool) (*shapefn.Result, error) {
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
