package placer

import (
	"fmt"

	"repro/internal/circuits"
	"repro/internal/constraint"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/seqpair"
)

// flat converts the problem into the placement problem the flat
// engines (sequence-pair, B*-tree, TCG, slicing, absolute) consume.
// The problem must already be valid (Solve validates it once before
// any engine runs); only the place-level checks run here.
func (p *Problem) flat() (*place.Problem, error) {
	n := len(p.Modules)
	pp := &place.Problem{
		Names:         make([]string, n),
		W:             make([]int, n),
		H:             make([]int, n),
		Nets:          cloneIDLists(p.Nets),
		ProxGroups:    cloneIDLists(p.Proximity),
		AreaWeight:    p.Objective.AreaWeight,
		WireWeight:    p.Objective.WireWeight,
		OutlineW:      p.Objective.OutlineW,
		OutlineH:      p.Objective.OutlineH,
		OutlineWeight: p.Objective.OutlineWeight,
		ProxWeight:    p.Objective.ProxWeight,
		ThermalWeight: p.Objective.ThermalWeight,
		ThermalSigma:  p.Objective.ThermalSigma,
		Power:         append([]float64(nil), p.Power...),
	}
	for i, m := range p.Modules {
		pp.Names[i] = m.Name
		pp.W[i] = m.W
		pp.H[i] = m.H
	}
	for _, g := range p.Symmetry {
		pp.Groups = append(pp.Groups, seqpair.Group{
			Pairs: clonePairs(g.Pairs),
			Selfs: append([]int(nil), g.Selfs...),
		})
	}
	if len(pp.Groups) == 0 && p.Hierarchy != nil {
		// Symmetry spelled only in the hierarchy still binds the flat
		// engines: derive device-level groups exactly as
		// place.FromBench does from a bench tree (pairs naming child
		// nodes rather than modules cannot be expressed flat and are
		// skipped, as there).
		id := make(map[string]int, len(p.Modules))
		for i, m := range p.Modules {
			id[m.Name] = i
		}
		pp.Groups = append(pp.Groups, hierarchyGroups(p.Hierarchy, id)...)
	}
	if err := pp.Validate(); err != nil {
		return nil, err
	}
	return pp, nil
}

// hierarchyGroups collects the device-level symmetry groups of a
// hierarchy: one group per symmetry node, members resolved through
// the module-name index.
func hierarchyGroups(nd *Node, id map[string]int) []seqpair.Group {
	var groups []seqpair.Group
	if nd.Kind == KindSymmetry {
		g := seqpair.Group{}
		for _, pr := range nd.Pairs {
			a, oka := id[pr[0]]
			b, okb := id[pr[1]]
			if oka && okb {
				g.Pairs = append(g.Pairs, [2]int{a, b})
			}
		}
		for _, s := range nd.Selfs {
			if m, ok := id[s]; ok {
				g.Selfs = append(g.Selfs, m)
			}
		}
		if g.Size() > 0 {
			groups = append(groups, g)
		}
	}
	for _, c := range nd.Children {
		groups = append(groups, hierarchyGroups(c, id)...)
	}
	return groups
}

// kindValues maps hierarchy kind strings to constraint kinds.
var kindValues = map[string]constraint.Kind{
	KindNone:           constraint.KindNone,
	KindSymmetry:       constraint.KindSymmetry,
	KindCommonCentroid: constraint.KindCommonCentroid,
	KindProximity:      constraint.KindProximity,
}

// kindNames is the inverse of kindValues.
var kindNames = map[constraint.Kind]string{
	constraint.KindNone:           KindNone,
	constraint.KindSymmetry:       KindSymmetry,
	constraint.KindCommonCentroid: KindCommonCentroid,
	constraint.KindProximity:      KindProximity,
}

func toConstraintNode(nd *Node) *constraint.Node {
	n := &constraint.Node{
		Name:     nd.Name,
		Kind:     kindValues[nd.Kind],
		Devices:  append([]string(nil), nd.Devices...),
		SymPairs: append([][2]string(nil), nd.Pairs...),
		SymSelfs: append([]string(nil), nd.Selfs...),
	}
	if nd.Units != nil {
		n.Units = make(map[string][]string, len(nd.Units))
		for k, v := range nd.Units {
			n.Units[k] = append([]string(nil), v...)
		}
	}
	for _, c := range nd.Children {
		n.Children = append(n.Children, toConstraintNode(c))
	}
	return n
}

func fromConstraintNode(n *constraint.Node) *Node {
	nd := &Node{
		Name:    n.Name,
		Kind:    kindNames[n.Kind],
		Devices: append([]string(nil), n.Devices...),
		Pairs:   append([][2]string(nil), n.SymPairs...),
		Selfs:   append([]string(nil), n.SymSelfs...),
	}
	if n.Units != nil {
		nd.Units = make(map[string][]string, len(n.Units))
		for k, v := range n.Units {
			nd.Units[k] = append([]string(nil), v...)
		}
	}
	for _, c := range n.Children {
		nd.Children = append(nd.Children, fromConstraintNode(c))
	}
	return nd
}

// bench materializes the problem as a benchmark circuit for the
// hierarchical engine: modules become block devices, nets become
// signal nets, and the hierarchy becomes the constraint tree. When
// the problem carries no hierarchy, one is synthesized from the flat
// constraints — a symmetry node per symmetry group, a proximity node
// per proximity group, everything else directly at the root — so any
// problem can be solved hierarchically. Modules the hierarchy does
// not mention are attached to the root. Like flat, it expects a
// problem Solve has already validated.
func (p *Problem) bench() (*circuits.Bench, error) {
	name := p.Name
	if name == "" {
		name = "wire"
	}
	c := netlist.NewCircuit(name)
	for _, m := range p.Modules {
		if err := c.Add(&netlist.Device{Name: m.Name, Type: netlist.Block, FW: m.W, FH: m.H}); err != nil {
			return nil, fmt.Errorf("placer: %v", err)
		}
	}
	var tree *constraint.Node
	if p.Hierarchy != nil {
		tree = toConstraintNode(p.Hierarchy)
	} else {
		tree = p.synthesizeTree(name)
	}
	attachUncovered(tree, p.Modules)
	nets := make(map[string][]string, len(p.Nets))
	for i, net := range p.Nets {
		devs := make([]string, len(net))
		for j, m := range net {
			devs[j] = p.Modules[m].Name
		}
		nets[fmt.Sprintf("net%d", i)] = devs
	}
	return &circuits.Bench{Name: name, Circuit: c, Tree: tree, Nets: nets}, nil
}

// synthesizeTree builds a one-level hierarchy from the flat symmetry
// and proximity groups.
func (p *Problem) synthesizeTree(name string) *constraint.Node {
	root := &constraint.Node{Name: name}
	for gi, g := range p.Symmetry {
		ch := &constraint.Node{
			Name: fmt.Sprintf("sym%d", gi),
			Kind: constraint.KindSymmetry,
		}
		for _, pr := range g.Pairs {
			a, b := p.Modules[pr[0]].Name, p.Modules[pr[1]].Name
			ch.Devices = append(ch.Devices, a, b)
			ch.SymPairs = append(ch.SymPairs, [2]string{a, b})
		}
		for _, s := range g.Selfs {
			n := p.Modules[s].Name
			ch.Devices = append(ch.Devices, n)
			ch.SymSelfs = append(ch.SymSelfs, n)
		}
		root.Children = append(root.Children, ch)
	}
	covered := make(map[int]bool)
	for _, g := range p.Symmetry {
		for _, pr := range g.Pairs {
			covered[pr[0]], covered[pr[1]] = true, true
		}
		for _, s := range g.Selfs {
			covered[s] = true
		}
	}
	for gi, grp := range p.Proximity {
		ch := &constraint.Node{
			Name: fmt.Sprintf("prox%d", gi),
			Kind: constraint.KindProximity,
		}
		for _, m := range grp {
			if covered[m] {
				continue // symmetry placement wins; proximity stays a soft cost
			}
			covered[m] = true
			ch.Devices = append(ch.Devices, p.Modules[m].Name)
		}
		if len(ch.Devices) >= 2 {
			root.Children = append(root.Children, ch)
		}
	}
	return root
}

// attachUncovered adds modules the tree does not own to the root, so
// the hierarchical engine places every module.
func attachUncovered(root *constraint.Node, modules []Module) {
	owned := make(map[string]bool)
	var walk func(n *constraint.Node)
	walk = func(n *constraint.Node) {
		for _, d := range n.Devices {
			owned[d] = true
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(root)
	for _, m := range modules {
		if !owned[m.Name] {
			root.Devices = append(root.Devices, m.Name)
		}
	}
}

// fromBench ingests a benchmark circuit as a canonical problem: the
// flat view (modules, symmetry groups, nets, proximity groups)
// through place.FromBench — so the conventional area + HPWL objective
// is preserved — plus the design hierarchy, so the hierarchical
// engine sees the same tree a native run would. The result is
// normalized.
func fromBench(b *circuits.Bench) (*Problem, error) {
	pp, err := place.FromBench(b)
	if err != nil {
		return nil, err
	}
	p := fromPlace(b.Name, pp)
	if b.Tree != nil {
		p.Hierarchy = fromConstraintNode(b.Tree)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p.Normalize()
	return p, nil
}

// fromPlace lifts a flat placement problem into the canonical form.
// The result is normalized.
func fromPlace(name string, pp *place.Problem) *Problem {
	p := &Problem{
		Name:    name,
		Modules: make([]Module, pp.N()),
		Objective: Objective{
			AreaWeight:    pp.AreaWeight,
			WireWeight:    pp.WireWeight,
			OutlineW:      pp.OutlineW,
			OutlineH:      pp.OutlineH,
			OutlineWeight: pp.OutlineWeight,
			ProxWeight:    pp.ProxWeight,
			ThermalWeight: pp.ThermalWeight,
			ThermalSigma:  pp.ThermalSigma,
		},
		Nets:      cloneIDLists(pp.Nets),
		Proximity: cloneIDLists(pp.ProxGroups),
		Power:     append([]float64(nil), pp.Power...),
	}
	for i := 0; i < pp.N(); i++ {
		p.Modules[i] = Module{Name: pp.Names[i], W: pp.W[i], H: pp.H[i]}
	}
	for _, g := range pp.Groups {
		p.Symmetry = append(p.Symmetry, SymGroup{
			Pairs: clonePairs(g.Pairs),
			Selfs: append([]int(nil), g.Selfs...),
		})
	}
	p.Normalize()
	return p
}
