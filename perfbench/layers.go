package main

import (
	"encoding/json"
	"math/rand"
	"time"

	"repro/internal/bstar"
	"repro/internal/cost"
	"repro/internal/geom"
	"repro/internal/seqpair"
	"repro/internal/service"
	"repro/internal/tcg"
	"repro/internal/wire"
	"repro/placer"
)

// layerBudget bounds the time spent timing one layer call on one
// instance; every call runs at least layerMinReps times.
const (
	layerBudget  = 60 * time.Millisecond
	layerMinReps = 3
	layerMaxReps = 2000
)

// packCap bounds the instance size the TCG and symmetric packs are
// timed on: a TCG holds two n×n relation matrices and the symmetric
// pack grows faster than n log n, so larger instances are cut to their
// first packCap modules.
const packCap = 1000

func dims(p *placer.Problem) (w, h []int) {
	w, h = make([]int, p.N()), make([]int, p.N())
	for i, m := range p.Modules {
		w[i], h[i] = m.W, m.H
	}
	return w, h
}

// timeLayers times direct calls into the placer, packing, cost and
// legality layers on a workload's own instances and results, and the
// wire layer on its own request bodies and responses.
func timeLayers(m metrics, seed int64, probs []*placer.Problem, placements []geom.Placement, items []*item, views []*service.JobView) {
	rng := rand.New(rand.NewSource(seed))
	var prepare, spPack, symPack, bsPack, tcgPack, update, legal []time.Duration
	for _, p := range probs {
		prepare = append(prepare, timeCalls(layerBudget, layerMinReps, layerMaxReps, nil, func() {
			if err := p.Validate(); err != nil {
				panic(err)
			}
			p.Clone().Normalize()
		})...)

		w, h := dims(p)
		n := p.N()
		sp := seqpair.New(n)
		sp.Shuffle(rng)
		var sws seqpair.PackWorkspace
		spPack = append(spPack, timeCalls(layerBudget, layerMinReps, layerMaxReps,
			func() { sp.SwapAlpha(rng.Intn(n), rng.Intn(n)) },
			func() { sp.PackInto(&sws, w, h) })...)

		groups := make([]seqpair.Group, len(p.Symmetry))
		for i, g := range p.Symmetry {
			groups[i] = seqpair.Group{Pairs: g.Pairs, Selfs: g.Selfs}
		}
		k := min(n, packCap)
		if k < n {
			groups = nil // synthetic instances carry no symmetry
		}
		ssp := seqpair.RandomSF(k, groups, rng)
		symPack = append(symPack, timeCalls(layerBudget, layerMinReps, layerMaxReps,
			func() { ssp.PerturbSF(rng, groups) },
			// A code the symmetric packer rejects (a cross-group
			// conflict) is a move the engine prices as infeasible; it
			// is timed like any other.
			func() { ssp.PackSymmetric(w[:k], h[:k], groups) })...)

		tree := bstar.NewRandom(w, h, rng)
		var bws bstar.PackWorkspace
		bsPack = append(bsPack, timeCalls(layerBudget, layerMinReps, layerMaxReps,
			func() { tree.Perturb(rng) },
			func() { tree.PackInto(&bws) })...)

		tsp := seqpair.New(k)
		tsp.Shuffle(rng)
		tg, err := tcg.FromSeqPair(tsp, w[:k], h[:k])
		if err != nil {
			panic(err)
		}
		var tws tcg.PackWorkspace
		tcgPack = append(tcgPack, timeCalls(layerBudget, layerMinReps, layerMaxReps,
			func() { tg.Perturb(rng) },
			func() { tg.PackInto(&tws) })...)

		model := cost.NewModel(n).Add(1, cost.NewArea()).Add(1, cost.NewHPWL(p.Nets))
		x, y := sp.Pack(w, h)
		model.Eval(x, y, w, h, nil)
		update = append(update, timeCalls(layerBudget, layerMinReps, layerMaxReps,
			func() { x[rng.Intn(n)]++ },
			func() { model.Update(x, y, w, h, nil) })...)
	}
	for _, pl := range placements {
		legal = append(legal, timeCalls(layerBudget, 1, 5, nil, func() { pl.Legal() })...)
	}

	var decode, hash, encode []time.Duration
	for _, it := range items {
		var req *wire.Request
		decode = append(decode, timeCalls(layerBudget, layerMinReps, layerMaxReps, nil, func() {
			var err error
			if req, err = wire.DecodeRequest(it.body); err != nil {
				panic(err)
			}
		})...)
		hash = append(hash, timeCalls(layerBudget, layerMinReps, layerMaxReps, nil, func() {
			if _, err := req.HashNormalized(); err != nil {
				panic(err)
			}
		})...)
	}
	for _, v := range views {
		encode = append(encode, timeCalls(layerBudget, layerMinReps, layerMaxReps, nil, func() {
			if _, err := json.Marshal(v); err != nil {
				panic(err)
			}
		})...)
	}

	m.add("placer.prepare_ms", median(durs(prepare, ms)), "ms")
	m.add("seqpair.pack_us", median(durs(spPack, us)), "us")
	m.add("seqpair.pack_symmetric_us", median(durs(symPack, us)), "us")
	m.add("bstar.pack_us", median(durs(bsPack, us)), "us")
	m.add("tcg.pack_us", median(durs(tcgPack, us)), "us")
	m.add("cost.update_us", median(durs(update, us)), "us")
	m.add("geom.legal_ms", median(durs(legal, ms)), "ms")
	m.add("wire.decode_ms", median(durs(decode, ms)), "ms")
	m.add("wire.hash_ms", median(durs(hash, ms)), "ms")
	m.add("wire.encode_ms", median(durs(encode, ms)), "ms")
}

// wirePlaced converts a wire result's placement to the placer's form.
func wirePlaced(r *wire.Result) []placer.Placed {
	out := make([]placer.Placed, len(r.Placement))
	for i, m := range r.Placement {
		out[i] = placer.Placed{Name: m.Name, X: m.X, Y: m.Y, W: m.W, H: m.H}
	}
	return out
}

// toGeom converts a placement for geom.
func toGeom(placed []placer.Placed) geom.Placement {
	g := make(geom.Placement, len(placed))
	for _, m := range placed {
		g[m.Name] = geom.NewRect(m.X, m.Y, m.W, m.H)
	}
	return g
}

// stageLayers reports the engine stage split of traced solve calls:
// entry → first progress callback (init), first → last (the move
// loop), last → return (finish).
func stageLayers(m metrics, calls []*call) {
	var init, finish, rate, accept []float64
	for _, cl := range calls {
		if !cl.traced || cl.moves <= cl.firstMoves || cl.last <= cl.first {
			continue
		}
		init = append(init, ms(cl.first))
		finish = append(finish, ms(cl.wall-cl.last))
		rate = append(rate, float64(cl.moves-cl.firstMoves)/(cl.last-cl.first).Seconds())
		accept = append(accept, float64(cl.accepted)/float64(cl.moves))
	}
	m.add("engine.init_ms", median(init), "ms")
	m.add("placer.finish_ms", median(finish), "ms")
	m.add("anneal.moves_per_s", median(rate), "1/s")
	m.add("anneal.accept_ratio", median(accept), "ratio")
}
