package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/placer"
)

// Tiny versions of the four workloads: same code paths, small inputs.
var (
	tinyServeHot   = serveWorkload{serveSpec{rate: 60, hotN: 40, hotCount: 4, hitShare: 1}}
	tinyServeMixed = serveWorkload{serveSpec{rate: 60, hotN: 30, hotCount: 4, hitShare: 0.75, coldN: 10, fileStore: true}}
	tinySolveLarge = solveWorkload{spec: solveSpec{sched: largeSchedule, cases: largeCases(300)}}
	tinyCircuits   = solveWorkload{spec: solveSpec{sched: circuitSchedule, cases: circuitCases([][2]string{
		{placer.SeqPair, "miller_v2"}, {placer.HBStar, "folded_casc"}, {placer.TCG, "buffer"},
	}, 2)}}
	tinyWorkloads = map[string]workload{
		"serve-hot": tinyServeHot, "serve-mixed": tinyServeMixed,
		"solve-large": tinySolveLarge, "solve-circuits": tinyCircuits,
	}
)

func tinyRun(t *testing.T, w workload, seed int64, trace bool) (*report, *recorder) {
	t.Helper()
	cfg := runConfig{seed: seed, seconds: 0.5, trace: trace, setups: 2, tmp: t.TempDir(), rec: newRecorder()}
	if trace {
		cfg.setups = 1
	}
	rep, err := w.run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep, cfg.rec
}

type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestSameSeedSameRequests(t *testing.T) {
	spec := tinyServeMixed.spec
	a, err := makeServePlan(spec, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeServePlan(spec, 7, 1)
	c, _ := makeServePlan(spec, 8, 1)
	bodies := func(pl *servePlan) [][]byte {
		var out [][]byte
		for k := range pl.reqs {
			out = append(out, pl.item(k).body)
		}
		return out
	}
	if !slices.EqualFunc(bodies(a), bodies(b), bytes.Equal) || !slices.Equal(a.reqs, b.reqs) {
		t.Fatal("the same seed gave different request bodies or order")
	}
	if slices.EqualFunc(bodies(a), bodies(c), bytes.Equal) {
		t.Fatal("a different seed gave the same request bodies")
	}

	for _, w := range []solveWorkload{tinySolveLarge, tinyCircuits} {
		round := func(seed int64) [][]byte {
			cases, err := w.spec.cases(seed)
			if err != nil {
				t.Fatal(err)
			}
			var out [][]byte
			for i := range cases {
				it, err := w.spec.wireRequest(&cases[i])
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, it.body)
			}
			return out
		}
		if !slices.EqualFunc(round(7), round(7), bytes.Equal) {
			t.Fatal("the same seed gave different solves or order")
		}
		if slices.EqualFunc(round(7), round(8), bytes.Equal) {
			t.Fatal("a different seed gave the same solves in the same order")
		}
	}
}

func TestMetricNames(t *testing.T) {
	bf := readBenchmarkFile(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	if len(bf.EndToEnd) > 16 || len(bf.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(bf.EndToEnd), len(bf.PerLayer))
	}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		if !valid.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v; the benchmark runs %d workloads", names, len(workloads))
	}
}

// checkMetrics verifies that a run reported exactly the listed
// metrics, each finite and in its listed unit.
func checkMetrics(t *testing.T, got metrics, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json lists %d: %v", len(got), len(want), sortedKeys(got))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
}

func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for name, w := range tinyWorkloads {
		for _, trace := range []bool{false, true} {
			rep, _ := tinyRun(t, w, 3, trace)
			if rep.failed > 0 || len(rep.invalid) > 0 || rep.attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d, invalid %v, notes %v",
					name, trace, rep.attempted, rep.failed, rep.invalid, rep.notes)
			}
			if trace {
				checkMetrics(t, rep.layers, bf.PerLayer)
			} else {
				checkMetrics(t, rep.e2e, bf.EndToEnd)
			}
		}
	}
}

func TestTracedSpansNest(t *testing.T) {
	_, rec := tinyRun(t, tinyServeMixed, 5, true)
	spans := rec.snapshot()
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	counts := make(map[string]int)
	for _, s := range spans {
		counts[s.Name]++
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			continue // the parent started before tracing was switched on
		}
		want := map[string]string{"service.handler": "loadgen.request"}[s.Name]
		if want == "" {
			want = "service.handler"
		}
		if p.Name != want {
			t.Errorf("%s span nested in %s, want %s", s.Name, p.Name, want)
		}
		if s.Req != p.Req {
			t.Errorf("%s span of request %d nested in request %d", s.Name, s.Req, p.Req)
		}
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("%s span [%v, %v] outside its %s [%v, %v]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for _, name := range []string{"loadgen.request", "service.handler", "store.result_get", "store.result_put", "store.job_put"} {
		if counts[name] == 0 {
			t.Errorf("no %s spans recorded", name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Start: 3 * ms, End: 6 * ms},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 9 * ms, End: 12 * ms}, // runs past its parent
	}
	self := selfTimes(spans)
	if want := 10*ms - 5*ms - 1*ms; self[1] != want {
		t.Errorf("self time %v, want %v", self[1], want)
	}
	if self[2] != 3*ms {
		t.Errorf("leaf self time %v, want its duration", self[2])
	}
}
