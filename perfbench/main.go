// Command perfbench is the repository's benchmark: one workload per
// run, measured against the public surfaces of the placer library and
// the placed daemon, with a correctness pass over every output.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//
// The workloads are serve-hot, serve-mixed, solve-large and
// solve-circuits (see DESIGN.md). With --trace 0 the run reports the
// end-to-end metrics; with --trace 1 it reports the per-layer metrics,
// timed from the benchmark's own wrappers around each layer's public
// calls, and writes its spans under the output directory. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The exit status is non-zero when any output is incorrect or the run
// is invalid.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) add(name string, v float64, unit string) { m[name] = metric{v, unit} }

// report is one run's outcome.
type report struct {
	attempted, failed int
	invalid           []string // reasons the run does not count
	e2e, layers       metrics
	notes             []string // extra figures printed on standard error
}

func (r *report) fail(reasons []string) {
	const shown = 5
	for i, s := range reasons {
		if i == shown {
			r.notes = append(r.notes, fmt.Sprintf("... and %d more failures", len(reasons)-shown))
			break
		}
		r.notes = append(r.notes, "FAIL "+s)
	}
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	setups  int    // minimum set-up repetitions; setup_s is their median
	tmp     string // scratch directory for file-backed stores
	rec     *recorder
}

type workload interface {
	run(cfg runConfig) (*report, error)
}

var workloads = map[string]workload{
	"serve-hot":      serveHot,
	"serve-mixed":    serveMixed,
	"solve-large":    solveLarge,
	"solve-circuits": solveCircuits,
}

func main() {
	name := flag.String("workload", "", "workload: serve-hot, serve-mixed, solve-large or solve-circuits")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 20, "measured window length in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and scratch stores")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		setups:  3,
		tmp:     filepath.Join(*out, fmt.Sprintf("tmp-%d", os.Getpid())),
		rec:     newRecorder(),
	}
	if cfg.trace {
		cfg.setups = 1 // a traced run reports no set-up time
	}
	defer os.RemoveAll(cfg.tmp)
	rep, err := w.run(cfg)
	if err != nil {
		os.RemoveAll(cfg.tmp)
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.trace {
		file := fmt.Sprintf("spans-%s-seed%d.json", *name, *seed)
		if err := cfg.rec.write(*out, file); err != nil {
			rep.invalid = append(rep.invalid, "writing spans: "+err.Error())
		}
	}
	ms := rep.e2e
	if cfg.trace {
		ms = rep.layers
	}
	for _, k := range sortedKeys(ms) {
		if v := ms[k].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			rep.invalid = append(rep.invalid, "metric "+k+" was not measured")
		}
	}
	correct := rep.failed == 0 && len(rep.invalid) == 0
	printReport(*name, cfg, rep, ms)
	if !correct {
		// A metric that was not measured cannot be encoded; report the
		// run without metrics.
		ms = metrics{}
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{correct, rep.attempted, rep.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.RemoveAll(cfg.tmp)
		os.Exit(1)
	}
}

func sortedKeys(m metrics) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printReport writes the human-readable summary to standard error.
func printReport(name string, cfg runConfig, rep *report, ms metrics) {
	mode := "end-to-end"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d seconds=%g: %s metrics\n", name, cfg.seed, cfg.seconds, mode)
	for _, k := range sortedKeys(ms) {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
	errRate := 0.0
	if rep.attempted > 0 {
		errRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(os.Stderr, "  attempted %d, failed %d, error_rate %.4g\n", rep.attempted, rep.failed, errRate)
	for _, n := range rep.notes {
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	for _, s := range rep.invalid {
		fmt.Fprintln(os.Stderr, "  INVALID "+s)
	}
}

// setupBudget is how long medianSetup keeps repeating a cheap set-up
// beyond its minimum count, so that a set-up of a few milliseconds
// still gets a steady median.
const setupBudget = time.Second

// medianSetup runs set-up at least cfg.setups times, and again while
// the repetitions have taken less than setupBudget, and returns the
// last set-up with the median wall time. Every other set-up is torn
// down with discard as soon as it is timed.
func medianSetup[T any](cfg runConfig, setUp func() (T, error), discard func(T)) (T, time.Duration, error) {
	var last T
	var times []float64
	begin := time.Now()
	for len(times) < cfg.setups || (cfg.setups > 1 && time.Since(begin) < setupBudget) {
		if len(times) > 0 {
			discard(last)
		}
		start := time.Now()
		v, err := setUp()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		last = v
	}
	return last, time.Duration(median(times) * float64(time.Second)), nil
}
