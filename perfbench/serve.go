package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/wire"
	"repro/placer"
)

// serveSpec describes an open-loop workload against the embedded
// daemon.
type serveSpec struct {
	rate      float64 // aggregate arrival rate, requests per second
	hotN      int     // modules per working-set instance
	hotCount  int     // working-set size, solved during set-up
	hitShare  float64 // share of requests that repeat a working-set instance
	coldN     int     // modules per distinct (cold) instance
	fileStore bool    // file-backed result and job stores
}

// maxLateness is the generator's validity gate: a run whose 95th
// percentile dispatch lateness exceeds it fell behind its schedule and
// is reported invalid.
const maxLateness = 20 * time.Millisecond

// serveOptions is cmd/placeload's short annealing schedule.
func serveOptions(seed int64) wire.Options {
	return wire.Options{Seed: seed, MovesPerStage: 30, MaxStages: 12, StallStages: 12}
}

// item is one distinct request body with its canonical content hash.
type item struct {
	prob *placer.Problem
	body []byte
	hash string
	// tail is the suffix every cache hit on this item must end with:
	// the warm-up solve's result followed by the end of the job view.
	tail []byte
}

func newItem(p *placer.Problem, opt wire.Options) (*item, error) {
	body, err := json.Marshal(&wire.Request{Problem: *wire.FromCanon(p), Options: opt})
	if err != nil {
		return nil, err
	}
	req, err := wire.DecodeRequest(body)
	if err != nil {
		return nil, err
	}
	hash, err := req.HashNormalized()
	if err != nil {
		return nil, err
	}
	return &item{prob: p, body: body, hash: hash}, nil
}

// instanceSeed derives the synthetic-instance seed of slot k from the
// run seed, so the instances of two run seeds never coincide.
func instanceSeed(seed int64, k int) int64 { return seed<<24 + int64(k) }

// servePlan is everything a serve workload sends, derived from the
// seed alone: the working set, the distinct cold instances, and for
// each request in arrival order which of them it carries.
type servePlan struct {
	warm []*item
	cold []*item
	// reqs[k] ≥ 0 is a working-set index; reqs[k] < 0 is cold item
	// −reqs[k]−1. Request k is due at k/rate seconds.
	reqs []int
}

func makeServePlan(spec serveSpec, seed int64, seconds float64) (*servePlan, error) {
	pl := &servePlan{}
	for i := 0; i < spec.hotCount; i++ {
		p, err := placer.Synthetic(placer.SyntheticSpec{N: spec.hotN, Seed: instanceSeed(seed, i)})
		if err != nil {
			return nil, err
		}
		it, err := newItem(p, serveOptions(seed+int64(i)))
		if err != nil {
			return nil, err
		}
		pl.warm = append(pl.warm, it)
	}
	rng := rand.New(rand.NewSource(seed))
	total := int(spec.rate * seconds)
	for k := 0; k < total; k++ {
		if rng.Float64() < spec.hitShare {
			pl.reqs = append(pl.reqs, rng.Intn(spec.hotCount))
			continue
		}
		slot := 1<<20 + k
		p, err := placer.Synthetic(placer.SyntheticSpec{N: spec.coldN, Seed: instanceSeed(seed, slot)})
		if err != nil {
			return nil, err
		}
		it, err := newItem(p, serveOptions(seed+int64(slot)))
		if err != nil {
			return nil, err
		}
		pl.cold = append(pl.cold, it)
		pl.reqs = append(pl.reqs, -len(pl.cold))
	}
	return pl, nil
}

func (pl *servePlan) item(k int) *item {
	if r := pl.reqs[k]; r < 0 {
		return pl.cold[-r-1]
	}
	return pl.warm[pl.reqs[k]]
}

// outcome is one request's fate.
type outcome struct {
	id       int64
	it       *item
	hit      bool          // a working-set repeat, which must be a cache hit
	due      time.Duration // scheduled send, from the window start
	lateness time.Duration // dispatch minus due
	latency  time.Duration // response read minus due
	body     []byte        // a miss's response, verified after the window
	view     *service.JobView
	err      string
}

// serveRun is one embedded daemon with its load generator.
type serveRun struct {
	spec   serveSpec
	plan   *servePlan
	rec    *recorder
	d      *daemon
	client *http.Client
	nextID int64
	warmUp []*outcome
	// solveWall is the wall time of solving the working set.
	solveWall time.Duration
}

// setUpServe starts a daemon and solves the plan's working set through
// it, checking every warm-up response.
func setUpServe(spec serveSpec, plan *servePlan, rec *recorder, tmp string) (*serveRun, error) {
	var err error
	dir := ""
	if spec.fileStore {
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, err
		}
		if dir, err = os.MkdirTemp(tmp, "stores-"); err != nil {
			return nil, err
		}
	}
	d, err := startDaemon(rec, dir)
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	sr := &serveRun{
		spec: spec, plan: plan, rec: rec, d: d,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	// Closed loop over the working set, one caller per connection.
	start := time.Now()
	sr.warmUp = make([]*outcome, len(plan.warm))
	var wg sync.WaitGroup
	next := make(chan int)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				o := &outcome{id: int64(i + 1), it: plan.warm[i]}
				t0 := time.Now()
				status, body, err := sr.post(o.id, o.it)
				o.latency = time.Since(t0)
				o.body = body
				o.err = httpErr(status, err)
				sr.warmUp[i] = o
			}
		}()
	}
	for i := range plan.warm {
		next <- i
	}
	close(next)
	wg.Wait()
	sr.solveWall = time.Since(start)
	sr.nextID = int64(len(plan.warm))
	for _, o := range sr.warmUp {
		if o.err == "" {
			o.err = checkMiss(o)
		}
		if o.err != "" {
			sr.close()
			return nil, fmt.Errorf("warm-up solve of working-set item %d: %s", o.id-1, o.err)
		}
		tail, err := json.Marshal(o.view.Result)
		if err != nil {
			sr.close()
			return nil, err
		}
		o.it.tail = append(append([]byte(`,"result":`), tail...), "}\n"...)
	}
	return sr, nil
}

func (sr *serveRun) close() {
	sr.client.CloseIdleConnections()
	sr.d.close()
}

func httpErr(status int, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case status != http.StatusOK:
		return fmt.Sprintf("HTTP status %d", status)
	}
	return ""
}

// post sends one request and reads the whole response.
func (sr *serveRun) post(id int64, it *item) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, sr.d.url(), bytes.NewReader(it.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	req.Header.Set(hashHeader, it.hash)
	var spanID uint64
	if sr.rec.on.Load() {
		spanID = sr.rec.newID()
		req.Header.Set(parentHeader, strconv.FormatUint(spanID, 10))
	}
	start := time.Now()
	resp, err := sr.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if spanID != 0 {
		sr.rec.add(span{ID: spanID, Req: id, Name: "loadgen.request", Start: sr.rec.at(start), End: sr.rec.at(time.Now())})
	}
	return resp.StatusCode, body, err
}

// checkHit verifies a cache hit in the request path without decoding
// it: the job is done, answered from the cache under the item's hash,
// and its result is byte-identical to the warm-up solve's.
func checkHit(it *item, body []byte) string {
	head := body[:min(len(body), 256)]
	switch {
	case !bytes.Contains(head, []byte(`"state":"done"`)):
		return "hit not in state done"
	case !bytes.Contains(head, []byte(`"hash":"`+it.hash+`"`)):
		return "hit under a different hash"
	case !bytes.Contains(head, []byte(`"cache_hit":true`)):
		return "working-set repeat was not a cache hit"
	case !bytes.HasSuffix(body, it.tail):
		return "hit result differs from the warm-up solve"
	}
	return ""
}

// checkMiss decodes a solved response and verifies it: done, under the
// item's hash, with a legal placement of every module.
func checkMiss(o *outcome) string {
	var v service.JobView
	if err := json.Unmarshal(o.body, &v); err != nil {
		return "undecodable response: " + err.Error()
	}
	o.view = &v
	switch {
	case v.State != service.StateDone:
		return fmt.Sprintf("state %q (%s)", v.State, v.Error)
	case v.Hash != o.it.hash:
		return "response under a different hash"
	case v.Result == nil:
		return "done without a result"
	}
	return checkResult(v.Result, o.it.prob)
}

// checkResult verifies a wire result against its problem: every module
// placed once with its own dimensions (rotation allowed), no overlaps,
// a finite positive cost, and the result's own legality flag agreeing.
// Constraint violations are not errors: engines that do not enforce
// symmetry by construction report them.
func checkResult(r *wire.Result, p *placer.Problem) string {
	if !r.Legal {
		return "result not legal"
	}
	if r.Cost <= 0 || math.IsInf(r.Cost, 0) || math.IsNaN(r.Cost) {
		return fmt.Sprintf("result cost %v", r.Cost)
	}
	return checkPlacement(wirePlaced(r), p)
}

// serveWindow is the outcome of one open-loop window.
type serveWindow struct {
	outcomes []*outcome
	cpu      time.Duration
	wall     time.Duration
	// Traced runs switch the recorder on halfway; the halves are kept
	// apart to report the tracing overhead.
	half     time.Duration
	cpuHalf  [2]time.Duration
	spanMark int
}

// runWindow sends every planned request on its schedule: request k is
// due at k/rate seconds, dispatched by one of nproc phase-staggered
// lanes into its own goroutine (open loop), over at most nproc
// connections. With traced set, the recorder is switched on halfway.
func (sr *serveRun) runWindow(traced bool) *serveWindow {
	pl := sr.plan
	n := len(pl.reqs)
	w := &serveWindow{outcomes: make([]*outcome, n)}
	lanes := runtime.NumCPU()
	interval := time.Duration(float64(time.Second) / sr.spec.rate)
	w.half = time.Duration(n/2) * interval
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	if traced {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(w.half)))
			w.cpuHalf[0] = cpuTime() - cpu0
			w.spanMark = len(sr.rec.snapshot())
			sr.rec.on.Store(true)
		}()
	}
	for c := 0; c < lanes; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < n; k += lanes {
				due := time.Duration(k) * interval
				time.Sleep(time.Until(start.Add(due)))
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					o := &outcome{id: sr.nextID + int64(k) + 1, it: pl.item(k), hit: pl.reqs[k] >= 0, due: due}
					o.lateness = time.Since(start) - due
					status, body, err := sr.post(o.id, o.it)
					o.latency = time.Since(start) - due
					if o.err = httpErr(status, err); o.err == "" {
						if o.hit {
							o.err = checkHit(o.it, body)
						} else {
							o.body = body
						}
					}
					w.outcomes[k] = o
				}(k)
			}
		}(c)
	}
	wg.Wait()
	w.wall = time.Since(start)
	w.cpu = cpuTime() - cpu0
	w.cpuHalf[1] = w.cpu - w.cpuHalf[0]
	sr.nextID += int64(n)
	for _, o := range w.outcomes {
		if o.err == "" && !o.hit {
			o.err = checkMiss(o)
		}
	}
	return w
}

// runDuration is a solved job's running time, recovered from its
// progress: MovesPerSec is Moves over the job's start-to-finish time.
func runDuration(v *service.JobView) (time.Duration, bool) {
	if v == nil || v.Progress == nil || v.Progress.MovesPerSec <= 0 {
		return 0, false
	}
	return time.Duration(float64(v.Progress.Moves) / v.Progress.MovesPerSec * float64(time.Second)), true
}
