// End-to-end flight-recorder coverage: a tempered solve through the
// HTTP API serves a schema-valid trace, the endpoint's state machine
// (409 while running, 404 when disabled) holds, worker crashes show up
// as failpoint events, and fixed-seed traces are byte-identical across
// daemons. CI runs this file under -race.
package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/wire"
)

// temperedRequest is a small parallel-tempering solve with exchanges
// frequent enough that the recording must contain exchange events.
func temperedRequest(t *testing.T, seed int64) *wire.Request {
	t.Helper()
	req := millerRequest(t, wire.MethodSeqPair)
	req.Options.Seed = seed
	req.Options.TemperChains = 3
	req.Options.ExchangeEvery = 2
	req.Options.MovesPerStage = 30
	req.Options.MaxStages = 12
	req.Options.StallStages = 12
	return req
}

// TestTraceEndpointE2E drives a tempered solve through POST /v1/place
// and reads its flight recording back from GET /v1/jobs/{id}/trace:
// the trace must validate against the wire schema and contain stage
// events for every tempering rung plus at least one exchange attempt.
func TestTraceEndpointE2E(t *testing.T) {
	h := newHarness(t, Config{Workers: 2})
	body := mustJSON(t, temperedRequest(t, 42))
	code, resp := h.do(http.MethodPost, "/v1/place?wait=1", body)
	if code != http.StatusOK {
		t.Fatalf("POST ?wait=1: %d %s", code, resp)
	}
	v := h.job(resp)
	if v.State != StateDone {
		t.Fatalf("job ended %s: %s", v.State, v.Error)
	}

	code, resp = h.do(http.MethodGet, "/v1/jobs/"+v.ID+"/trace", nil)
	if code != http.StatusOK {
		t.Fatalf("GET trace: %d %s", code, resp)
	}
	var tr wire.Trace
	if err := json.Unmarshal(resp, &tr); err != nil {
		t.Fatalf("bad trace JSON: %v\n%s", err, resp)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace fails schema validation: %v", err)
	}
	if tr.Version != wire.Version || tr.Algorithm != wire.MethodSeqPair {
		t.Fatalf("trace header version=%d method=%q", tr.Version, tr.Algorithm)
	}
	rungs := map[int]bool{}
	exchanges := 0
	for _, e := range tr.Events {
		switch e.Kind {
		case wire.TraceKindStage:
			rungs[e.Worker] = true
		case wire.TraceKindExchange:
			exchanges++
		}
	}
	for k := 0; k < 3; k++ {
		if !rungs[k] {
			t.Errorf("no stage events recorded for tempering rung %d (rungs seen: %v)", k, rungs)
		}
	}
	if exchanges == 0 {
		t.Error("tempered solve recorded no exchange events")
	}

	if code, _ := h.do(http.MethodGet, "/v1/jobs/nope/trace", nil); code != http.StatusNotFound {
		t.Fatalf("trace of unknown job: %d, want 404", code)
	}
}

// TestTraceConflictWhileRunning pins the endpoint's state machine: a
// running job answers 409, and after cancellation the kept best-so-far
// result serves its (partial) recording.
func TestTraceConflictWhileRunning(t *testing.T) {
	h := newHarness(t, Config{Workers: 1})
	req := millerRequest(t, wire.MethodSeqPair)
	req.Options.MovesPerStage = 5000
	req.Options.MaxStages = 100000
	req.Options.StallStages = 100000
	code, resp := h.do(http.MethodPost, "/v1/place", mustJSON(t, req))
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %s", code, resp)
	}
	v := h.job(resp)

	// The job is queued or running; either way it is not terminal and
	// the trace endpoint must refuse with 409.
	code, resp = h.do(http.MethodGet, "/v1/jobs/"+v.ID+"/trace", nil)
	if code != http.StatusConflict {
		t.Fatalf("trace of live job: %d %s, want 409", code, resp)
	}

	if code, resp := h.do(http.MethodDelete, "/v1/jobs/"+v.ID, nil); code != http.StatusOK {
		t.Fatalf("DELETE: %d %s", code, resp)
	}
	final := h.poll(v.ID, 60*time.Second)
	if final.State != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", final.State)
	}
	// A cancelled solve keeps best-so-far — and with it the recording
	// of the stages that did run.
	code, resp = h.do(http.MethodGet, "/v1/jobs/"+v.ID+"/trace", nil)
	if code != http.StatusOK {
		t.Fatalf("trace after cancel: %d %s", code, resp)
	}
	var tr wire.Trace
	if err := json.Unmarshal(resp, &tr); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("cancelled job's trace invalid: %v", err)
	}
}

// TestTraceDisabled pins Config.TraceEvents < 0: solves run untraced
// and the endpoint answers 404 for the terminal job.
func TestTraceDisabled(t *testing.T) {
	s := New(Config{Workers: 1, TraceEvents: -1})
	defer s.Close()
	j, err := s.Submit(millerRequest(t, wire.MethodSeqPair))
	if err != nil {
		t.Fatal(err)
	}
	res := waitJob(t, j)
	if res == nil || res.Trace != nil {
		t.Fatalf("tracing disabled but result carries a trace: %+v", res)
	}
	tr, ready := j.Trace()
	if !ready || tr != nil {
		t.Fatalf("Trace() = (%v, %v), want (nil, true)", tr, ready)
	}
}

// TestTraceRecordsWorkerCrashes arms the worker-panic failpoint at
// certainty so the job quarantines, then checks the served trace leads
// with the scheduler/worker-panic failpoint events — the recording
// explains why the job failed even though no solve ever completed.
func TestTraceRecordsWorkerCrashes(t *testing.T) {
	defer fault.Reset()
	fault.SetSeed(8)
	fault.Enable("scheduler/worker-panic", 1.0)

	s := New(Config{Workers: 1, MaxJobCrashes: 1})
	defer s.Close()
	j, err := s.Submit(millerRequest(t, wire.MethodSeqPair))
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, j)
	if j.State() != StateFailed {
		t.Fatalf("job ended %s, want failed quarantine", j.State())
	}
	tr, ready := j.Trace()
	if !ready || tr == nil {
		t.Fatalf("Trace() = (%v, %v), want crash events", tr, ready)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("crash trace invalid: %v", err)
	}
	crashes := 0
	for _, e := range tr.Events {
		if e.Kind == wire.TraceKindFailpoint && e.Point == "scheduler/worker-panic" {
			if e.Worker != -1 || e.Stage != -1 {
				t.Fatalf("crash event not marked outside any chain: %+v", e)
			}
			crashes++
		}
	}
	// MaxJobCrashes 1 quarantines on the second crash.
	if crashes != 2 {
		t.Fatalf("trace carries %d crash events, want 2", crashes)
	}
}

// TestTraceDeterministicAcrossDaemons solves one fixed-seed tempered
// request on two fresh schedulers and requires byte-identical trace
// JSON — the recording carries no wall-clock, so it inherits the
// solve's determinism.
func TestTraceDeterministicAcrossDaemons(t *testing.T) {
	trace := func() []byte {
		h := newHarness(t, Config{Workers: 2})
		code, resp := h.do(http.MethodPost, "/v1/place?wait=1", mustJSON(t, temperedRequest(t, 7)))
		if code != http.StatusOK {
			t.Fatalf("POST: %d %s", code, resp)
		}
		v := h.job(resp)
		code, body := h.do(http.MethodGet, "/v1/jobs/"+v.ID+"/trace", nil)
		if code != http.StatusOK {
			t.Fatalf("GET trace: %d %s", code, body)
		}
		return body
	}
	a, b := trace(), trace()
	if !bytes.Equal(a, b) {
		t.Fatalf("fixed-seed traces differ across daemons:\n%s\n%s", a, b)
	}
}
