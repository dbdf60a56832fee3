// Fleet suite: the multi-instance and multi-tenant surface — durable
// stores shared between daemon instances, the batch endpoint, SSE job
// streams, and per-tenant admission quotas with fair queueing.
package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/wire"
	"repro/placer"
)

// fleetConfig builds a Config whose result and job stores live on a
// shared directory, the way cmd/placed -store-dir wires them.
func fleetConfig(t *testing.T, dir, instance string) Config {
	t.Helper()
	rs, err := store.NewFile(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	js, err := store.NewFile(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Workers:  1,
		Results:  store.NewResultCache(rs, 0),
		Jobs:     store.NewJobStore(js, 0),
		Instance: instance,
	}
}

// TestFileStoreCrossInstance pins the fleet-cache contract: a result
// solved by one daemon instance is a cache hit on a second instance
// sharing the file-backed store, and the first instance's job records
// are queryable from the second over HTTP.
func TestFileStoreCrossInstance(t *testing.T) {
	dir := t.TempDir()

	s1 := New(fleetConfig(t, dir, "one"))
	j1, err := s1.Submit(millerRequest(t, wire.MethodSeqPair))
	if err != nil {
		t.Fatal(err)
	}
	res1 := waitJob(t, j1)
	if j1.State() != StateDone {
		t.Fatalf("first instance job ended %s: %s", j1.State(), j1.Err())
	}
	if !strings.HasPrefix(j1.ID, "one-") {
		t.Fatalf("job id %q missing the instance prefix", j1.ID)
	}
	s1.Close()

	// A second instance sharing the directory answers the identical
	// request from the cache without solving.
	h2 := newHarness(t, fleetConfig(t, dir, "two"))
	j2, err := h2.s.Submit(millerRequest(t, wire.MethodSeqPair))
	if err != nil {
		t.Fatal(err)
	}
	res2 := waitJob(t, j2)
	if !j2.CacheHit() {
		t.Fatal("second instance missed the shared result cache")
	}
	b1 := mustJSON(t, res1)
	b2 := mustJSON(t, res2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("shared cache returned a different result")
	}
	if h2.metric("placed_cache_hits_total") != 1 {
		t.Fatal("cache hit not counted")
	}

	// The first instance's job record is served by the second via the
	// job-store fallback (it was never in instance two's memory).
	code, body := h2.do(http.MethodGet, "/v1/jobs/"+j1.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("cross-instance job lookup: %d %s", code, body)
	}
	v := h2.job(body)
	if v.ID != j1.ID || v.State != StateDone || v.Result == nil {
		t.Fatalf("cross-instance record wrong: %+v", v)
	}
	// Its trace rides the record too.
	code, _ = h2.do(http.MethodGet, "/v1/jobs/"+j1.ID+"/trace", nil)
	if code != http.StatusOK {
		t.Fatalf("cross-instance trace lookup: %d", code)
	}
}

// batchBody builds a batch of requests from per-item seeds; equal
// seeds make wire-identical items.
func batchBody(t *testing.T, seeds ...int64) []byte {
	t.Helper()
	var b wire.BatchRequest
	for _, seed := range seeds {
		req := millerRequest(t, wire.MethodSeqPair)
		req.Options.Seed = seed
		b.Items = append(b.Items, *req)
	}
	body, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestBatchCoalescesIdenticalItems pins the batch acceptance
// criterion: K identical problems in one batch produce exactly one
// solve (verified via /metrics), and every item's view reports the
// shared job.
func TestBatchCoalescesIdenticalItems(t *testing.T) {
	h := newHarness(t, Config{Workers: 2})
	const k = 4
	code, body := h.do(http.MethodPost, "/v1/place:batch?wait=1", batchBody(t, 9, 9, 9, 9))
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	var v BatchView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad batch JSON: %v\n%s", err, body)
	}
	if len(v.Jobs) != k {
		t.Fatalf("batch returned %d items, want %d", len(v.Jobs), k)
	}
	id := ""
	for i, item := range v.Jobs {
		if item.Job == nil {
			t.Fatalf("item %d rejected: %s", i, item.Error)
		}
		if item.Job.State != StateDone {
			t.Fatalf("item %d ended %s", i, item.Job.State)
		}
		if id == "" {
			id = item.Job.ID
		} else if item.Job.ID != id {
			t.Fatalf("identical items got distinct jobs %s and %s", id, item.Job.ID)
		}
	}
	if done := h.metric(`placed_jobs_total{state="done"}`); done != 1 {
		t.Fatalf("batch of %d identical items ran %g solves, want exactly 1", k, done)
	}
	if co := h.metric("placed_coalesced_total"); co != k-1 {
		t.Fatalf("coalesced %g submissions, want %d", co, k-1)
	}

	// Distinct items in one batch get distinct jobs.
	code, body = h.do(http.MethodPost, "/v1/place:batch?wait=1", batchBody(t, 10, 11))
	if code != http.StatusOK {
		t.Fatalf("mixed batch: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Jobs[0].Job.ID == v.Jobs[1].Job.ID {
		t.Fatal("distinct items coalesced")
	}

	// An invalid item rejects the whole batch before any job exists.
	var bad wire.BatchRequest
	req := millerRequest(t, wire.MethodSeqPair)
	req.Problem.Modules[0].W = -1
	bad.Items = append(bad.Items, *req)
	bb := mustJSON(t, bad)
	code, body = h.do(http.MethodPost, "/v1/place:batch", bb)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid batch: %d %s", code, body)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes a text/event-stream body until the "done" event (or
// EOF), returning the events in arrival order.
func readSSE(t *testing.T, r *bufio.Scanner) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	for r.Scan() {
		line := r.Text()
		switch {
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if cur.name == "done" {
					return events
				}
				cur = sseEvent{}
			}
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	return events
}

// TestSSEJobStream pins the streaming contract: a job stream carries
// at least one progress snapshot and one flight-recorder stage event,
// ends with the terminal view, and observation does not perturb the
// solve — the streamed job's placement is bit-identical to the same
// request solved with no stream attached.
func TestSSEJobStream(t *testing.T) {
	h := newHarness(t, Config{Workers: 1})
	code, body := h.do(http.MethodPost, "/v1/place", millerWireRequest(t))
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	id := h.job(body).ID

	req, err := http.NewRequest(http.MethodGet, h.srv.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := h.httpc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	events := readSSE(t, bufio.NewScanner(resp.Body))

	var progress, stage int
	var final JobView
	sawDone := false
	for _, e := range events {
		switch e.name {
		case "progress":
			progress++
			var p Progress
			if err := json.Unmarshal([]byte(e.data), &p); err != nil {
				t.Fatalf("bad progress event: %v\n%s", err, e.data)
			}
		case "stage":
			stage++
			var te placer.TraceEvent
			if err := json.Unmarshal([]byte(e.data), &te); err != nil {
				t.Fatalf("bad stage event: %v\n%s", err, e.data)
			}
			if te.Kind != wire.TraceKindStage {
				t.Fatalf("stage event with kind %q", te.Kind)
			}
		case "done":
			sawDone = true
			if err := json.Unmarshal([]byte(e.data), &final); err != nil {
				t.Fatalf("bad done event: %v\n%s", err, e.data)
			}
		}
	}
	if progress == 0 {
		t.Error("stream carried no progress events")
	}
	if stage == 0 {
		t.Error("stream carried no stage events")
	}
	if !sawDone {
		t.Fatal("stream ended without a done event")
	}
	if final.State != StateDone || final.Result == nil {
		t.Fatalf("final view %+v", final)
	}

	// Determinism pin: the same request on a stream-free daemon places
	// bit-identically (RuntimeMS is wall-clock and excluded).
	h2 := newHarness(t, Config{Workers: 1})
	code, body = h2.do(http.MethodPost, "/v1/place?wait=1", millerWireRequest(t))
	if code != http.StatusOK {
		t.Fatalf("plain submit: %d %s", code, body)
	}
	plain := h2.job(body)
	a, b := *final.Result, *plain.Result
	a.RuntimeMS, b.RuntimeMS = 0, 0
	if !bytes.Equal(mustJSON(t, a), mustJSON(t, b)) {
		t.Fatal("streamed solve differs from unobserved solve")
	}
}

// tenantDo is h.do with an X-API-Key header.
func tenantDo(h *httpHarness, tenant, method, path string, body []byte) (int, []byte, http.Header) {
	h.t.Helper()
	req, err := http.NewRequest(method, h.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		h.t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := h.httpc.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes(), resp.Header
}

// seedRequest is millerWireRequest with a chosen seed, for distinct
// content hashes per submission.
func seedRequest(t *testing.T, seed int64) []byte {
	t.Helper()
	req := millerRequest(t, wire.MethodSeqPair)
	req.Options.Seed = seed
	return mustJSON(t, req)
}

// TestTenantQuota pins admission control: a tenant over its token
// bucket gets 429 with a sane Retry-After while other tenants are
// unaffected, cache hits stay quota-free, and the rejections surface
// in the per-tenant metrics.
func TestTenantQuota(t *testing.T) {
	// Refill is negligible in test time: two tokens, then throttled.
	h := newHarness(t, Config{Workers: 2, TenantRate: 0.01, TenantBurst: 2})

	for i := int64(0); i < 2; i++ {
		code, body, _ := tenantDo(h, "alice", http.MethodPost, "/v1/place?wait=1", seedRequest(t, 100+i))
		if code != http.StatusOK {
			t.Fatalf("alice submit %d: %d %s", i, code, body)
		}
	}
	code, body, hdr := tenantDo(h, "alice", http.MethodPost, "/v1/place", seedRequest(t, 300))
	if code != http.StatusTooManyRequests {
		t.Fatalf("alice over quota got %d %s, want 429", code, body)
	}
	if ra := hdr.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("quota 429 carried Retry-After %q", ra)
	}
	if !strings.Contains(string(body), "quota") {
		t.Fatalf("quota rejection body %s does not say why", body)
	}

	// Another tenant has its own bucket.
	code, body, _ = tenantDo(h, "bob", http.MethodPost, "/v1/place?wait=1", seedRequest(t, 400))
	if code != http.StatusOK {
		t.Fatalf("bob submit: %d %s", code, body)
	}

	// Cache hits are quota-free: alice can re-read her solved problem
	// with an empty bucket.
	code, body, _ = tenantDo(h, "alice", http.MethodPost, "/v1/place?wait=1", seedRequest(t, 100))
	if code != http.StatusOK {
		t.Fatalf("alice cache hit: %d %s", code, body)
	}
	if !h.job(body).CacheHit {
		t.Fatal("resubmission was not a cache hit")
	}

	if got := h.metric(`placed_tenant_throttled_total{tenant="alice"}`); got != 1 {
		t.Fatalf("alice throttled %g times in metrics, want 1", got)
	}
	if got := h.metric(`placed_tenant_admitted_total{tenant="bob"}`); got != 1 {
		t.Fatalf("bob admitted %g times in metrics, want 1", got)
	}

	// The batch endpoint charges the same bucket: alice's batch of
	// fresh problems is rejected whole with a batch-level 429.
	code, body, hdr = tenantDo(h, "alice", http.MethodPost, "/v1/place:batch", batchBody(t, 500, 501))
	if code != http.StatusTooManyRequests {
		t.Fatalf("alice batch over quota: %d %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("batch 429 without Retry-After")
	}
	var bv BatchView
	if err := json.Unmarshal(body, &bv); err != nil {
		t.Fatal(err)
	}
	for i, item := range bv.Jobs {
		if item.Error == "" || item.RetryAfterS < 1 {
			t.Fatalf("batch item %d missing rejection detail: %+v", i, item)
		}
	}
}

// fakeJob builds a queued job for fair-queue unit tests.
func fakeJob(id, tenant string) *Job {
	return &Job{ID: id, tenant: tenant, done: make(chan struct{})}
}

// TestFairQueueOrder pins the weighted-fair dequeue: FIFO within a
// tenant, interleaving across tenants (no flooding tenant starves a
// trickle), weight-proportional service, deterministic tie-breaks, and
// crash requeue at the head of the lane without a new vtime charge.
func TestFairQueueOrder(t *testing.T) {
	popAll := func(q *fairQueue) []string {
		var ids []string
		for j := q.pop(); j != nil; j = q.pop() {
			ids = append(ids, j.ID)
		}
		return ids
	}

	// A floods three jobs before B's one: B is served after a single A.
	q := newFairQueue(nil)
	for _, j := range []*Job{fakeJob("a1", "A"), fakeJob("a2", "A"), fakeJob("a3", "A"), fakeJob("b1", "B")} {
		q.push(j)
	}
	if got := fmt.Sprint(popAll(q)); got != "[a1 b1 a2 a3]" {
		t.Fatalf("unweighted pop order %s", got)
	}

	// Weight 2 drains twice as fast under contention.
	q = newFairQueue(map[string]float64{"B": 2})
	for i := 1; i <= 3; i++ {
		q.push(fakeJob(fmt.Sprintf("a%d", i), "A"))
	}
	for i := 1; i <= 3; i++ {
		q.push(fakeJob(fmt.Sprintf("b%d", i), "B"))
	}
	if got := fmt.Sprint(popAll(q)); got != "[a1 b1 b2 a2 b3 a3]" {
		t.Fatalf("weighted pop order %s", got)
	}

	// Crash requeue goes back to the head of its own lane.
	q = newFairQueue(nil)
	q.push(fakeJob("a1", "A"))
	q.push(fakeJob("a2", "A"))
	first := q.pop()
	q.pushFront(first)
	if got := fmt.Sprint(popAll(q)); got != "[a1 a2]" {
		t.Fatalf("requeue order %s", got)
	}

	// remove frees the slot and is idempotent for popped jobs.
	q = newFairQueue(nil)
	j1, j2 := fakeJob("a1", "A"), fakeJob("a2", "A")
	q.push(j1)
	q.push(j2)
	q.remove(j1)
	if q.len() != 1 {
		t.Fatalf("len %d after remove", q.len())
	}
	popped := q.pop()
	q.remove(popped) // no-op
	if popped.ID != "a2" || q.len() != 0 {
		t.Fatalf("remove broke the lane: %v len %d", popped.ID, q.len())
	}

	// An idling tenant banks no credit: B activating late starts at the
	// current virtual clock, not at zero.
	q = newFairQueue(nil)
	for i := 1; i <= 4; i++ {
		q.push(fakeJob(fmt.Sprintf("a%d", i), "A"))
	}
	q.pop() // a1
	q.pop() // a2; A.vtime = 2 = vclock
	q.push(fakeJob("b1", "B"))
	q.push(fakeJob("b2", "B"))
	// B starts at vclock 2, ties with A broken lexicographically.
	if got := fmt.Sprint(popAll(q)); got != "[a3 b1 a4 b2]" {
		t.Fatalf("activation catch-up order %s", got)
	}

	// depths reports per-tenant backlog.
	q = newFairQueue(nil)
	q.push(fakeJob("a1", "A"))
	q.push(fakeJob("b1", "B"))
	q.push(fakeJob("b2", "B"))
	d := q.depths()
	if d["A"] != 1 || d["B"] != 2 {
		t.Fatalf("depths %v", d)
	}
}

// TestJobStoreOutlivesRetention: with a tiny in-memory retention but a
// roomy job store, an evicted job stays queryable over HTTP through
// the record fallback.
func TestJobStoreOutlivesRetention(t *testing.T) {
	js := store.NewJobStore(store.NewMemory(64), 0)
	h := newHarness(t, Config{Workers: 1, RetainJobs: 1, Jobs: js})

	code, body := h.do(http.MethodPost, "/v1/place?wait=1", seedRequest(t, 1))
	if code != http.StatusOK {
		t.Fatalf("first submit: %d %s", code, body)
	}
	first := h.job(body)
	code, body = h.do(http.MethodPost, "/v1/place?wait=1", seedRequest(t, 2))
	if code != http.StatusOK {
		t.Fatalf("second submit: %d %s", code, body)
	}

	// RetainJobs 1: the first job is out of the in-memory table.
	if _, ok := h.s.Job(first.ID); ok {
		t.Fatal("first job still in memory; retention did not evict")
	}
	code, body = h.do(http.MethodGet, "/v1/jobs/"+first.ID, nil)
	if code != http.StatusOK {
		t.Fatalf("evicted job lookup: %d %s", code, body)
	}
	v := h.job(body)
	if v.ID != first.ID || v.State != StateDone || v.Result == nil {
		t.Fatalf("record-backed view wrong: %+v", v)
	}
}

// TestRetainedEngineTraces: a portfolio solve through the service
// keeps the per-racer recordings on the wire result, each bounded by
// the retention cap.
func TestRetainedEngineTraces(t *testing.T) {
	h := newHarness(t, Config{Workers: 1})
	req := millerRequest(t, wire.MethodPortfolio)
	code, body := h.do(http.MethodPost, "/v1/place?wait=1", mustJSON(t, req))
	if code != http.StatusOK {
		t.Fatalf("portfolio submit: %d %s", code, body)
	}
	v := h.job(body)
	if v.Result == nil || len(v.Result.EngineTraces) == 0 {
		t.Fatal("portfolio result retained no engine traces")
	}
	for _, tr := range v.Result.EngineTraces {
		if len(tr.Events) > 256 {
			t.Fatalf("engine trace %q has %d events, over the cap", tr.Algorithm, len(tr.Events))
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("engine trace invalid: %v", err)
		}
	}

	// The single-engine path stays lean: no engine traces.
	code, body = h.do(http.MethodPost, "/v1/place?wait=1", seedRequest(t, 77))
	if code != http.StatusOK {
		t.Fatalf("single submit: %d %s", code, body)
	}
	v = h.job(body)
	if v.Result == nil || len(v.Result.EngineTraces) != 0 {
		t.Fatalf("single-engine result grew engine traces: %+v", v.Result.EngineTraces)
	}
}

// Guard against a harness regression where ?wait=1 batches report
// non-terminal items (the wait must cover every fanned job).
func TestBatchWaitIsTerminal(t *testing.T) {
	h := newHarness(t, Config{Workers: 1})
	code, body := h.do(http.MethodPost, "/v1/place:batch?wait=1", batchBody(t, 21, 22, 23))
	if code != http.StatusOK {
		t.Fatalf("batch: %d %s", code, body)
	}
	var v BatchView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	for i, item := range v.Jobs {
		if item.Job == nil || !item.Job.State.Terminal() {
			t.Fatalf("waited batch item %d not terminal: %+v", i, item)
		}
	}
}
