package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/store"
	"repro/internal/wire"
)

// checkGolden compares got with testdata/name byte for byte, or
// rewrites the file when GEN_GOLDEN=1. The goldens pin the trace
// encodings every client sees; regenerate only when a wire change is
// intentional, and say so in the commit.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("GEN_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (set GEN_GOLDEN=1 to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the golden:\ngot:  %.400s\nwant: %.400s", name, got, want)
	}
}

// getTrace fetches GET /v1/jobs/{id}/trace and requires a 200.
func getTrace(h *httpHarness, id string) []byte {
	h.t.Helper()
	code, body := h.do(http.MethodGet, "/v1/jobs/"+id+"/trace", nil)
	if code != http.StatusOK {
		h.t.Fatalf("GET trace of %s: %d %s", id, code, body)
	}
	return body
}

// TestTraceWireGolden pins the exact bytes of a fixed-seed tempered
// solve's wire encodings: the result (RuntimeMS zeroed, trace
// included), the /trace body, and the set of SSE flight-recorder data
// lines. SSE ids and progress events are left out, and the data lines
// are sorted, because the tempering rungs record into the ring
// concurrently and their arrival order is scheduling-dependent.
func TestTraceWireGolden(t *testing.T) {
	h := newHarness(t, Config{Workers: 1})
	code, body := h.do(http.MethodPost, "/v1/place", mustJSON(t, temperedRequest(t, 5)))
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
	var lines []string
	for _, e := range readSSE(t, bufio.NewScanner(resp.Body)) {
		if e.name != "progress" && e.name != "done" {
			lines = append(lines, "data: "+e.data+"\n")
		}
	}
	slices.Sort(lines)
	checkGolden(t, "trace_tempered_sse.txt", []byte(strings.Join(lines, "")))

	job, ok := h.s.Job(id)
	if !ok || job.State() != StateDone {
		t.Fatalf("job %s not done", id)
	}
	res := *job.Result()
	res.RuntimeMS = 0 // wall-clock is not pinnable
	b, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace_tempered_result.json", b)
	checkGolden(t, "trace_tempered_trace.json", getTrace(h, id))
}

// TestTraceCrashGolden pins a trace led by worker-crash failpoint
// events, served live from the job and again from the job store after
// retention evicts the job. The failpoint seed makes the first run
// attempts crash and a later one succeed, so the recording is the
// crash events followed by the successful attempt's solve.
func TestTraceCrashGolden(t *testing.T) {
	defer fault.Reset()
	fault.SetSeed(6)
	fault.Enable("scheduler/worker-panic", 0.5)

	js := store.NewJobStore(store.NewMemory(64), 0)
	h := newHarness(t, Config{Workers: 1, MaxJobCrashes: 8, RetainJobs: 1, Jobs: js})
	code, body := h.do(http.MethodPost, "/v1/place?wait=1", mustJSON(t, temperedRequest(t, 5)))
	if code != http.StatusOK {
		t.Fatalf("submit: %d %s", code, body)
	}
	first := h.job(body)
	if first.State != StateDone {
		t.Fatalf("crashing job ended %s: %s", first.State, first.Error)
	}
	fault.Disable("scheduler/worker-panic")
	live := getTrace(h, first.ID)
	var tr wire.Trace
	if err := json.Unmarshal(live, &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 || tr.Events[0].Kind != wire.TraceKindFailpoint {
		t.Fatalf("trace does not lead with a failpoint event: %s", live)
	}
	checkGolden(t, "trace_crash.json", live)

	// RetainJobs 1: a second job pushes the first out of memory, so its
	// trace is rebuilt from the stored record.
	if code, body := h.do(http.MethodPost, "/v1/place?wait=1", seedRequest(t, 2)); code != http.StatusOK {
		t.Fatalf("second submit: %d %s", code, body)
	}
	if _, ok := h.s.Job(first.ID); ok {
		t.Fatal("first job still in memory; retention did not evict")
	}
	if rec := getTrace(h, first.ID); !bytes.Equal(rec, live) {
		t.Fatalf("record-served trace differs from the live one:\n%s\n%s", rec, live)
	}
}
