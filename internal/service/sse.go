package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/placer"
)

// sseTick is how often a job stream polls the job's ring and progress
// for new material. SSE is an observation channel — ticks never touch
// the solve, which records into its ring regardless of readers.
const sseTick = 50 * time.Millisecond

// wantsEventStream reports whether the request negotiated SSE.
func wantsEventStream(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// serveJobStream streams a job over Server-Sent Events until it
// reaches a terminal state or the client disconnects:
//
//   - flight-recorder events, live from the solve's ring as they are
//     recorded, named by their kind ("stage", "exchange", ...) with
//     the ring sequence as the SSE id; the data is the event as
//     placer.TraceEventFromObs spells it, the same conversion the
//     completed trace goes through, so a client decodes both with
//     placer.TraceEvent;
//   - "progress" events carrying the aggregated Progress snapshot
//     whenever it changes;
//   - one final "done" event carrying the terminal JobView.
//
// The stream reads the same ring the engines record into
// (placer.WithRecorder + obs.Flight.Since), so observation never
// perturbs the solve — determinism pins hold with streams attached. A
// crash retry replaces the job's ring; the stream detects the identity
// change and restarts its cursor, so the events always describe the
// attempt that will produce the result.
func serveJobStream(w http.ResponseWriter, r *http.Request, job *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotAcceptable, "connection does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var (
		ring         *obs.Flight
		cursor       uint64
		lastProgress []byte
	)
	// emit drains new ring events and any progress change; it reports
	// whether every write succeeded (a false means the client is gone).
	emit := func() bool {
		wrote := false
		if cur := job.Ring(); cur != ring {
			ring, cursor = cur, 0
		}
		for _, e := range ring.Since(cursor) {
			cursor = e.Seq + 1
			b, err := json.Marshal(placer.TraceEventFromObs(e))
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Kind.String(), b); err != nil {
				return false
			}
			wrote = true
		}
		if p, ok := job.Progress(); ok {
			b, err := json.Marshal(p)
			if err == nil && !bytes.Equal(b, lastProgress) {
				lastProgress = b
				if _, err := fmt.Fprintf(w, "event: progress\ndata: %s\n\n", b); err != nil {
					return false
				}
				wrote = true
			}
		}
		if wrote {
			fl.Flush()
		}
		return true
	}

	ticker := time.NewTicker(sseTick)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-job.Done():
			emit() // the ring's tail, recorded between the last tick and the finish
			if b, err := json.Marshal(job.View()); err == nil {
				fmt.Fprintf(w, "event: done\ndata: %s\n\n", b)
			}
			fl.Flush()
			return
		case <-ticker.C:
			if !emit() {
				return
			}
		}
	}
}
