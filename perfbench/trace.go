package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the program's public surfaces. Spans of one request share Req; a
// span with Parent 0 is a root. Async marks work a request caused that
// ran on another goroutine (a solver worker's store writes), which is
// attributed to the request but not nested in its handler.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Async  bool          `json:"async,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory while it is on; they are written out
// once, when the benchmark ends.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span

	// handlers maps the goroutine serving a request to that request's
	// handler span, so a store call made synchronously inside the
	// handler finds its parent without any help from the program.
	handlers sync.Map // goroutine id → handlerRef
	// lastReq maps a content hash to the newest request that carried
	// it, for attributing asynchronous store writes.
	lastReq sync.Map // hash → request id
}

type handlerRef struct {
	span uint64
	req  int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// at converts a wall-clock instant to the recorder's time base.
func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.epoch) }

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

// add records a finished span; it is a no-op while the recorder is off.
func (r *recorder) add(s span) {
	if !r.on.Load() {
		return
	}
	if s.ID == 0 {
		s.ID = r.newID()
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores every span as JSON under dir.
func (r *recorder) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// goid returns the current goroutine's id, parsed from the stack
// header ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// byName groups span durations by span name.
func byName(spans []span) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur())
	}
	return out
}

// selfTimes computes, per span id, the span's duration minus the part
// of its interval that its children cover (overlapping children count
// once; the parts of a child outside its parent do not count).
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		cur := s.Start // everything before cur is already counted
		for _, c := range cs {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}
