package placer

import (
	"math"

	"repro/internal/obs"
)

// Trace is a solve's flight recording: the per-stage annealing
// telemetry WithTrace asked the engines to capture. It is attached to
// Result.Trace; under WithPortfolio it is the winning racer's
// recording. Recording never perturbs the search — a solve with
// tracing on places bit-identically to one without — and events carry
// no wall-clock, so for a fixed seed the trace itself is deterministic
// byte for byte (as long as no events were dropped). The JSON tags
// are the wire spelling: the wire trace is this type behind a format
// version.
type Trace struct {
	// Algorithm whose run was recorded.
	Algorithm string `json:"method"`
	// Capacity is the recorder's ring size; Dropped counts events that
	// were overwritten after the ring filled. A trace with Dropped > 0
	// kept the newest events.
	Capacity int    `json:"capacity"`
	Dropped  uint64 `json:"dropped,omitempty"`
	// Events in canonical order: by stage, then kind, then worker.
	Events []TraceEvent `json:"events"`
}

// TraceEvent is one flight-recorder record. Kind selects which fields
// are meaningful:
//
//   - "stage": one completed temperature stage of chain Worker — Temp
//     after cooling, Best/Cur cost, cumulative Moves/Accepted/Improved,
//     and, when the adaptive move portfolio was active, cumulative
//     per-move-kind counters in KindProposed/KindAccepted.
//   - "exchange": one replica-exchange attempt between tempering rungs
//     Worker (temperature Temp, cost Cur) and Peer (PeerTemp,
//     PeerCost), with Accept reporting the Metropolis outcome. Costs
//     are the pre-swap decision inputs.
//   - "checkpoint": a best-so-far snapshot capture at Best; Worker -1
//     means the tempering ladder's coordinator (ladder-wide best).
//   - "resume": the run warm-started from a checkpoint costing Cur.
//   - "failpoint": an injected fault (chaos testing) named by Point;
//     Worker and Stage are -1 for faults hit outside any chain.
//
// Recorded floats are always finite (see TraceEventFromObs), so every
// recorded event encodes as JSON.
type TraceEvent struct {
	Kind     string  `json:"kind"`
	Worker   int     `json:"worker"`
	Stage    int     `json:"stage"`
	Temp     float64 `json:"temp,omitempty"`
	Best     float64 `json:"best,omitempty"`
	Cur      float64 `json:"cur,omitempty"`
	Moves    int64   `json:"moves,omitempty"`
	Accepted int64   `json:"accepted,omitempty"`
	Improved int64   `json:"improved,omitempty"`

	// Exchange fields. Peer is set only on exchange events, where it
	// is always > Worker ≥ 0, so omitempty never hides it.
	Peer     int     `json:"peer,omitempty"`
	PeerTemp float64 `json:"peer_temp,omitempty"`
	PeerCost float64 `json:"peer_cost,omitempty"`
	Accept   bool    `json:"accept,omitempty"`

	KindProposed []int64 `json:"kind_proposed,omitempty"`
	KindAccepted []int64 `json:"kind_accepted,omitempty"`

	Point string `json:"point,omitempty"`
}

// TraceEventFromObs converts one flight-recorder record into a trace
// event. It is the only such conversion: completed traces and the
// service's live event stream both go through it, so a client decodes
// either with one type. JSON has no IEEE-754 specials and a recording
// may legitimately hold +Inf costs (infeasible early states are
// priced at +Inf), so ±Inf clamps to ±MaxFloat64 and NaN (never
// produced by the engines) becomes 0. Peer is carried only on
// exchange events.
func TraceEventFromObs(e obs.Event) TraceEvent {
	te := TraceEvent{
		Kind:     e.Kind.String(),
		Worker:   int(e.Worker),
		Stage:    int(e.Stage),
		Temp:     finite(e.Temp),
		Best:     finite(e.Best),
		Cur:      finite(e.Cur),
		Moves:    e.Moves,
		Accepted: e.Accepted,
		Improved: e.Improved,
		PeerTemp: finite(e.PeerTemp),
		PeerCost: finite(e.PeerCost),
		Accept:   e.Accept,
		Point:    e.Point,
	}
	if e.Kind == obs.EventExchange {
		te.Peer = int(e.Peer)
	}
	if n := int(e.NKinds); n > 0 {
		te.KindProposed = make([]int64, n)
		te.KindAccepted = make([]int64, n)
		for i := 0; i < n; i++ {
			te.KindProposed[i] = int64(e.KindProposed[i])
			te.KindAccepted[i] = int64(e.KindAccepted[i])
		}
	}
	return te
}

// finite clamps IEEE-754 specials for JSON: ±Inf to ±MaxFloat64, NaN
// to 0.
func finite(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	}
	return v
}

// traceFromFlight converts a recorder's canonical snapshot into the
// public trace.
func traceFromFlight(algorithm string, f *obs.Flight) *Trace {
	if f == nil {
		return nil
	}
	events := f.Snapshot()
	tr := &Trace{
		Algorithm: algorithm,
		Capacity:  f.Capacity(),
		Dropped:   f.Dropped(),
		Events:    make([]TraceEvent, len(events)),
	}
	for i, e := range events {
		tr.Events[i] = TraceEventFromObs(e)
	}
	return tr
}

// MaxEngineTraceEvents caps each per-racer recording retained on
// Result.EngineTraces: losers keep their newest events up to this
// bound (the winner's full recording stays on Result.Trace), so a
// wide portfolio race cannot multiply the result size by the full
// ring capacity per racer.
const MaxEngineTraceEvents = 256

// truncateTrace bounds a trace to its newest maxEvents events,
// folding the cut into Dropped — the same keep-the-newest semantics
// as the ring itself overflowing.
func truncateTrace(tr *Trace, maxEvents int) *Trace {
	if tr == nil || len(tr.Events) <= maxEvents {
		return tr
	}
	cut := len(tr.Events) - maxEvents
	out := *tr
	out.Dropped += uint64(cut)
	out.Events = tr.Events[cut:]
	return &out
}

// WithRecorder attaches a caller-owned flight recorder to the solve:
// the engines record into f exactly as under WithTrace, but the
// caller holds the ring and may read it concurrently — Flight.Since
// is how the service streams stage events to SSE clients while the
// job is still annealing. The completed recording is still returned
// on Result.Trace. Under WithPortfolio the shared ring is NOT handed
// to the racers (their interleaved events would destroy per-racer
// trace determinism); each racer records into a private ring of the
// same capacity and the caller's ring stays empty. The last of
// WithRecorder/WithTrace wins.
func WithRecorder(f *obs.Flight) Option {
	return func(c *config) {
		c.recorder = f
		c.trace = f != nil
		c.traceEvents = f.Capacity()
	}
}

// WithTrace attaches a flight recorder to the solve: the engines
// record per-stage annealing telemetry (temperature, costs, move
// counters, adaptive move-kind acceptance, replica exchanges,
// checkpoint activity) into a fixed-capacity ring of at most events
// records (events ≤ 0 means the default of 2048; the ring is
// allocated once up front). The recording is returned on
// Result.Trace. Under WithPortfolio every racer records into its own
// ring and the winner's recording is returned. Tracing never changes
// the search: placements are bit-identical with and without it, and
// the trace of a fixed-seed solve is itself deterministic.
//
// Tracing is engine cooperation: the built-in engines all record;
// external engines registered with Register receive no recorder and
// simply return no trace.
func WithTrace(events int) Option {
	return func(c *config) {
		c.recorder = nil
		c.trace = true
		c.traceEvents = events
	}
}
