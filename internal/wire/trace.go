package wire

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/placer"
)

// Trace event kinds on the wire. They are the flight recorder's
// spellings; placer.TraceEvent documents which fields each kind
// populates.
const (
	TraceKindStage      = "stage"
	TraceKindExchange   = "exchange"
	TraceKindCheckpoint = "checkpoint"
	TraceKindResume     = "resume"
	TraceKindFailpoint  = "failpoint"
)

// Trace is a solve's flight recording on the wire: the public
// placer.Trace framed with the format version, served by GET
// /v1/jobs/{id}/trace and attached to Result.Trace. The embedded
// trace's fields encode flat beside "version", its Algorithm as
// "method". For a deterministic (fixed-seed, fault-free) solve the
// canonical encoding is itself deterministic byte for byte, provided
// the recording dropped no events.
type Trace struct {
	Version int `json:"version"`
	placer.Trace
}

// DecodeTrace decodes and validates a flight recording: either a bare
// Trace — what GET /v1/jobs/{id}/trace serves and `analogplace
// -trace-out` writes — or a Result whose trace field carries one, so
// daemon job bodies pipe straight in. Unlike the request decoders it
// tolerates unknown fields: a trace is read to be inspected, never
// solved.
func DecodeTrace(data []byte) (*Trace, error) {
	var tr Trace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, fmt.Errorf("not trace JSON: %w", err)
	}
	if len(tr.Events) == 0 {
		var res Result
		if err := json.Unmarshal(data, &res); err != nil || res.Trace == nil || len(res.Trace.Events) == 0 {
			return nil, fmt.Errorf("input carries no trace events (was the solve run with tracing enabled?)")
		}
		tr = *res.Trace
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return &tr, nil
}

// traceKinds is the closed set of event kinds this wire version
// speaks.
var traceKinds = map[string]bool{
	TraceKindStage:      true,
	TraceKindExchange:   true,
	TraceKindCheckpoint: true,
	TraceKindResume:     true,
	TraceKindFailpoint:  true,
}

// Validate checks a trace against the versioned schema: supported
// version, a method this build knows, a sane ring geometry, and
// per-event invariants (a known kind, finite floats, non-negative
// counters, exchange partners above the rung, failpoints named).
func (t *Trace) Validate() error {
	if t.Version != 0 && t.Version != Version {
		return fmt.Errorf("wire: unsupported trace version %d (this build speaks %d)", t.Version, Version)
	}
	if t.Algorithm != "" && !KnownMethod(t.Algorithm) {
		return fmt.Errorf("wire: trace method %q unknown", t.Algorithm)
	}
	if t.Capacity < 0 {
		return fmt.Errorf("wire: negative trace capacity %d", t.Capacity)
	}
	for i, e := range t.Events {
		if !traceKinds[e.Kind] {
			return fmt.Errorf("wire: trace event %d has unknown kind %q", i, e.Kind)
		}
		if e.Worker < -1 || e.Stage < -1 {
			return fmt.Errorf("wire: trace event %d has worker/stage below -1", i)
		}
		for _, v := range []float64{e.Temp, e.Best, e.Cur, e.PeerTemp, e.PeerCost} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("wire: trace event %d has non-finite value", i)
			}
		}
		if e.Moves < 0 || e.Accepted < 0 || e.Improved < 0 {
			return fmt.Errorf("wire: trace event %d has negative counter", i)
		}
		if e.Accepted > e.Moves {
			return fmt.Errorf("wire: trace event %d accepted %d moves of %d proposed", i, e.Accepted, e.Moves)
		}
		if len(e.KindProposed) != len(e.KindAccepted) {
			return fmt.Errorf("wire: trace event %d kind counter lengths differ", i)
		}
		switch e.Kind {
		case TraceKindExchange:
			if e.Peer <= e.Worker {
				return fmt.Errorf("wire: trace event %d exchange peer %d not above rung %d", i, e.Peer, e.Worker)
			}
		case TraceKindFailpoint:
			if e.Point == "" {
				return fmt.Errorf("wire: trace event %d failpoint without a point name", i)
			}
		}
	}
	return nil
}
