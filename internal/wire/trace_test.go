package wire

import (
	"math"
	"strings"
	"testing"

	"repro/placer"
)

func validTrace() *Trace {
	return &Trace{Version: Version, Trace: placer.Trace{
		Algorithm: "seqpair", Capacity: 2048,
		Events: []placer.TraceEvent{
			{Kind: TraceKindResume, Worker: 0, Cur: 10, Best: 10},
			{Kind: TraceKindStage, Worker: 0, Stage: 1, Temp: 5, Best: 9, Cur: 9.5, Moves: 40, Accepted: 20, Improved: 5},
			{Kind: TraceKindExchange, Worker: 0, Stage: 2, Temp: 5, Cur: 9, Peer: 1, PeerTemp: 17.5, PeerCost: 11, Accept: true},
			{Kind: TraceKindCheckpoint, Worker: -1, Stage: 2, Best: 9},
			{Kind: TraceKindFailpoint, Worker: -1, Stage: -1, Point: "solve/slow"},
		},
	}}
}

func TestTraceValidateAccepts(t *testing.T) {
	if err := validTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestTraceValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Trace)
		want string
	}{
		{"bad version", func(tr *Trace) { tr.Version = Version + 1 }, "version"},
		{"unknown method", func(tr *Trace) { tr.Algorithm = "simplex" }, "method"},
		{"negative capacity", func(tr *Trace) { tr.Capacity = -1 }, "capacity"},
		{"unknown kind", func(tr *Trace) { tr.Events[0].Kind = "teleport" }, "kind"},
		{"worker below -1", func(tr *Trace) { tr.Events[1].Worker = -2 }, "below -1"},
		{"NaN cost", func(tr *Trace) { tr.Events[1].Best = math.NaN() }, "non-finite"},
		{"Inf temp", func(tr *Trace) { tr.Events[1].Temp = math.Inf(1) }, "non-finite"},
		{"negative moves", func(tr *Trace) { tr.Events[1].Moves = -1 }, "negative counter"},
		{"accepted over proposed", func(tr *Trace) { tr.Events[1].Accepted = tr.Events[1].Moves + 1 }, "accepted"},
		{"kind length mismatch", func(tr *Trace) { tr.Events[1].KindProposed = []int64{1} }, "lengths differ"},
		{"exchange peer below rung", func(tr *Trace) { tr.Events[2].Peer = 0 }, "not above"},
		{"failpoint unnamed", func(tr *Trace) { tr.Events[4].Point = "" }, "without a point"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := validTrace()
			tc.mut(tr)
			err := tr.Validate()
			if err == nil {
				t.Fatal("corrupted trace validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
