// Package obs is the one record type of a pipeline run and what is derived
// from it. An Event is one instruction's execution: the simulator fills one
// per instruction when a result asks for its timeline (sim.Result.Timeline),
// and the device runtime both measured producers (internal/cluster,
// internal/train) run on, cluster.Execute, fills one per executed instruction
// when a run collects events. Both streams are ordered device-major, in
// execution order, so a predicted and a measured run of the same lists line
// up position by position. Derived from a stream: per-device
// utilization/bubble/stall metrics (Fig. 5's measured counterpart), the JSONL
// export, and a predicted-vs-measured drift report that extends the Fig. 10
// simulator-accuracy machinery down to instruction granularity.
//
// A simulation or a run that does not ask for records allocates none.
// Run-level measurements (makespan, throughput, peak memory) are the run
// report's, not derived here.
// The simulator imports this package, never the other way round.
package obs

import (
	"bufio"
	"encoding/json"
	"io"

	"mario/internal/pipeline"
)

// Event is one instruction execution, predicted or measured. Times are in
// seconds on the producer's clock: simulated time for the simulator, virtual
// time for the cluster emulator, wall-clock time since iteration start for
// the real-tensor trainer.
type Event struct {
	// Instr is the executed instruction; its Buffered flag marks a SendAct
	// draining a §5.1-pass-4 staging buffer.
	pipeline.Instr
	// Device is the executing device id.
	Device int
	// Iter is the training-iteration index within the run (0 for a
	// simulation).
	Iter int
	// Peer is the other endpoint for p2p kinds, -1 otherwise.
	Peer int
	// Start and End bound the instruction's execution interval, including
	// any time spent blocked on a link.
	Start, End float64
	// Wait is the p2p queue wait folded into [Start, End]: how long the
	// device sat idle before the message it needed arrived. Zero for
	// non-receive kinds (eager sends complete into the link buffer).
	Wait float64
	// Bytes is the p2p payload size for communication kinds.
	Bytes float64
	// Mem is the modeled device memory after the instruction in bytes
	// (allocator slack excluded); zero when the producer has no memory
	// model attached.
	Mem float64
}

// Dur returns the event's duration in seconds.
func (e Event) Dur() float64 { return e.End - e.Start }

// jsonEvent is the JSONL wire form; the kind travels as its mnemonic.
type jsonEvent struct {
	Device int     `json:"dev"`
	Iter   int     `json:"iter"`
	Kind   string  `json:"kind"`
	Micro  int     `json:"micro"`
	Part   int     `json:"part"`
	Stage  int     `json:"stage"`
	Peer   int     `json:"peer"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Wait   float64 `json:"wait,omitempty"`
	Bytes  float64 `json:"bytes,omitempty"`
	Mem    float64 `json:"mem,omitempty"`
	Buf    bool    `json:"buffered,omitempty"`
}

// MarshalJSON renders the event with the kind as its paper mnemonic.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(jsonEvent{
		Device: e.Device, Iter: e.Iter, Kind: e.Kind.String(),
		Micro: int(e.Micro), Part: int(e.Part), Stage: int(e.Stage), Peer: e.Peer,
		Start: e.Start, End: e.End, Wait: e.Wait, Bytes: e.Bytes,
		Mem: e.Mem, Buf: e.Buffered,
	})
}

// WriteJSONL writes the events to w as JSONL: one JSON object per event,
// newline-delimited, in slice order. It returns the first write error.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}
