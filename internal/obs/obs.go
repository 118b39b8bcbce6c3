// Package obs is the observability layer of the emulated cluster and the
// miniature trainer: a zero-cost-when-disabled event stream of
// per-instruction execution records, plus the derived artifacts the paper
// motivates with its timeline figures — per-device utilization/bubble/stall
// metrics (Fig. 5's measured counterpart), the JSONL export, and a
// predicted-vs-measured drift report that extends the Fig. 10
// simulator-accuracy machinery down to instruction granularity.
//
// The device runtime both producers (internal/cluster, internal/train) run
// on, cluster.Execute, collects events in per-device slices on the hot path —
// no locks, no clock perturbation — and the run returns them with its report,
// in deterministic order (device-major, execution order). A run that does not
// ask for events allocates none. Run-level counts (watchdog re-arms) are the
// run report's, not derived here.
package obs

import (
	"bufio"
	"encoding/json"
	"io"

	"mario/internal/pipeline"
)

// Event is one measured instruction execution. Times are in seconds on the
// producer's clock: virtual time for the cluster emulator, wall-clock time
// since iteration start for the real-tensor trainer.
type Event struct {
	// Device is the executing device id.
	Device int
	// Iter is the training-iteration index within the run.
	Iter int
	// Kind, Micro, Part and Stage identify the instruction (pipeline.Key).
	Kind  pipeline.Kind
	Micro int
	Part  int
	Stage int
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
	// Buffered marks a SendAct draining a §5.1-pass-4 staging buffer.
	Buffered bool
}

// Dur returns the event's duration in seconds.
func (e Event) Dur() float64 { return e.End - e.Start }

// Instr reconstructs the pipeline instruction the event describes.
func (e Event) Instr() pipeline.Instr {
	return pipeline.Instr{Kind: e.Kind, Micro: e.Micro, Part: e.Part, Stage: e.Stage, Buffered: e.Buffered}
}

// Key returns the instruction identity used to align measured events with
// predicted spans.
func (e Event) Key() pipeline.Key {
	return pipeline.Key{Kind: e.Kind, Micro: e.Micro, Part: e.Part, Stage: e.Stage}
}

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
		Micro: e.Micro, Part: e.Part, Stage: e.Stage, Peer: e.Peer,
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
