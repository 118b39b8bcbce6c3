package pipeline

import (
	"encoding/json"
	"fmt"
)

// The JSON encoding makes schedules durable artifacts: Mario optimizes ahead
// of time (§4) and the resulting instruction lists can be stored, diffed and
// loaded by an executor later. The format is stable and compact: one object
// per instruction with single-letter field names.

type instrJSON struct {
	Kind  string `json:"k"`
	Micro int    `json:"m"`
	Part  int    `json:"p,omitempty"`
	Stage int    `json:"s"`
	Buf   bool   `json:"buf,omitempty"`
}

type placementJSON struct {
	Type    string `json:"type"` // "linear", "bidir", "interleaved"
	Devices int    `json:"devices"`
	Chunks  int    `json:"chunks,omitempty"`
}

type scheduleJSON struct {
	Scheme       string        `json:"scheme"`
	Micros       int           `json:"micros"`
	Checkpointed bool          `json:"checkpointed,omitempty"`
	Placement    placementJSON `json:"placement"`
	Lists        [][]instrJSON `json:"lists"`
}

// kindByName inverts the Kind mnemonics.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, name := range kindNames {
		m[name] = Kind(k)
	}
	return m
}()

// MarshalJSON implements json.Marshaler.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	out := scheduleJSON{
		Scheme:       string(s.Scheme),
		Micros:       s.Micros,
		Checkpointed: s.Checkpointed,
		Lists:        make([][]instrJSON, len(s.Lists)),
	}
	switch p := s.Placement.(type) {
	case LinearPlacement:
		out.Placement = placementJSON{Type: "linear", Devices: p.D}
	case BidirPlacement:
		out.Placement = placementJSON{Type: "bidir", Devices: p.D}
	case InterleavedPlacement:
		out.Placement = placementJSON{Type: "interleaved", Devices: p.D, Chunks: p.V}
	default:
		return nil, fmt.Errorf("pipeline: placement %T is not serialisable", s.Placement)
	}
	for d, list := range s.Lists {
		out.Lists[d] = make([]instrJSON, len(list))
		for i, in := range list {
			out.Lists[d][i] = instrJSON{
				Kind: in.Kind.String(), Micro: in.Micro, Part: in.Part, Stage: in.Stage, Buf: in.Buffered,
			}
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler; the decoded schedule is
// re-validated so corrupted files are rejected.
func (s *Schedule) UnmarshalJSON(data []byte) error {
	var in scheduleJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("pipeline: decoding schedule: %w", err)
	}
	// The bytes may be anyone's: the declared shape is checked against what
	// the body actually holds before anything is sized from it. The placement
	// constructors panic on shapes no generator produces, and the resolved view
	// and Validate's index are sized by stages and by micros × stages — of which
	// a valid schedule has at least one forward each, so a body declaring more
	// stages or more cells than it has instructions is refused here, not
	// allocated for.
	devices, chunks, instrs := in.Placement.Devices, 1, 0
	for _, list := range in.Lists {
		instrs += len(list)
	}
	if devices <= 0 || devices != len(in.Lists) {
		return fmt.Errorf("pipeline: placement declares %d devices, schedule has %d lists", devices, len(in.Lists))
	}
	var pl Placement
	switch in.Placement.Type {
	case "linear":
		pl = NewLinearPlacement(devices)
	case "bidir":
		if devices%2 != 0 {
			return fmt.Errorf("pipeline: bidirectional placement needs an even device count, got %d", devices)
		}
		pl = NewBidirPlacement(devices)
	case "interleaved":
		chunks = in.Placement.Chunks
		if chunks <= 0 || chunks > instrs/devices {
			return fmt.Errorf("pipeline: interleaved placement declares %d chunks × %d devices for %d instructions", chunks, devices, instrs)
		}
		pl = NewInterleavedPlacement(devices, chunks)
	default:
		return fmt.Errorf("pipeline: unknown placement type %q", in.Placement.Type)
	}
	if in.Micros < 0 || in.Micros > instrs/(devices*chunks) {
		return fmt.Errorf("pipeline: schedule declares %d micro-batches × %d stages, more cells than its %d instructions",
			in.Micros, devices*chunks, instrs)
	}
	lists := make([][]Instr, len(in.Lists))
	for d, list := range in.Lists {
		lists[d] = make([]Instr, len(list))
		for i, ij := range list {
			k, ok := kindByName[ij.Kind]
			if !ok {
				return fmt.Errorf("pipeline: unknown instruction kind %q", ij.Kind)
			}
			lists[d][i] = Instr{Kind: k, Micro: ij.Micro, Part: ij.Part, Stage: ij.Stage, Buffered: ij.Buf}
		}
	}
	*s = *NewSchedule(Scheme(in.Scheme), Resolve(pl, in.Micros), lists)
	s.Checkpointed = in.Checkpointed
	if err := Validate(s); err != nil {
		return fmt.Errorf("pipeline: decoded schedule invalid: %w", err)
	}
	return nil
}
