package pipeline

import (
	"encoding/json"
	"fmt"
	"math"
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

type scheduleJSON struct {
	Scheme       string        `json:"scheme"`
	Micros       int           `json:"micros"`
	Checkpointed bool          `json:"checkpointed,omitempty"`
	Placement    Placement     `json:"placement"`
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
		Placement:    s.Placement,
		Lists:        make([][]instrJSON, len(s.Lists)),
	}
	for d, list := range s.Lists {
		out.Lists[d] = make([]instrJSON, len(list))
		for i, in := range list {
			out.Lists[d][i] = instrJSON{
				Kind: in.Kind.String(), Micro: int(in.Micro), Part: int(in.Part), Stage: int(in.Stage), Buf: in.Buffered,
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
	if err := checkShape(&in); err != nil {
		return err
	}
	lists := make([][]Instr, len(in.Lists))
	for d, list := range in.Lists {
		lists[d] = make([]Instr, len(list))
		for i, ij := range list {
			k, ok := kindByName[ij.Kind]
			if !ok {
				return fmt.Errorf("pipeline: unknown instruction kind %q", ij.Kind)
			}
			// Instructions hold their coordinates in 32 bits; a wider one
			// would wrap into another instruction that validates and
			// re-encodes to different bytes.
			if !fitsInt32(ij.Micro) || !fitsInt32(ij.Part) || !fitsInt32(ij.Stage) {
				return fmt.Errorf("pipeline: dev%d instruction %d (m=%d p=%d s=%d) has a coordinate outside int32", d, i, ij.Micro, ij.Part, ij.Stage)
			}
			lists[d][i] = Instr{Kind: k, Micro: int32(ij.Micro), Part: int32(ij.Part), Stage: int32(ij.Stage), Buffered: ij.Buf}
		}
	}
	*s = *NewSchedule(Scheme(in.Scheme), Resolve(in.Placement, in.Micros), lists)
	s.Checkpointed = in.Checkpointed
	if err := Validate(s); err != nil {
		return fmt.Errorf("pipeline: decoded schedule invalid: %w", err)
	}
	return nil
}

// checkShape checks the declared shape of a decoded body against what it
// actually holds, before anything is sized from it. The bytes may be anyone's:
// the placement must be one of the three layouts in its one spelling, over one
// list per device, and the resolved view and Validate's index are sized by
// stages and by micros × stages — of which a valid schedule has at least one
// forward each — so a body declaring more stages or more cells than it has
// instructions is refused here, not allocated for.
func checkShape(in *scheduleJSON) error {
	pl, instrs := in.Placement, 0
	for _, list := range in.Lists {
		instrs += len(list)
	}
	if err := pl.check(); err != nil {
		return err
	}
	if pl.Devices != len(in.Lists) {
		return fmt.Errorf("pipeline: placement declares %d devices, schedule has %d lists", pl.Devices, len(in.Lists))
	}
	if pl.Chunks > instrs/pl.Devices {
		return fmt.Errorf("pipeline: interleaved placement declares %d chunks × %d devices for %d instructions", pl.Chunks, pl.Devices, instrs)
	}
	if stages := pl.NumStages(); in.Micros < 0 || in.Micros > instrs/stages {
		return fmt.Errorf("pipeline: schedule declares %d micro-batches × %d stages, more cells than its %d instructions",
			in.Micros, stages, instrs)
	}
	return nil
}

func fitsInt32(v int) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }
