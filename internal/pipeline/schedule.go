package pipeline

import (
	"fmt"
	"strings"
)

// Scheme names the pipeline parallelism scheme a schedule was generated from.
// The paper abbreviates schemes by their visualisation shape: V (1F1B),
// X (Chimera), W (Interleave).
type Scheme string

// Supported schemes.
const (
	SchemeGPipe      Scheme = "GPipe"
	Scheme1F1B       Scheme = "1F1B"       // "V"
	SchemeChimera    Scheme = "Chimera"    // "X"
	SchemeInterleave Scheme = "Interleave" // "W"
	SchemeZBH1       Scheme = "ZB-H1"      // "Z": zero-bubble handcrafted-1
	SchemeDualPipeD  Scheme = "DualPipe-D" // "D": bidirectional split-backward
)

// Shape returns the single-letter shape alias used in the paper's evaluation
// (V, X, W) and its extensions (Z for ZB-H1, D for DualPipe-D); other schemes
// return their full name.
func (s Scheme) Shape() string {
	switch s {
	case Scheme1F1B:
		return "V"
	case SchemeChimera:
		return "X"
	case SchemeInterleave:
		return "W"
	case SchemeZBH1:
		return "Z"
	case SchemeDualPipeD:
		return "D"
	}
	return string(s)
}

// SplitsBackward reports whether the scheme emits split backward units
// (BackwardInput + BackwardWeight) instead of fused Backward instructions.
func (s Scheme) SplitsBackward() bool {
	return s == SchemeZBH1 || s == SchemeDualPipeD
}

// ParseScheme resolves a scheme name or shape alias. It accepts both the
// long names ("1F1B") and the paper's shape aliases ("V", "X", "W").
func ParseScheme(name string) (Scheme, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "GPIPE":
		return SchemeGPipe, nil
	case "1F1B", "V":
		return Scheme1F1B, nil
	case "CHIMERA", "X":
		return SchemeChimera, nil
	case "INTERLEAVE", "W":
		return SchemeInterleave, nil
	case "ZB-H1", "ZBH1", "Z":
		return SchemeZBH1, nil
	case "DUALPIPE-D", "DUALPIPED", "DUALPIPE", "D":
		return SchemeDualPipeD, nil
	}
	return "", fmt.Errorf("pipeline: unknown scheme %q", name)
}

// Schedule is the expanded IR of one training iteration: one ordered
// instruction list per device plus the placement that locates each (part,
// stage) coordinate.
type Schedule struct {
	Scheme    Scheme
	Placement Placement
	// Micros is the number of micro-batches N in one iteration.
	Micros int
	// Lists holds the per-device instruction lists; Lists[d] is executed in
	// order by device d.
	Lists [][]Instr
	// Checkpointed records whether the apply-checkpoint pass has run.
	Checkpointed bool

	// res is the resolved view of Placement and Micros, filled by NewSchedule
	// and shared by the schedule's clones; see Resolved.
	res *Resolved
}

// NewSchedule returns a schedule over r's placement and micro-batch count that
// carries r as its resolved view. It is the one way a schedule gets that view:
// every schedule the program builds or decodes, and every one a test
// assembles, is made here, so the view exists before the schedule is cloned
// or shared. Placement and Micros are read-only afterwards; Validate refuses a
// schedule whose fields no longer match its view.
func NewSchedule(scheme Scheme, r *Resolved, lists [][]Instr) *Schedule {
	return &Schedule{Scheme: scheme, Placement: r.pl, Micros: r.micros, Lists: lists, res: r}
}

// Resolved returns the resolved view NewSchedule gave the schedule.
func (s *Schedule) Resolved() *Resolved { return s.res }

// NumDevices returns the device count.
func (s *Schedule) NumDevices() int { return s.Placement.NumDevices() }

// NumStages returns the global stage count.
func (s *Schedule) NumStages() int { return s.Placement.NumStages() }

// CountKind returns the number of instructions of the given kind on device
// d, or across all devices when d is negative.
func (s *Schedule) CountKind(d int, k Kind) int {
	n := 0
	for dev, l := range s.Lists {
		if d >= 0 && dev != d {
			continue
		}
		for _, in := range l {
			if in.Kind == k {
				n++
			}
		}
	}
	return n
}

// String renders a compact textual form of the schedule, one device per line.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s D=%d S=%d N=%d ckpt=%v\n",
		s.Scheme, s.NumDevices(), s.NumStages(), s.Micros, s.Checkpointed)
	for d, l := range s.Lists {
		fmt.Fprintf(&b, "dev%d:", d)
		for _, in := range l {
			b.WriteByte(' ')
			b.WriteString(in.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
