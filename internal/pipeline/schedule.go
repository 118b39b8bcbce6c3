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

	// res is the resolved view of Placement and Micros, filled where the
	// schedule is constructed and shared by its clones; see Resolved.
	res *Resolved

	// shared, when non-nil, marks Lists[d] as aliased with at least one
	// other schedule (set by Clone on both the child and the receiver).
	// MutableList copies such a list before returning it; nil means this
	// schedule solely owns every list and may edit them in place.
	shared []bool
}

// NewSchedule returns a schedule over r's placement and micro-batch count that
// carries r as its resolved view. Every schedule the program builds or decodes
// is made here, so the view exists before the schedule can be frozen and shared
// between goroutines.
func NewSchedule(scheme Scheme, r *Resolved, lists [][]Instr) *Schedule {
	return &Schedule{Scheme: scheme, Placement: r.pl, Micros: r.micros, Lists: lists, res: r}
}

// Resolved returns the resolved view of the schedule's placement. A schedule
// assembled field by field (tests do) has none, and one whose Placement or
// Micros was reassigned has a stale one: both get a fresh resolution, which is
// not stored — Resolved never writes to the schedule.
func (s *Schedule) Resolved() *Resolved {
	if s.res.Resolves(s.Placement, s.Micros) {
		return s.res
	}
	return Resolve(s.Placement, s.Micros)
}

// NumDevices returns the device count.
func (s *Schedule) NumDevices() int { return s.Placement.NumDevices() }

// NumStages returns the global stage count.
func (s *Schedule) NumStages() int { return s.Placement.NumStages() }

// Clone returns a copy-on-write copy of the schedule: the per-device
// instruction lists are shared between the receiver and the copy (the
// placement, which is immutable, is shared too), and a list is only copied
// when one side first mutates it through MutableList or replaces it through
// SetList. Direct in-place writes to Lists[d] elements after Clone are
// therefore visible in both schedules — all mutation must go through
// MutableList/SetList, which every pass in this repository does.
//
// Cloning marks the receiver's lists shared as well. That write makes a
// first Clone racy when the same schedule is cloned from several goroutines
// at once; call Freeze once before sharing a schedule across goroutines and
// the concurrent Clones become read-only on the receiver.
func (s *Schedule) Clone() *Schedule {
	c := *s
	c.Lists = append(make([][]Instr, 0, len(s.Lists)), s.Lists...)
	c.shared = sharedAll(len(s.Lists))
	if s.shared == nil {
		s.shared = sharedAll(len(s.Lists))
	} else {
		for d, sh := range s.shared {
			if !sh {
				s.shared[d] = true
			}
		}
	}
	return &c
}

// Freeze marks every list of s as shared, so any later mutation — by s or by
// one of its clones — goes through a copy. It makes subsequent concurrent
// Clone calls safe: they no longer need to write the receiver's share marks.
func (s *Schedule) Freeze() {
	if s.shared == nil {
		s.shared = sharedAll(len(s.Lists))
		return
	}
	for d, sh := range s.shared {
		if !sh {
			s.shared[d] = true
		}
	}
}

// MutableList returns device d's instruction list, first copying it if it is
// shared with another schedule. Callers that edit list elements in place
// must obtain the list through here; the returned list stays owned by s
// until the next Clone.
func (s *Schedule) MutableList(d int) []Instr {
	if s.shared != nil && s.shared[d] {
		s.Lists[d] = append([]Instr(nil), s.Lists[d]...)
		s.shared[d] = false
	}
	return s.Lists[d]
}

// SetList replaces device d's instruction list with one the caller built,
// which s then owns exclusively.
func (s *Schedule) SetList(d int, list []Instr) {
	s.Lists[d] = list
	if s.shared != nil {
		s.shared[d] = false
	}
}

func sharedAll(n int) []bool {
	sh := make([]bool, n)
	for i := range sh {
		sh[i] = true
	}
	return sh
}

// TotalInstrs returns the total number of instructions across all devices.
func (s *Schedule) TotalInstrs() int {
	n := 0
	for _, l := range s.Lists {
		n += len(l)
	}
	return n
}

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

// Index builds a lookup table from instruction key to (device, index).
// The table is invalidated by any mutation of the schedule.
func (s *Schedule) Index() map[Key][2]int {
	m := make(map[Key][2]int, s.TotalInstrs())
	for d, l := range s.Lists {
		for i, in := range l {
			m[in.Key()] = [2]int{d, i}
		}
	}
	return m
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
