package pipeline

import (
	"errors"
	"fmt"
)

// ErrInvalidSchedule wraps all validation failures so callers can test with
// errors.Is.
var ErrInvalidSchedule = errors.New("pipeline: invalid schedule")

func invalidf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidSchedule, fmt.Sprintf(format, args...))
}

// validator is the lookup state of one Validate call: one dense index over
// the schedule's key box (Resolved.Slot), holding for every key 1 + the global
// position of the instruction registered under it — the instructions of
// earlier devices counted first — and zero for none. Positions only grow from
// device to device, so while device d is walked an entry at or below starts[d]
// belongs to an earlier device and reads as absent: the per-device order
// checks need no clearing between devices, and once every device is walked the
// same index answers the global questions (coverage, communication matching).
type validator struct {
	s   *Schedule
	r   *Resolved
	pos []int32
	// starts[d] is the number of instructions on the devices before d.
	starts []int32
}

// at looks up, among the instructions of the device whose instructions start
// at global position base, the one of kind k at in's (micro, part, stage),
// returning its list index.
func (v *validator) at(base int32, k Kind, in Instr) (int32, bool) {
	if slot := v.r.Slot(Key{Kind: k, Micro: in.Micro, Part: in.Part, Stage: in.Stage}); slot >= 0 && v.pos[slot] > base {
		return v.pos[slot] - base - 1, true
	}
	return 0, false
}

// Validate checks the structural invariants every executable schedule must
// satisfy, independent of the scheme that produced it:
//
//  1. every micro-batch runs Forward (or CkptForward) exactly once on every
//     stage and Backward exactly once on every stage;
//  2. instructions live on the device the placement assigns to their
//     (part, stage) coordinate;
//  3. per-device ordering: a stage's FW/CFW precedes its SA; RA precedes its
//     FW/CFW; RG precedes its BW; BW precedes its SG; FW/CFW of (m,s)
//     precedes BW of (m,s); a Recompute lies strictly between its CFW and BW;
//  4. every SendAct/SendGrad has exactly one matching receive and vice versa;
//  5. a Recompute exists for a (m,s) iff its forward is checkpointed and the
//     pair was not reverted by remove-redundancy.
func Validate(s *Schedule) error {
	if s.Placement == nil {
		return invalidf("nil placement")
	}
	if len(s.Lists) != s.NumDevices() {
		return invalidf("have %d lists for %d devices", len(s.Lists), s.NumDevices())
	}
	r := s.Resolved()
	v := validator{s: s, r: r, pos: make([]int32, r.Slots()), starts: make([]int32, len(s.Lists)+1)}
	if err := v.devices(); err != nil {
		return err
	}
	if err := v.coverage(); err != nil {
		return err
	}
	return v.commMatching()
}

// devices runs the per-device work in two walks per list: the first registers
// key positions while checking ranges, placement and duplicates; the second
// checks intra-device ordering against the registered positions.
func (v *validator) devices() error {
	s, S := v.s, v.s.NumStages()
	for d, list := range s.Lists {
		base := v.starts[d]
		v.starts[d+1] = base + int32(len(list))
		for i, in := range list {
			if in.Micro != NoMicro {
				if in.Micro < 0 || in.Micro >= s.Micros {
					return invalidf("dev%d: %s has micro out of range [0,%d)", d, in, s.Micros)
				}
				if in.Stage < 0 || in.Stage >= S {
					return invalidf("dev%d: %s has stage out of range [0,%d)", d, in, S)
				}
			}
			slot := v.r.Slot(in.Key())
			if slot < 0 {
				return invalidf("dev%d: %s names a partition or stage the placement does not have", d, in)
			}
			if in.Micro != NoMicro {
				if got := v.r.Device(in.Part, in.Stage); got != d {
					return invalidf("dev%d: %s belongs on dev%d per placement", d, in, got)
				}
			}
			if v.pos[slot] > base {
				return invalidf("dev%d: duplicate instruction %s", d, in)
			}
			v.pos[slot] = base + int32(i) + 1
		}
		for i32, in := range list {
			i := int32(i32)
			switch in.Kind {
			case SendAct:
				if !in.Buffered {
					if j, ok := v.forward(base, in); !ok || j > i {
						return invalidf("dev%d: %s not preceded by its forward", d, in)
					}
				} else {
					// A buffered SA reads a staging buffer written by a
					// preposed CFW; the CFW must still precede it.
					if j, ok := v.at(base, CkptForward, in); !ok || j > i {
						return invalidf("dev%d: buffered %s not preceded by its CFW", d, in)
					}
				}
			case RecvAct:
				if j, ok := v.forward(base, in); !ok || j < i {
					return invalidf("dev%d: %s not followed by its forward", d, in)
				}
			case RecvGrad:
				if j, ok := v.backwardAnchor(base, in); !ok || j < i {
					return invalidf("dev%d: %s not followed by its backward", d, in)
				}
			case SendGrad:
				if j, ok := v.backwardAnchor(base, in); !ok || j > i {
					return invalidf("dev%d: %s not preceded by its backward", d, in)
				}
			case BackwardWeight:
				if j, ok := v.at(base, BackwardInput, in); !ok || j > i {
					return invalidf("dev%d: %s not preceded by its input-gradient half", d, in)
				}
			case Backward, BackwardInput:
				j, ok := v.forward(base, in)
				if !ok || j > i {
					return invalidf("dev%d: %s not preceded by its forward", d, in)
				}
				// A checkpointed forward requires a recompute before the
				// backward (after remove-redundancy the forward is reverted
				// to a plain FW, so this stays an iff).
				ckpt := list[j].Kind == CkptForward
				r, hasRC := v.at(base, Recompute, in)
				if ckpt && (!hasRC || r < j || r > i) {
					return invalidf("dev%d: %s checkpointed but recompute missing or misplaced", d, in)
				}
				if !ckpt && hasRC {
					return invalidf("dev%d: %s has a recompute but its forward is not checkpointed", d, in)
				}
			}
		}
	}
	return nil
}

// forward locates, on the device starting at base, the Forward or CkptForward
// of in's (micro, part, stage).
func (v *validator) forward(base int32, in Instr) (int32, bool) {
	if j, ok := v.at(base, Forward, in); ok {
		return j, true
	}
	return v.at(base, CkptForward, in)
}

// backwardAnchor locates the Backward, or its input-gradient half when split,
// of in's (micro, part, stage) — the instruction gradient communication
// anchors to.
func (v *validator) backwardAnchor(base int32, in Instr) (int32, bool) {
	if j, ok := v.at(base, Backward, in); ok {
		return j, true
	}
	return v.at(base, BackwardInput, in)
}

// count returns how many instructions of the kind the schedule holds for
// (micro, stage), over every partition. The placement check pins a key to one
// device and the duplicate check to one position there, so a registered key is
// exactly one instruction.
func (v *validator) count(k Kind, m, st int) (n int) {
	for row := 0; row < v.r.rows; row++ {
		if v.pos[v.r.Slot(Key{Kind: k, Micro: m, Part: v.r.partOfRow(row, st), Stage: st})] != 0 {
			n++
		}
	}
	return n
}

// coverage reads the finished index: exactly one forward and one (whole or
// split) backward per (micro, stage), at most one recompute.
func (v *validator) coverage() error {
	for m := 0; m < v.s.Micros; m++ {
		for st := 0; st < v.r.stages; st++ {
			if fw := v.count(Forward, m, st) + v.count(CkptForward, m, st); fw != 1 {
				return invalidf("micro %d stage %d: %d forward instructions, want 1", m, st, fw)
			}
			bw, bi, wg := v.count(Backward, m, st), v.count(BackwardInput, m, st), v.count(BackwardWeight, m, st)
			whole := bw == 1 && bi == 0 && wg == 0
			split := bw == 0 && bi == 1 && wg == 1
			if !whole && !split {
				return invalidf("micro %d stage %d: backward counts BW=%d BI=%d WG=%d, want one BW or one BI+WG pair",
					m, st, bw, bi, wg)
			}
			if rc := v.count(Recompute, m, st); rc > 1 {
				return invalidf("micro %d stage %d: %d recomputes, want at most 1", m, st, rc)
			}
		}
	}
	return nil
}

// commMatching checks that every communication instruction's counterpart
// exists and sits on the device the placement puts the other end on.
func (v *validator) commMatching() error {
	for d, list := range v.s.Lists {
		for _, in := range list {
			if !in.Kind.IsComm() {
				continue
			}
			mk := matchKey(v.s.Placement, in)
			slot := v.r.Slot(mk)
			if slot < 0 || v.pos[slot] == 0 {
				return invalidf("dev%d: %s has no matching %s", d, in, mk.Kind)
			}
			at := v.pos[slot] - 1
			peer := v.r.Peer(d, in)
			if peer < 0 || peer >= len(v.s.Lists) || at < v.starts[peer] || at >= v.starts[peer+1] {
				dev := 0
				for v.starts[dev+1] <= at {
					dev++
				}
				return invalidf("dev%d: %s matches on dev%d, want dev%d", d, in, dev, peer)
			}
		}
	}
	return nil
}
