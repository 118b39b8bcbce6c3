package pipeline

import (
	"fmt"
	"reflect"
	"testing"
)

// The oracles below are the interface walks the simulator, the feasibility
// screen, Validate and the tuner each used to carry a copy of. The resolved
// view has to answer what they answer, for every coordinate — inside the
// placement's box and outside it.

func oraclePart(pl Placement, part, stage int) int {
	if ip, ok := pl.(InterleavedPlacement); ok {
		return ip.PartOfStage(stage)
	}
	return part
}

func oraclePeer(pl Placement, d int, in Instr) int {
	switch in.Kind {
	case SendAct, RecvGrad:
		return pl.Device(oraclePart(pl, in.Part, in.Stage+1), in.Stage+1)
	case RecvAct, SendGrad:
		return pl.Device(oraclePart(pl, in.Part, in.Stage-1), in.Stage-1)
	}
	return d
}

// oracleLink names a link the way the feasibility screen and the simulator
// did: (sender, receiver, channel), seen from the device the placement puts
// the instruction on. ok is false where the resolved view promises no link:
// no device, or no stage, at the other end.
func oracleLink(pl Placement, in Instr) (link [3]int, ok bool) {
	other := in.Stage + 1
	if in.Kind == RecvAct || in.Kind == SendGrad {
		other = in.Stage - 1
	}
	d, peer := pl.Device(in.Part, in.Stage), oraclePeer(pl, 0, in)
	if other < 0 || other >= pl.NumStages() || peer < 0 || peer >= pl.NumDevices() {
		return link, false
	}
	ch := 0
	if in.Kind == SendGrad || in.Kind == RecvGrad {
		ch = 1
	}
	if in.Kind == SendAct || in.Kind == SendGrad {
		return [3]int{d, peer, ch}, true
	}
	return [3]int{peer, d, ch}, true
}

func oracleStages(pl Placement, dev int) []int {
	var out []int
	for st := 0; st < pl.NumStages(); st++ {
		for p := 0; p < pl.NumParts(); p++ {
			if pl.Device(p, st) == dev {
				out = append(out, st)
				break
			}
		}
	}
	return out
}

// TestResolvedMatchesDefinition is the exhaustive table ≡ definition check:
// every placement up to 10 devices and 3 chunks, every kind, every (part,
// stage) from two below the box to two above it.
func TestResolvedMatchesDefinition(t *testing.T) {
	const micros = 3
	var placements []Placement
	for d := 1; d <= 10; d++ {
		placements = append(placements, NewLinearPlacement(d))
		if d%2 == 0 {
			placements = append(placements, NewBidirPlacement(d))
		}
		for v := 1; v <= 3; v++ {
			placements = append(placements, NewInterleavedPlacement(d, v))
		}
	}
	for _, pl := range placements {
		t.Run(fmt.Sprintf("%T%+v", pl, pl), func(t *testing.T) {
			r := Resolve(pl, micros)
			D, S, P := pl.NumDevices(), pl.NumStages(), pl.NumParts()
			_, follows := pl.(InterleavedPlacement)
			if r.PartFollowsStage() != follows {
				t.Errorf("PartFollowsStage = %v", r.PartFollowsStage())
			}
			for d := 0; d < D; d++ {
				if got, want := r.Stages(d), oracleStages(pl, d); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Errorf("Stages(%d) = %v, want %v", d, got, want)
				}
			}
			inBox := func(part, stage int) bool {
				return stage >= 0 && stage < S && (follows || (part >= 0 && part < P))
			}
			links := map[[3]int]int{} // oracle link → resolved id
			ids := map[int][3]int{}   // and back
			slots := map[int]Key{}
			transfers := map[int]Key{} // transfer slot → its send's key
			transferSlots := map[Key]int{}
			for part := -2; part < P+2; part++ {
				for stage := -2; stage < S+2; stage++ {
					if got, want := r.Device(part, stage), pl.Device(part, stage); got != want {
						t.Fatalf("Device(%d,%d) = %d, want %d", part, stage, got, want)
					}
					if got, want := r.PartAt(part, stage), oraclePart(pl, part, stage); got != want {
						t.Fatalf("PartAt(%d,%d) = %d, want %d", part, stage, got, want)
					}
					for k := Kind(0); k < numKinds+1; k++ {
						in := Instr{Kind: k, Part: part, Stage: stage}
						if got, want := r.Peer(7, in), oraclePeer(pl, 7, in); got != want {
							t.Fatalf("Peer(%s part %d stage %d) = %d, want %d", k, part, stage, got, want)
						}
						want, ok := [3]int{}, false
						if k.IsComm() && inBox(part, stage) {
							want, ok = oracleLink(pl, in)
						}
						id := r.Link(in)
						switch {
						case !ok && id != -1:
							t.Fatalf("Link(%s part %d stage %d) = %d, want none", k, part, stage, id)
						case ok && (id < 0 || id >= r.NumLinks()):
							t.Fatalf("Link(%s part %d stage %d) = %d, want one of %d", k, part, stage, id, r.NumLinks())
						case ok:
							if prev, seen := links[want]; seen && prev != id {
								t.Fatalf("link %v has ids %d and %d", want, prev, id)
							}
							if prev, seen := ids[id]; seen && prev != want {
								t.Fatalf("links %v and %v share id %d", prev, want, id)
							}
							links[want], ids[id] = id, want
						}
						for micro := -3; micro < micros+2; micro++ {
							key := Key{Kind: k, Micro: micro, Part: part, Stage: stage}
							checkCommPair(t, r, Instr{Kind: k, Micro: micro, Part: part, Stage: stage},
								inBox(part, stage) && micro >= NoMicro && micro < micros, transfers, transferSlots)
							inside := k < numKinds && micro >= NoMicro && micro < micros && stage >= 0 && stage < S &&
								part >= 0 && part < P && (!follows || part == oraclePart(pl, part, stage))
							slot := r.Slot(key)
							if !inside {
								if slot != -1 {
									t.Fatalf("Slot(%+v) = %d, want -1 outside the box", key, slot)
								}
								continue
							}
							if slot < 0 || slot >= r.Slots() {
								t.Fatalf("Slot(%+v) = %d, want within %d", key, slot, r.Slots())
							}
							if other, dup := slots[slot]; dup {
								t.Fatalf("keys %+v and %+v share slot %d", other, key, slot)
							}
							slots[slot] = key
							if !follows {
								// Where every partition has a row the layout is the
								// one Validate's index always had.
								if old := ((int(k)*P+part)*(micros+1)+micro+1)*S + stage; slot != old {
									t.Fatalf("Slot(%+v) = %d, want %d", key, slot, old)
								}
							}
						}
					}
				}
			}
			if len(ids) != r.NumLinks() {
				t.Errorf("%d links in use, NumLinks %d", len(ids), r.NumLinks())
			}
		})
	}
}

// checkCommPair holds CommPair(in) to the definition. Its link is Link's. Its
// slot is -1 off a communication, outside the box (inBox: the instruction's
// cell and micro-batch), and where the slot of the partner's key — MatchKey,
// then Slot — is -1, as matches were once resolved; otherwise it lies in
// [0, Transfers), equals the partner's, and names one transfer, the one whose
// send transfers records.
func checkCommPair(t *testing.T, r *Resolved, in Instr, inBox bool, transfers map[int]Key, transferSlots map[Key]int) {
	t.Helper()
	link, slot := r.CommPair(in)
	if want := r.Link(in); link != want {
		t.Fatalf("CommPair(%+v) link %d, Link %d", in, link, want)
	}
	if !in.Kind.IsComm() || !inBox {
		if slot != -1 {
			t.Fatalf("CommPair(%+v) slot %d, want -1 off a communication or outside the box", in, slot)
		}
		return
	}
	partner := matchKey(r.pl, in)
	if r.Slot(partner) < 0 {
		if slot != -1 {
			t.Fatalf("CommPair(%+v) slot %d, want -1: its partner %+v lies outside the box", in, slot, partner)
		}
		return
	}
	if slot < 0 || slot >= r.Transfers() {
		t.Fatalf("CommPair(%+v) slot %d, want within %d", in, slot, r.Transfers())
	}
	pin := Instr{Kind: partner.Kind, Micro: partner.Micro, Part: partner.Part, Stage: partner.Stage}
	if _, other := r.CommPair(pin); other != slot {
		t.Fatalf("CommPair(%+v) slot %d, its partner %+v's %d", in, slot, partner, other)
	}
	send := partner
	if in.Kind == SendAct || in.Kind == SendGrad {
		send = Key{Kind: in.Kind, Micro: in.Micro, Part: r.PartAt(in.Part, in.Stage), Stage: in.Stage}
	}
	if prev, seen := transfers[slot]; seen && prev != send {
		t.Fatalf("transfers of %+v and %+v share slot %d", prev, send, slot)
	}
	if prev, seen := transferSlots[send]; seen && prev != slot {
		t.Fatalf("transfer of %+v has slots %d and %d", send, prev, slot)
	}
	transfers[slot], transferSlots[send] = send, slot
}

// TestScheduleResolvedIsSharedNotStale: a constructed schedule and its clones
// share the view they were built with; a schedule assembled by hand, or one
// whose placement was reassigned, gets one that fits — and is never written to.
func TestScheduleResolvedIsSharedNotStale(t *testing.T) {
	r := Resolve(NewLinearPlacement(2), 1)
	s := NewSchedule(Scheme1F1B, r, make([][]Instr, 2))
	if s.Resolved() != r || s.Clone().Resolved() != r {
		t.Error("a constructed schedule or its clone does not share the view it was built with")
	}
	s.Placement = NewBidirPlacement(2)
	if got := s.Resolved(); got == r || got.Placement() != s.Placement {
		t.Error("a reassigned placement still reads the old view")
	}
	if s.res != r {
		t.Error("Resolved wrote to the schedule")
	}
	byHand := &Schedule{Placement: NewLinearPlacement(2), Micros: 1, Lists: make([][]Instr, 2)}
	if got := byHand.Resolved(); got == nil || got.micros != 1 || byHand.res != nil {
		t.Error("a schedule assembled by hand is resolved on demand and left as it was")
	}
}
