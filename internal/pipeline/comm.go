package pipeline

// InsertComm expands a compute-only skeleton (Forward/Backward instructions)
// into a complete instruction list by inserting the auxiliary communication
// instructions of Table 3:
//
//   - RecvAct  immediately before each Forward whose stage has a predecessor
//     on another device,
//   - SendAct  immediately after each Forward whose stage has a successor on
//     another device,
//   - RecvGrad immediately before each Backward (or BackwardInput, when the
//     backward is split) whose stage has a successor on another device,
//   - SendGrad immediately after each Backward (or BackwardInput) whose stage
//     has a predecessor on another device,
//
// and appending the cool-down collective instructions (AllReduce for DP,
// OptimizerStep) to every device.
//
// An activation transfer across the stage boundary s→s+1 is represented by
// the pair SendAct{Stage: s} on the producer and RecvAct{Stage: s+1} on the
// consumer; a gradient transfer across s+1→s by SendGrad{Stage: s+1} and
// RecvGrad{Stage: s}. Matching is therefore by (Micro, Stage) alone and is
// independent of partition ids, which may change across chunk boundaries in
// interleaved schedules.
func InsertComm(s *Schedule) {
	S := s.NumStages()
	r := s.Resolved()
	for d, list := range s.Lists {
		// An interior device gains a receive and a send around every compute
		// instruction, plus the two cool-down collectives: sized for that, the
		// list is allocated once instead of regrowing on every such device.
		out := make([]Instr, 0, len(list)*3+2)
		for _, in := range list {
			switch in.Kind {
			case Forward, CkptForward:
				if in.Stage > 0 && crossesDevice(r, in.Part, in.Stage-1, in.Stage) {
					out = append(out, Instr{Kind: RecvAct, Micro: in.Micro, Part: in.Part, Stage: in.Stage})
				}
				out = append(out, in)
				if in.Stage < S-1 && crossesDevice(r, in.Part, in.Stage, in.Stage+1) {
					out = append(out, Instr{Kind: SendAct, Micro: in.Micro, Part: in.Part, Stage: in.Stage})
				}
			case Backward, BackwardInput:
				// The input-gradient half anchors the gradient transfers when
				// the backward is split; the weight-gradient half has no
				// cross-device dependents and passes through unchanged.
				if in.Stage < S-1 && crossesDevice(r, in.Part, in.Stage, in.Stage+1) {
					out = append(out, Instr{Kind: RecvGrad, Micro: in.Micro, Part: in.Part, Stage: in.Stage})
				}
				out = append(out, in)
				if in.Stage > 0 && crossesDevice(r, in.Part, in.Stage-1, in.Stage) {
					out = append(out, Instr{Kind: SendGrad, Micro: in.Micro, Part: in.Part, Stage: in.Stage})
				}
			default:
				out = append(out, in)
			}
		}
		out = append(out,
			Instr{Kind: AllReduce, Micro: NoMicro},
			Instr{Kind: OptimizerStep, Micro: NoMicro},
		)
		s.SetList(d, out)
	}
}

// crossesDevice reports whether the boundary between loStage and hiStage
// (hiStage = loStage+1) is a cross-device edge for a micro-batch whose
// instruction at either end carries partition id part.
func crossesDevice(r *Resolved, part, loStage, hiStage int) bool {
	return r.Device(r.PartAt(part, loStage), loStage) != r.Device(r.PartAt(part, hiStage), hiStage)
}

// partOfStage returns the partition id the scheme assigns to the given
// stage, given that a neighbouring instruction carries partition id part.
// For interleaved placements the part is a function of the stage; for all
// other placements a micro-batch keeps its partition across stages.
func partOfStage(pl Placement, part, stage int) int {
	if ip, ok := pl.(InterleavedPlacement); ok {
		return ip.PartOfStage(stage)
	}
	return part
}

// PeerDevice returns, for a communication instruction on device d, the
// device on the other end of the transfer. Together with MatchKey it is the
// definition the resolved view (Resolved.Peer, Resolved.Link) is filled from.
func (s *Schedule) PeerDevice(d int, in Instr) int { return peerDevice(s.Placement, d, in) }

func peerDevice(pl Placement, d int, in Instr) int {
	switch in.Kind {
	case SendAct: // producer at in.Stage, consumer at in.Stage+1
		return pl.Device(partOfStage(pl, in.Part, in.Stage+1), in.Stage+1)
	case RecvAct: // consumer at in.Stage, producer at in.Stage-1
		return pl.Device(partOfStage(pl, in.Part, in.Stage-1), in.Stage-1)
	case SendGrad: // producer at in.Stage, consumer at in.Stage-1
		return pl.Device(partOfStage(pl, in.Part, in.Stage-1), in.Stage-1)
	case RecvGrad: // consumer at in.Stage, producer at in.Stage+1
		return pl.Device(partOfStage(pl, in.Part, in.Stage+1), in.Stage+1)
	}
	return d
}

// MatchKey returns the key of the instruction on the other side of a
// communication pair: SA(m,s) ↔ RA(m,s+1) and SG(m,s) ↔ RG(m,s-1).
// It panics for non-communication instructions.
func (s *Schedule) MatchKey(in Instr) Key { return matchKey(s.Placement, in) }

func matchKey(pl Placement, in Instr) Key {
	switch in.Kind {
	case SendAct:
		return Key{Kind: RecvAct, Micro: in.Micro, Part: partOfStage(pl, in.Part, in.Stage+1), Stage: in.Stage + 1}
	case RecvAct:
		return Key{Kind: SendAct, Micro: in.Micro, Part: partOfStage(pl, in.Part, in.Stage-1), Stage: in.Stage - 1}
	case SendGrad:
		return Key{Kind: RecvGrad, Micro: in.Micro, Part: partOfStage(pl, in.Part, in.Stage-1), Stage: in.Stage - 1}
	case RecvGrad:
		return Key{Kind: SendGrad, Micro: in.Micro, Part: partOfStage(pl, in.Part, in.Stage+1), Stage: in.Stage + 1}
	}
	panic("pipeline: MatchKey on non-communication instruction " + in.String())
}
