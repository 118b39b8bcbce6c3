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
//
// Every device's new list is carved from one backing, as b[lo:hi:hi]: an
// append to one list reallocates it rather than run into its neighbour.
func InsertComm(s *Schedule) {
	S := s.NumStages()
	r := s.Resolved()
	// A transfer can only cross a stage boundary a compute instruction
	// touches, and on a registry placement over more than one device every
	// such boundary does: counted first, the boundaries size the backing —
	// exactly, there — so it is allocated once, at its final size.
	n := 0
	for _, list := range s.Lists {
		n += len(list) + 2
		for _, in := range list {
			switch in.Kind {
			case Forward, CkptForward, Backward, BackwardInput:
				if in.Stage > 0 {
					n++
				}
				if int(in.Stage) < S-1 {
					n++
				}
			}
		}
	}
	backing := make([]Instr, 0, n)
	for d, list := range s.Lists {
		lo := len(backing)
		out := backing
		for _, in := range list {
			switch in.Kind {
			case Forward, CkptForward:
				if in.Stage > 0 {
					out = appendCrossing(out, r, d, RecvAct, in)
				}
				out = append(out, in)
				if int(in.Stage) < S-1 {
					out = appendCrossing(out, r, d, SendAct, in)
				}
			case Backward, BackwardInput:
				// The input-gradient half anchors the gradient transfers when
				// the backward is split; the weight-gradient half has no
				// cross-device dependents and passes through unchanged.
				if int(in.Stage) < S-1 {
					out = appendCrossing(out, r, d, RecvGrad, in)
				}
				out = append(out, in)
				if in.Stage > 0 {
					out = appendCrossing(out, r, d, SendGrad, in)
				}
			default:
				out = append(out, in)
			}
		}
		backing = append(out,
			Instr{Kind: AllReduce, Micro: NoMicro},
			Instr{Kind: OptimizerStep, Micro: NoMicro},
		)
		hi := len(backing)
		s.Lists[d] = backing[lo:hi:hi]
	}
}

// appendCrossing appends to out the transfer of kind k that the compute
// instruction in on device d anchors, when its other end is another device.
func appendCrossing(out []Instr, r *Resolved, d int, k Kind, in Instr) []Instr {
	c := Instr{Kind: k, Micro: in.Micro, Part: in.Part, Stage: in.Stage}
	if r.Peer(d, c) != d {
		out = append(out, c)
	}
	return out
}

// PeerDevice returns, for a communication instruction on device d, the
// device on the other end of the transfer. Together with MatchKey it is the
// definition the resolved view (Resolved.Peer, Resolved.Link) is filled from.
func (s *Schedule) PeerDevice(d int, in Instr) int { return peerDevice(s.Placement, d, in) }

func peerDevice(pl Placement, d int, in Instr) int {
	k := in.Key()
	switch k.Kind {
	case SendAct: // producer at k.Stage, consumer at k.Stage+1
		return pl.Device(pl.partAt(k.Part, k.Stage+1), k.Stage+1)
	case RecvAct: // consumer at k.Stage, producer at k.Stage-1
		return pl.Device(pl.partAt(k.Part, k.Stage-1), k.Stage-1)
	case SendGrad: // producer at k.Stage, consumer at k.Stage-1
		return pl.Device(pl.partAt(k.Part, k.Stage-1), k.Stage-1)
	case RecvGrad: // consumer at k.Stage, producer at k.Stage+1
		return pl.Device(pl.partAt(k.Part, k.Stage+1), k.Stage+1)
	}
	return d
}

// MatchKey returns the key of the instruction on the other side of a
// communication pair: SA(m,s) ↔ RA(m,s+1) and SG(m,s) ↔ RG(m,s-1).
// It panics for non-communication instructions.
func (s *Schedule) MatchKey(in Instr) Key { return matchKey(s.Placement, in) }

func matchKey(pl Placement, in Instr) Key {
	k := in.Key()
	switch k.Kind {
	case SendAct:
		return Key{Kind: RecvAct, Micro: k.Micro, Part: pl.partAt(k.Part, k.Stage+1), Stage: k.Stage + 1}
	case RecvAct:
		return Key{Kind: SendAct, Micro: k.Micro, Part: pl.partAt(k.Part, k.Stage-1), Stage: k.Stage - 1}
	case SendGrad:
		return Key{Kind: RecvGrad, Micro: k.Micro, Part: pl.partAt(k.Part, k.Stage-1), Stage: k.Stage - 1}
	case RecvGrad:
		return Key{Kind: SendGrad, Micro: k.Micro, Part: pl.partAt(k.Part, k.Stage+1), Stage: k.Stage + 1}
	}
	panic("pipeline: MatchKey on non-communication instruction " + in.String())
}
