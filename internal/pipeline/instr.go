// Package pipeline defines the instruction-level intermediate representation
// (IR) of a pipeline-parallel training iteration, as described in §4 and §5.1
// of the Mario paper (PPoPP '25).
//
// A training iteration is represented as one ordered instruction list per
// device. List order encodes the paper's horizontal dependencies (an
// instruction may not start before its predecessor in the same list has
// finished issuing); vertical dependencies across devices are derived from
// the (stage, micro) coordinates of each instruction through a Placement.
package pipeline

import "fmt"

// Kind identifies the operation an instruction performs (Table 3 of the
// paper).
type Kind uint8

// Instruction kinds. The two-letter comments give the paper's notation.
const (
	// Forward is an ordinary forward computation that retains its full
	// activations in memory until the matching Backward consumes them. (FW)
	Forward Kind = iota
	// CkptForward is a checkpointed forward computation: it stashes only the
	// stage input and drops intermediate activations. (CFW)
	CkptForward
	// Backward computes gradients; it requires the full activations of the
	// matching Forward (or Recompute) to be resident. (BW)
	Backward
	// Recompute replays the forward computation from the stashed stage input
	// to restore the activations a Backward needs. (RC)
	Recompute
	// SendAct sends the stage output activation to the next stage. (SA)
	SendAct
	// RecvAct receives the stage input activation from the previous stage. (RA)
	RecvAct
	// SendGrad sends the input gradient to the previous stage. (SG)
	SendGrad
	// RecvGrad receives the output gradient from the next stage. (RG)
	RecvGrad
	// AllReduce synchronises gradients across the data-parallel group. (AR)
	AllReduce
	// OptimizerStep applies the optimizer update after gradient sync. (OS)
	OptimizerStep
	// BackwardInput is the input-gradient half of a split backward (ZB-H1's
	// "B" part): it sits on the critical path because the upstream stage's
	// backward depends on it. (BI)
	BackwardInput
	// BackwardWeight is the weight-gradient half of a split backward
	// (ZB-H1's "W" part): it has no cross-device dependents and can be
	// sunk into pipeline bubbles, at the cost of holding the activations
	// longer. (BW̄, rendered "WG")
	BackwardWeight

	numKinds
)

var kindNames = [numKinds]string{
	Forward:        "FW",
	CkptForward:    "CFW",
	Backward:       "BW",
	Recompute:      "RC",
	SendAct:        "SA",
	RecvAct:        "RA",
	SendGrad:       "SG",
	RecvGrad:       "RG",
	AllReduce:      "AR",
	OptimizerStep:  "OS",
	BackwardInput:  "BI",
	BackwardWeight: "WG",
}

// String returns the paper's mnemonic for the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsCompute reports whether the kind occupies the device's compute resource
// (as opposed to the communication engine).
func (k Kind) IsCompute() bool {
	switch k {
	case Forward, CkptForward, Backward, Recompute, OptimizerStep,
		BackwardInput, BackwardWeight:
		return true
	}
	return false
}

// IsComm reports whether the kind is a point-to-point communication.
func (k Kind) IsComm() bool {
	switch k {
	case SendAct, RecvAct, SendGrad, RecvGrad:
		return true
	}
	return false
}

// Channel names the link channel a communication kind travels on: "grad"
// for gradients, "act" for activations.
func (k Kind) Channel() string {
	if k == SendGrad || k == RecvGrad {
		return "grad"
	}
	return "act"
}

// NoMicro is the Micro value used by instructions that are not associated
// with a particular micro-batch (AllReduce, OptimizerStep).
const NoMicro = -1

// Instr is a single pipeline instruction. The paper writes an instruction as
// Kind_m^p where m is the micro-batch id (subscript) and p the partition id
// (superscript).
type Instr struct {
	Kind Kind
	// Micro is the micro-batch id, or NoMicro for AR/OS.
	Micro int
	// Part is the partition id: 0 for single-partition schemes (GPipe,
	// 1F1B), the pipeline direction (0=up, 1=down) for Chimera, and the
	// model-chunk id for Interleave.
	Part int
	// Stage is the global pipeline stage the instruction belongs to,
	// in [0, Stages).
	Stage int
	// Buffered marks a SendAct whose producer CkptForward was preposed while
	// the consumer on the next device was not (§5.1 pass 4 scenario 2): the
	// output sits in a staging buffer until the original SA slot sends it.
	Buffered bool
}

// String renders the instruction in the paper's notation, e.g. "FW3^0".
func (in Instr) String() string {
	if in.Micro == NoMicro {
		return in.Kind.String()
	}
	return fmt.Sprintf("%s%d^%d", in.Kind, in.Micro, in.Part)
}

// Key uniquely identifies a compute or communication instruction within a
// schedule so cross-device matches (SA↔RA, SG↔RG) and semantic dependencies
// (FW→BW) can be located in O(1).
type Key struct {
	Kind  Kind
	Micro int
	Part  int
	Stage int
}

// Key returns the identifying key of the instruction.
func (in Instr) Key() Key {
	return Key{Kind: in.Kind, Micro: in.Micro, Part: in.Part, Stage: in.Stage}
}
