package pipeline

import "fmt"

// Placement maps a (part, stage) coordinate to the device that owns it.
//
// Every pipeline scheme distributes the model's Stages pipeline stages over
// Devices devices; some schemes place more than one stage per device
// (Interleave), and some place the same stage on different devices depending
// on the partition (Chimera's bidirectional pipelines, which hold a second
// weight replica).
type Placement interface {
	// Device returns the device owning the given stage for the given
	// partition id.
	Device(part, stage int) int
	// NumDevices is the number of devices in the pipeline.
	NumDevices() int
	// NumStages is the number of global pipeline stages.
	NumStages() int
	// NumParts is the number of partition ids the scheme uses.
	NumParts() int
	// WeightReplicas is the number of weight replicas each device holds
	// (2 for Chimera, 1 otherwise). It scales the static weight memory.
	WeightReplicas() int
}

// LinearPlacement places stage s on device s. Used by GPipe and 1F1B, where
// Stages == Devices and there is a single partition.
type LinearPlacement struct {
	D int
}

// NewLinearPlacement returns the placement for a D-device, D-stage pipeline.
func NewLinearPlacement(d int) LinearPlacement {
	if d <= 0 {
		panic(fmt.Sprintf("pipeline: non-positive device count %d", d))
	}
	return LinearPlacement{D: d}
}

// Device implements Placement.
func (p LinearPlacement) Device(_, stage int) int { return stage }

// NumDevices implements Placement.
func (p LinearPlacement) NumDevices() int { return p.D }

// NumStages implements Placement.
func (p LinearPlacement) NumStages() int { return p.D }

// NumParts implements Placement.
func (p LinearPlacement) NumParts() int { return 1 }

// WeightReplicas implements Placement.
func (p LinearPlacement) WeightReplicas() int { return 1 }

// BidirPlacement is Chimera's bidirectional placement: the "up" pipeline
// (part 0) places stage s on device s, the "down" pipeline (part 1) places
// stage s on device D-1-s. Each device therefore holds two stages' weights
// (one per direction), i.e. two model replicas in aggregate.
type BidirPlacement struct {
	D int
}

// NewBidirPlacement returns Chimera's placement for D devices. D must be
// even, matching the Chimera paper's requirement.
func NewBidirPlacement(d int) BidirPlacement {
	if d <= 0 || d%2 != 0 {
		panic(fmt.Sprintf("pipeline: Chimera requires an even positive device count, got %d", d))
	}
	return BidirPlacement{D: d}
}

// Device implements Placement.
func (p BidirPlacement) Device(part, stage int) int {
	if part == 0 {
		return stage
	}
	return p.D - 1 - stage
}

// NumDevices implements Placement.
func (p BidirPlacement) NumDevices() int { return p.D }

// NumStages implements Placement.
func (p BidirPlacement) NumStages() int { return p.D }

// NumParts implements Placement.
func (p BidirPlacement) NumParts() int { return 2 }

// WeightReplicas implements Placement.
func (p BidirPlacement) WeightReplicas() int { return 2 }

// InterleavedPlacement is Megatron-LM's interleaved ("W"-shape) placement:
// with V model chunks per device, global stage s lives on device s mod D and
// belongs to chunk (partition) s / D, so device d owns stages
// {d, d+D, d+2D, ...}.
type InterleavedPlacement struct {
	D int // devices
	V int // model chunks per device
}

// NewInterleavedPlacement returns the interleaved placement for d devices
// with v chunks per device (v >= 2 for a genuine "W" shape).
func NewInterleavedPlacement(d, v int) InterleavedPlacement {
	if d <= 0 || v <= 0 {
		panic(fmt.Sprintf("pipeline: invalid interleaved placement d=%d v=%d", d, v))
	}
	return InterleavedPlacement{D: d, V: v}
}

// Device implements Placement. The part argument is redundant (it equals
// stage/D) and is ignored.
func (p InterleavedPlacement) Device(_, stage int) int { return stage % p.D }

// NumDevices implements Placement.
func (p InterleavedPlacement) NumDevices() int { return p.D }

// NumStages implements Placement.
func (p InterleavedPlacement) NumStages() int { return p.D * p.V }

// NumParts implements Placement.
func (p InterleavedPlacement) NumParts() int { return p.V }

// WeightReplicas implements Placement.
func (p InterleavedPlacement) WeightReplicas() int { return 1 }

// chunkOf returns the chunk id owning the given global stage.
func (p InterleavedPlacement) chunkOf(stage int) int { return stage / p.D }
