package pipeline

import "fmt"

// Placement maps a (part, stage) coordinate to the device that owns it.
//
// Every pipeline scheme distributes the model's stages over Devices devices;
// some schemes place more than one stage per device (Interleave), and some
// place the same stage on different devices depending on the partition
// (Chimera's bidirectional pipelines, which hold a second weight replica).
// There are three layouts, named by Type:
//
//   - "linear" places stage s on device s: GPipe, 1F1B and ZB-H1, where the
//     stages are the devices and there is a single partition;
//   - "bidir" is the bidirectional placement of Chimera and DualPipe-D: the
//     "up" pipeline (part 0) places stage s on device s, the "down" pipeline
//     (part 1) on device Devices-1-s, so each device holds two stages'
//     weights — two model replicas in aggregate. Devices is even;
//   - "interleaved" is Megatron-LM's "W" shape: with Chunks model chunks per
//     device, stage s lives on device s mod Devices and belongs to chunk
//     (partition) s / Devices.
//
// A Placement is a value: two are the same placement exactly when they
// compare equal, and the struct is its own JSON form, the "placement" member
// of an encoded schedule.
type Placement struct {
	Type    string `json:"type"`
	Devices int    `json:"devices"`
	Chunks  int    `json:"chunks,omitempty"` // interleaved only
}

const (
	typeLinear      = "linear"
	typeBidir       = "bidir"
	typeInterleaved = "interleaved"
)

// Linear returns the placement of a d-device, d-stage pipeline.
func Linear(d int) Placement { return mustPlace(Placement{Type: typeLinear, Devices: d}) }

// Bidir returns the bidirectional placement for d devices; d must be even,
// matching the Chimera paper's requirement.
func Bidir(d int) Placement { return mustPlace(Placement{Type: typeBidir, Devices: d}) }

// Interleaved returns the interleaved placement of d devices with v chunks per
// device (v >= 2 for a genuine "W" shape).
func Interleaved(d, v int) Placement {
	return mustPlace(Placement{Type: typeInterleaved, Devices: d, Chunks: v})
}

func mustPlace(p Placement) Placement {
	if err := p.check(); err != nil {
		panic(err)
	}
	return p
}

// check reports whether p is one of the three layouts, in its one spelling: a
// positive device count, even for bidir, and chunks on interleaved alone.
func (p Placement) check() error {
	if p.Devices <= 0 {
		return fmt.Errorf("pipeline: %s placement over %d devices", p.Type, p.Devices)
	}
	switch p.Type {
	case typeLinear, typeBidir:
		if p.Chunks != 0 {
			return fmt.Errorf("pipeline: %s placement carries %d chunks", p.Type, p.Chunks)
		}
		if p.Type == typeBidir && p.Devices%2 != 0 {
			return fmt.Errorf("pipeline: bidirectional placement needs an even device count, got %d", p.Devices)
		}
	case typeInterleaved:
		if p.Chunks <= 0 {
			return fmt.Errorf("pipeline: interleaved placement with %d chunks", p.Chunks)
		}
	default:
		return fmt.Errorf("pipeline: unknown placement type %q", p.Type)
	}
	return nil
}

// Device returns the device owning the given stage for the given partition
// id. An interleaved placement ignores the part: it equals partAt's chunk.
func (p Placement) Device(part, stage int) int {
	switch {
	case p.Type == typeInterleaved:
		return stage % p.Devices
	case p.Type == typeBidir && part != 0:
		return p.Devices - 1 - stage
	}
	return stage
}

// NumDevices is the number of devices in the pipeline.
func (p Placement) NumDevices() int { return p.Devices }

// NumStages is the number of global pipeline stages.
func (p Placement) NumStages() int { return p.Devices * max(p.Chunks, 1) }

// NumParts is the number of partition ids the scheme uses.
func (p Placement) NumParts() int {
	if p.Type == typeBidir {
		return 2
	}
	return max(p.Chunks, 1)
}

// WeightReplicas is the number of weight replicas each device holds (2 for
// Chimera, 1 otherwise). It scales the static weight memory.
func (p Placement) WeightReplicas() int {
	if p.Type == typeBidir {
		return 2
	}
	return 1
}

// partAt is the chunk rule: the partition a micro-batch rides at the given
// stage when a neighbouring instruction of it carries partition id part. On an
// interleaved placement the partition is the stage's chunk; on the others a
// micro-batch keeps its partition across stages.
func (p Placement) partAt(part, stage int) int {
	if p.Type == typeInterleaved {
		return stage / p.Devices
	}
	return part
}
