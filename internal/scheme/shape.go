package scheme

import (
	"mario/internal/pipeline"
)

// Shape is the order-free description of a scheme's schedule: the placement
// plus how many micro-batches ride each partition. Together they fix every
// device's instruction multiset — which (kind, stage) instructions it runs and
// how many of each, communication included — but say nothing about the order
// the list scheduler puts them in. Consumers that only need the multiset and
// the placement (the tuner's admissible bounds) take a Shape and skip the
// list scheduler and InsertComm that Build pays for.
type Shape struct {
	Scheme    pipeline.Scheme
	Placement pipeline.Placement
	// Resolved is the placement's resolved view: which device holds a cell,
	// which stages a device holds. The bounds read the placement through it.
	Resolved *pipeline.Resolved
	// Micros is the number of micro-batches N in one iteration.
	Micros int
	// PartMicros[p] is the number of micro-batches riding partition p. On
	// interleaved placements a micro-batch visits every chunk, so every entry
	// equals Micros.
	PartMicros []int
}

// Group is one (part, stage) cell resident on a device, with the work the
// built schedule places there.
type Group struct {
	Part, Stage int
	// Micros is the number of micro-batches traversing the cell: the device
	// runs that many forwards and that many backwards of the stage (fused
	// Backward, or a BackwardInput/BackwardWeight pair each when the scheme
	// splits its backward).
	Micros int
	// PrevCross and NextCross report whether the boundary to Stage-1 and to
	// Stage+1 leaves the device. Each micro-batch costs a RecvAct and a
	// SendGrad over a crossing previous boundary, and a SendAct and a
	// RecvGrad over a crossing next boundary (InsertComm's rules).
	PrevCross, NextCross bool
}

// ShapeOf resolves the scheme through the generator registry, runs the same
// structural checks as Build (so it fails exactly when Build would reject the
// configuration), and returns the layout's shape without ordering anything.
func ShapeOf(s pipeline.Scheme, cfg Config) (Shape, error) {
	g, cfg, err := lookup(s, cfg)
	if err != nil {
		return Shape{}, err
	}
	pl, parts := g.layout(cfg)
	sh := Shape{Scheme: s, Placement: pl, Resolved: pipeline.Resolve(pl, cfg.Micros), Micros: cfg.Micros,
		PartMicros: make([]int, pl.NumParts())}
	if sh.Resolved.PartFollowsStage() {
		for p := range sh.PartMicros {
			sh.PartMicros[p] = cfg.Micros
		}
		return sh, nil
	}
	for _, p := range parts {
		sh.PartMicros[p]++
	}
	return sh, nil
}

// AppendGroups appends the cells resident on device dev in ascending (stage,
// part) order, skipping partitions no micro-batch rides.
func (sh Shape) AppendGroups(out []Group, dev int) []Group {
	r := sh.Resolved
	S := sh.Placement.NumStages()
	for _, st := range r.Stages(dev) {
		for p, n := range sh.PartMicros {
			if n == 0 || r.Device(p, st) != dev || r.PartAt(p, st) != p {
				continue
			}
			out = append(out, Group{
				Part: p, Stage: st, Micros: n,
				PrevCross: st > 0 && r.Device(p, st-1) != dev,
				NextCross: st < S-1 && r.Device(p, st+1) != dev,
			})
		}
	}
	return out
}
