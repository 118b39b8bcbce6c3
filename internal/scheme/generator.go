package scheme

import (
	"fmt"

	"mario/internal/pipeline"
)

// generator composes one scheme family from orthogonal ingredients: an
// optional structural check over the configuration, a layout that picks the
// placement and the partition each micro-batch rides, and an order that emits
// the per-device compute lists. Orders either run a closed-form emitter whose
// exact shape is pinned by tests (GPipe, 1F1B, Interleave) or compose a
// depGraph — unit families + dependency rules over the layout — and hand it
// to the greedy list scheduler (Chimera, ZB-H1, DualPipe-D). A depth states
// the order's in-flight depth per cell in closed form, so that ShapeOf, which
// stops after the layout, can report it without ordering anything; the layout
// already fixes every device's instruction multiset. Build runs check, layout
// and order. Adding a scheme is one registry entry plus its ingredients.
type generator struct {
	check func(Config) error // scheme-specific structural constraints (nil: none)
	// layout returns the placement and parts[m], the partition micro-batch m
	// rides (ignored on interleaved placements, where the partition follows
	// the stage).
	layout func(Config) (pipeline.Placement, []int)
	// order emits the per-device compute lists into a fresh header, each
	// list carved from b's compute backing (Builder.lists).
	order func(b *Builder, cfg Config, r *pipeline.Resolved, parts []int) [][]pipeline.Instr
	// depth is Group.InFlight of the (part, stage) cell on device dev, as the
	// order leaves it (nil: the greedy merge decides it, not the layout).
	// shape_test.go holds it to the built lists' walk.
	depth func(sh Shape, part, stage, dev int) int
}

var generators = map[pipeline.Scheme]generator{
	pipeline.SchemeGPipe:      {layout: layoutLinear, order: orderGPipe, depth: depthGPipe},
	pipeline.Scheme1F1B:       {layout: layoutLinear, order: order1F1B, depth: depthWindow},
	pipeline.SchemeChimera:    {check: checkChimera, layout: layoutChimera, order: orderGreedy(false), depth: depthWindow},
	pipeline.SchemeInterleave: {check: checkInterleave, layout: layoutInterleave, order: orderInterleave, depth: depthInterleave},
	pipeline.SchemeZBH1:       {layout: layoutLinear, order: orderGreedy(true), depth: depthWindow},
	pipeline.SchemeDualPipeD:  {check: checkDualPipeD, layout: layoutDualPipeD, order: orderGreedy(true)},
}

// lookup resolves a scheme through the registry and runs its generic and
// scheme-specific structural checks, returning the generator and the
// defaulted configuration.
func lookup(s pipeline.Scheme, cfg Config) (generator, Config, error) {
	cfg = cfg.withDefaults()
	g, ok := generators[s]
	if !ok {
		return g, cfg, fmt.Errorf("scheme: unsupported scheme %q", s)
	}
	if err := cfg.check(s); err != nil {
		return g, cfg, err
	}
	if g.check != nil {
		if err := g.check(cfg); err != nil {
			return g, cfg, err
		}
	}
	return g, cfg, nil
}

// layoutLinear is the single-partition layout of GPipe, 1F1B and ZB-H1:
// stage s on device s, every micro-batch on partition 0.
func layoutLinear(cfg Config) (pipeline.Placement, []int) {
	return pipeline.Linear(cfg.Devices), make([]int, cfg.Micros)
}

// orderGreedy returns the list-scheduler order shared by the depGraph
// schemes: virtual-pipeline dependencies plus 1F1B injection windows over the
// layout, with fused or split backward units. Over the linear layout the
// split order is ZB-H1 (Qi et al., Zero Bubble Pipeline Parallelism): every
// backward becomes an input-gradient half (BI, which alone sits on the
// cross-stage critical path) and a weight-gradient half (WG, no cross-device
// dependents) that the scheduler sinks into what were 1F1B's warm-up and
// drain bubbles, while the injection window keeps stage s's in-flight
// micro-batches at S-s — activation memory stays at 1F1B's level and only the
// weight-gradient stashes are held longer.
func orderGreedy(split bool) func(*Builder, Config, *pipeline.Resolved, []int) [][]pipeline.Instr {
	return func(b *Builder, _ Config, r *pipeline.Resolved, parts []int) [][]pipeline.Instr {
		return b.schedule(b.graph(r, parts, split))
	}
}

// schemeOrder fixes the deterministic catalogue order of the registry:
// fused-backward schemes first in historical order, then the split-backward
// family.
var schemeOrder = []pipeline.Scheme{
	pipeline.SchemeGPipe,
	pipeline.Scheme1F1B,
	pipeline.SchemeChimera,
	pipeline.SchemeInterleave,
	pipeline.SchemeZBH1,
	pipeline.SchemeDualPipeD,
}

// Schemes returns every registered scheme in deterministic catalogue order.
func Schemes() []pipeline.Scheme {
	return append([]pipeline.Scheme(nil), schemeOrder...)
}

// checkChimera rejects odd device counts: the bidirectional placement pairs
// each up-stream stage with a mirrored down-stream stage per device.
func checkChimera(cfg Config) error {
	if cfg.Devices%2 != 0 {
		return fmt.Errorf("scheme: Chimera requires an even device count, got %d", cfg.Devices)
	}
	return nil
}

// checkInterleave rejects configurations Megatron's interleaved schedule
// cannot express: the chunk count must be positive and the micro-batch count
// divisible by the device count (micro-batches advance in groups of D per
// chunk).
func checkInterleave(cfg Config) error {
	if cfg.Chunks < 1 {
		return fmt.Errorf("scheme: Interleave chunk count %d must be positive", cfg.Chunks)
	}
	if cfg.Micros%cfg.Devices != 0 {
		return fmt.Errorf("scheme: Interleave requires micros (%d) divisible by devices (%d)", cfg.Micros, cfg.Devices)
	}
	return nil
}
