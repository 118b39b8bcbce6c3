// Package scheme generates the initial per-device instruction lists for the
// pipeline parallelism schemes Mario supports: GPipe, 1F1B ("V"), Chimera
// ("X"), Interleave ("W"), and the split-backward family ZB-H1 ("Z") and
// DualPipe-D ("D"). Schemes are registered as composable generators — a
// structural check plus a builder that either emits a closed-form shape or
// composes a dependency graph for the greedy list scheduler (see depGraph).
// The generated schedules are the input of the graph tuner (internal/graph);
// they carry explicit communication instructions and are valid by construction.
package scheme

import (
	"fmt"

	"mario/internal/pipeline"
)

// Config parameterises schedule generation.
type Config struct {
	// Devices is the pipeline-parallel dimension D (one device per pipeline
	// rank).
	Devices int
	// Micros is the number of micro-batches N in one training iteration.
	Micros int
	// Chunks is the number of model chunks per device for Interleave
	// ("W"-shape); ignored by other schemes. Defaults to 2.
	Chunks int
}

func (c Config) withDefaults() Config {
	if c.Chunks == 0 {
		c.Chunks = 2
	}
	return c
}

func (c Config) check(s pipeline.Scheme) error {
	if c.Devices <= 0 {
		return fmt.Errorf("scheme: %s: device count %d must be positive", s, c.Devices)
	}
	if c.Micros <= 0 {
		return fmt.Errorf("scheme: %s: micro-batch count %d must be positive", s, c.Micros)
	}
	return nil
}

// Build expands the named scheme into a schedule with explicit communication
// instructions. The scheme is resolved through the generator registry; its
// generic and scheme-specific structural checks run first, the registered
// layout and order emit the compute skeleton, and InsertComm completes it.
// Build does not validate its output: the tests prove every generator valid.
func Build(s pipeline.Scheme, cfg Config) (*pipeline.Schedule, error) {
	g, cfg, err := lookup(s, cfg)
	if err != nil {
		return nil, err
	}
	pl, parts := g.layout(cfg)
	r := pipeline.Resolve(pl, cfg.Micros)
	sched := pipeline.NewSchedule(s, r, g.order(cfg, r, parts))
	pipeline.InsertComm(sched)
	return sched, nil
}

// orderGPipe emits all forwards followed by all backwards in reverse
// micro-batch order (GPipe's fill-drain schedule).
func orderGPipe(cfg Config, _ *pipeline.Resolved, _ []int) [][]pipeline.Instr {
	lists := make([][]pipeline.Instr, cfg.Devices)
	for dev := range lists {
		list := make([]pipeline.Instr, 0, 2*cfg.Micros)
		for m := 0; m < cfg.Micros; m++ {
			list = append(list, pipeline.Instr{Kind: pipeline.Forward, Micro: m, Stage: dev})
		}
		for m := cfg.Micros - 1; m >= 0; m-- {
			list = append(list, pipeline.Instr{Kind: pipeline.Backward, Micro: m, Stage: dev})
		}
		lists[dev] = list
	}
	return lists
}

// order1F1B emits the one-forward-one-backward schedule of DAPPLE /
// PipeDream-Flush: device d runs D-1-d warm-up forwards, then alternates
// forward and backward in the steady phase, then drains the remaining
// backwards.
func order1F1B(cfg Config, _ *pipeline.Resolved, _ []int) [][]pipeline.Instr {
	d := cfg.Devices
	n := cfg.Micros
	lists := make([][]pipeline.Instr, d)
	for dev := 0; dev < d; dev++ {
		warmup := d - 1 - dev
		if warmup > n {
			warmup = n
		}
		list := make([]pipeline.Instr, 0, 2*n)
		for m := 0; m < warmup; m++ {
			list = append(list, pipeline.Instr{Kind: pipeline.Forward, Micro: m, Stage: dev})
		}
		for j := 0; j < n-warmup; j++ {
			list = append(list,
				pipeline.Instr{Kind: pipeline.Forward, Micro: warmup + j, Stage: dev},
				pipeline.Instr{Kind: pipeline.Backward, Micro: j, Stage: dev},
			)
		}
		for m := n - warmup; m < n; m++ {
			list = append(list, pipeline.Instr{Kind: pipeline.Backward, Micro: m, Stage: dev})
		}
		lists[dev] = list
	}
	return lists
}

// layoutInterleave is Megatron-LM's interleaved placement with cfg.Chunks
// model chunks per device; a micro-batch visits every chunk, so the per-micro
// partition is unused.
func layoutInterleave(cfg Config) (pipeline.Placement, []int) {
	return pipeline.NewInterleavedPlacement(cfg.Devices, cfg.Chunks), make([]int, cfg.Micros)
}

// orderInterleave emits Megatron-LM's interleaved 1F1B schedule. A device
// processes micro-batches in groups of D per chunk; forwards walk the chunks
// in ascending order and backwards in descending order, interleaved 1F1B-style
// after a warm-up of (D-1-d)*2 + (V-1)*D forward units.
func orderInterleave(cfg Config, _ *pipeline.Resolved, _ []int) [][]pipeline.Instr {
	d, v, n := cfg.Devices, cfg.Chunks, cfg.Micros
	lists := make([][]pipeline.Instr, d)
	total := n * v
	group := d * v
	// fwUnit maps the k-th forward unit executed by a device to its
	// (micro, chunk) coordinates, per Megatron's get_model_chunk_id.
	fwUnit := func(k int) (micro, chunk int) {
		g, r := k/group, k%group
		return g*d + r%d, r / d
	}
	bwUnit := func(k int) (micro, chunk int) {
		g, r := k/group, k%group
		return g*d + r%d, v - 1 - r/d
	}
	for dev := 0; dev < d; dev++ {
		warmup := (d-1-dev)*2 + (v-1)*d
		if warmup > total {
			warmup = total
		}
		list := make([]pipeline.Instr, 0, 2*total)
		emitF := func(k int) {
			m, c := fwUnit(k)
			list = append(list, pipeline.Instr{Kind: pipeline.Forward, Micro: m, Part: c, Stage: c*d + dev})
		}
		emitB := func(k int) {
			m, c := bwUnit(k)
			list = append(list, pipeline.Instr{Kind: pipeline.Backward, Micro: m, Part: c, Stage: c*d + dev})
		}
		for k := 0; k < warmup; k++ {
			emitF(k)
		}
		for j := 0; j < total-warmup; j++ {
			emitF(warmup + j)
			emitB(j)
		}
		for k := total - warmup; k < total; k++ {
			emitB(k)
		}
		lists[dev] = list
	}
	return lists
}
