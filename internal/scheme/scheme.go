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
// instructions, on a fresh Builder.
func Build(s pipeline.Scheme, cfg Config) (*pipeline.Schedule, error) {
	return new(Builder).Build(s, cfg)
}

// Builder expands schemes into schedules and keeps the scratch of one build
// for the next: the list scheduler's units, edges and ready queue, the
// injection-window sort, and the compute-list backing every order emits into
// (closed forms included). A fresh Builder sizes each buffer exactly; a warm
// one allocates only what a bigger shape outgrows. Its zero value is ready to
// use. A Builder serves one build at a time and is not safe for concurrent
// use.
//
// Nothing a build returns aliases the scratch: the compute lists are
// scratch, but InsertComm rewrites every device's list into the schedule's
// own backing, and the per-device header is allocated per build because the
// schedule keeps it as Lists. A schedule built earlier therefore stays as it
// was, whatever the Builder builds next.
type Builder struct {
	g       depGraph
	q       readyQueue
	perDev  []int
	compute []pipeline.Instr
}

// Build expands the named scheme into a schedule with explicit communication
// instructions. The scheme is resolved through the generator registry; its
// generic and scheme-specific structural checks run first, the registered
// layout and order emit the compute skeleton into b's scratch, and
// InsertComm completes it into the schedule's own lists. Build does not
// validate its output: the tests prove every generator valid.
func (b *Builder) Build(s pipeline.Scheme, cfg Config) (*pipeline.Schedule, error) {
	g, cfg, err := lookup(s, cfg)
	if err != nil {
		return nil, err
	}
	pl, parts := g.layout(cfg)
	r := pipeline.Resolve(pl, cfg.Micros)
	sched := pipeline.NewSchedule(s, r, g.order(b, cfg, r, parts))
	pipeline.InsertComm(sched)
	return sched, nil
}

// lists returns a fresh header of devices empty compute lists, list d carved
// from b's compute backing with room for exactly size(d) instructions, so an
// append never runs into a neighbour.
func (b *Builder) lists(devices int, size func(d int) int) [][]pipeline.Instr {
	total := 0
	for d := range devices {
		total += size(d)
	}
	b.compute = grow(b.compute, total)
	lists := make([][]pipeline.Instr, devices)
	lo := 0
	for d := range lists {
		hi := lo + size(d)
		lists[d] = b.compute[lo:lo:hi]
		lo = hi
	}
	return lists
}

// grow returns s resliced to length n, reallocated (to exactly n) only when
// its capacity falls short. The contents are whatever s held: callers
// overwrite or clear what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// orderGPipe emits all forwards followed by all backwards in reverse
// micro-batch order (GPipe's fill-drain schedule).
func orderGPipe(b *Builder, cfg Config, _ *pipeline.Resolved, _ []int) [][]pipeline.Instr {
	lists := b.lists(cfg.Devices, func(int) int { return 2 * cfg.Micros })
	for dev := range lists {
		list := lists[dev]
		for m := 0; m < cfg.Micros; m++ {
			list = append(list, pipeline.Instr{Kind: pipeline.Forward, Micro: int32(m), Stage: int32(dev)})
		}
		for m := cfg.Micros - 1; m >= 0; m-- {
			list = append(list, pipeline.Instr{Kind: pipeline.Backward, Micro: int32(m), Stage: int32(dev)})
		}
		lists[dev] = list
	}
	return lists
}

// depthGPipe is GPipe's in-flight depth: every forward precedes the first
// backward.
func depthGPipe(sh Shape, part, _, _ int) int { return sh.PartMicros[part] }

// depthWindow is the in-flight depth of the 1F1B discipline: stage s admits
// S-s forwards of a partition before the first backward anchor there — 1F1B's
// warm-up plus its first steady forward, or the list scheduler's injection
// window (addInjectionWindows), which Chimera's and ZB-H1's merges fill — or
// all of the partition's micro-batches when there are fewer.
func depthWindow(sh Shape, part, stage, _ int) int {
	return min(sh.PartMicros[part], sh.Placement.NumStages()-stage)
}

// order1F1B emits the one-forward-one-backward schedule of DAPPLE /
// PipeDream-Flush: device d runs D-1-d warm-up forwards, then alternates
// forward and backward in the steady phase, then drains the remaining
// backwards.
func order1F1B(b *Builder, cfg Config, _ *pipeline.Resolved, _ []int) [][]pipeline.Instr {
	d := cfg.Devices
	n := cfg.Micros
	lists := b.lists(d, func(int) int { return 2 * n })
	for dev := 0; dev < d; dev++ {
		warmup := d - 1 - dev
		if warmup > n {
			warmup = n
		}
		list := lists[dev]
		for m := 0; m < warmup; m++ {
			list = append(list, pipeline.Instr{Kind: pipeline.Forward, Micro: int32(m), Stage: int32(dev)})
		}
		for j := 0; j < n-warmup; j++ {
			list = append(list,
				pipeline.Instr{Kind: pipeline.Forward, Micro: int32(warmup + j), Stage: int32(dev)},
				pipeline.Instr{Kind: pipeline.Backward, Micro: int32(j), Stage: int32(dev)},
			)
		}
		for m := n - warmup; m < n; m++ {
			list = append(list, pipeline.Instr{Kind: pipeline.Backward, Micro: int32(m), Stage: int32(dev)})
		}
		lists[dev] = list
	}
	return lists
}

// layoutInterleave is Megatron-LM's interleaved placement with cfg.Chunks
// model chunks per device; a micro-batch visits every chunk, so the per-micro
// partition is unused.
func layoutInterleave(cfg Config) (pipeline.Placement, []int) {
	return pipeline.Interleaved(cfg.Devices, cfg.Chunks), make([]int, cfg.Micros)
}

// depthInterleave is the in-flight depth of orderInterleave's chunk c on
// device dev. Chunk c's first backward is the device's backward unit
// j = (V-1-c)·D, which follows its first K = min(w+j+1, N·V) forward units
// (w is the warm-up); every full round of D·V units holds D of chunk c, and
// the last, partial round holds those of its units past c·D, at most D.
func depthInterleave(sh Shape, c, _, dev int) int {
	d, v := sh.Placement.NumDevices(), sh.Placement.NumParts()
	w := (d-1-dev)*2 + (v-1)*d
	k := min(w+(v-1-c)*d+1, sh.Micros*v)
	return k/(d*v)*d + min(max(k%(d*v)-c*d, 0), d)
}

// orderInterleave emits Megatron-LM's interleaved 1F1B schedule. A device
// processes micro-batches in groups of D per chunk; forwards walk the chunks
// in ascending order and backwards in descending order, interleaved 1F1B-style
// after a warm-up of (D-1-d)*2 + (V-1)*D forward units.
func orderInterleave(b *Builder, cfg Config, _ *pipeline.Resolved, _ []int) [][]pipeline.Instr {
	d, v, n := cfg.Devices, cfg.Chunks, cfg.Micros
	total := n * v
	lists := b.lists(d, func(int) int { return 2 * total })
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
		list := lists[dev]
		emitF := func(k int) {
			m, c := fwUnit(k)
			list = append(list, pipeline.Instr{Kind: pipeline.Forward, Micro: int32(m), Part: int32(c), Stage: int32(c*d + dev)})
		}
		emitB := func(k int) {
			m, c := bwUnit(k)
			list = append(list, pipeline.Instr{Kind: pipeline.Backward, Micro: int32(m), Part: int32(c), Stage: int32(c*d + dev)})
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
