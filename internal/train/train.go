// Package train executes Mario instruction lists on a real (miniature)
// transformer with real tensors: one goroutine per device on the cluster
// emulator's device runtime (cluster.Execute), activations and gradients
// travelling over its links, and activation checkpointing that
// genuinely drops and recomputes tensors. It is the semantic ground truth of
// this reproduction — where the paper deploys its schedules in
// Megatron-DeepSpeed and trains GPT3/LLaMA2, we train a small causal
// transformer on synthetic data and verify that Mario-optimized schedules
// produce identical losses and gradients to the baseline while holding far
// fewer live activation bytes.
//
// All three placements are executable: linear (GPipe, 1F1B), bidirectional
// (Chimera and DualPipe-D, with two weight replicas whose gradients are
// merged at the AllReduce barrier, exactly like Chimera's intra-iteration
// synchronisation) and interleaved (multiple model chunks per device).
// Split-backward schedules (ZB-H1, DualPipe-D, or any schedule rewritten by
// graph.SplitBackward) execute for real too: BackwardInput runs the
// input-gradient chain and defers the weight-gradient work, which the
// matching BackwardWeight instruction later applies. A fused Backward
// instruction is that same composition with the work run at once (nn layers
// have no other backward), so split and fused executions of the same
// workload produce bit-identical losses and weights.
package train

import (
	"fmt"
	"time"

	"mario/internal/cluster"
	"mario/internal/nn"
	"mario/internal/obs"
	"mario/internal/pipeline"
	"mario/internal/tensor"
)

// Config sizes the model and the training job.
type Config struct {
	Devices        int // pipeline devices
	BlocksPerStage int
	Dim            int
	SeqLen         int
	Micros         int
	BatchPerMicro  int // samples per micro-batch
	Seed           uint64
	LR             float64
	// Vocab switches the trainer into language-model mode: the first stage
	// embeds synthetic token streams, the last stage projects to logits and
	// the loss is next-token cross-entropy — the GPT-style setup of the
	// paper's workloads. Zero keeps the regression (MSE) mode. The LM head
	// is untied from the embedding (tying would require cross-device
	// gradient synchronisation of a shared table, which Megatron does with
	// an extra all-reduce).
	Vocab int
	// Watchdog is the no-progress limit of the device runtime the trainer
	// shares with the cluster emulator (cluster.Execute); 0 means 5s. An
	// iteration may run longer as long as it keeps making progress; a
	// schedule that deadlocks fails with cluster.ErrDeadlock.
	Watchdog time.Duration
}

// Trainer holds the partitioned model. Stage modules are created lazily per
// (part, stage) coordinate when a schedule's placement is first seen, so one
// Trainer executes exactly one placement family.
type Trainer struct {
	cfg Config
	// stages[part][stage]; replicas (Chimera parts) of the same stage are
	// initialised identically and kept in lockstep by the gradient merge.
	stages map[[2]int]*nn.Stage
	// embeds and heads exist in language-model mode, one per weight
	// replica, attached to the first and last stage respectively.
	embeds map[int]*nn.Embedding
	heads  map[int]*nn.LMHead
	// replicas is the weight-replica count of the placement seen.
	replicas int

	// CollectEvents makes each RunIteration fill Stats.Events with one
	// obs.Event per executed instruction, device-major in execution order.
	// Unlike the cluster emulator's virtual timestamps these are wall-clock
	// seconds since iteration start, with live activation bytes as the memory
	// figure — a trace of a real (miniature) training run.
	CollectEvents bool
}

// New builds the trainer; the model stages materialise on the first
// RunIteration from the schedule's placement.
func New(cfg Config) (*Trainer, error) {
	switch {
	case cfg.Devices <= 0, cfg.BlocksPerStage <= 0, cfg.Dim <= 0, cfg.SeqLen <= 0,
		cfg.Micros <= 0, cfg.BatchPerMicro <= 0:
		return nil, fmt.Errorf("train: all config dimensions must be positive: %+v", cfg)
	}
	if cfg.LR == 0 {
		cfg.LR = 1e-3
	}
	return &Trainer{
		cfg:    cfg,
		stages: make(map[[2]int]*nn.Stage),
		embeds: make(map[int]*nn.Embedding),
		heads:  make(map[int]*nn.LMHead),
	}, nil
}

// lm reports whether the trainer runs in language-model mode.
func (t *Trainer) lm() bool { return t.cfg.Vocab > 0 }

// embedFor returns the per-replica embedding (LM mode).
func (t *Trainer) embedFor(part int) *nn.Embedding {
	if e, ok := t.embeds[part]; ok {
		return e
	}
	e := nn.NewEmbedding(tensor.NewRNG(t.cfg.Seed^0xE3BED), t.cfg.Vocab, t.cfg.Dim)
	t.embeds[part] = e
	return e
}

// headFor returns the per-replica LM head (LM mode).
func (t *Trainer) headFor(part int) *nn.LMHead {
	if h, ok := t.heads[part]; ok {
		return h
	}
	h := nn.NewLMHead(tensor.NewRNG(t.cfg.Seed^0x4EAD), t.cfg.Vocab, t.cfg.Dim)
	t.heads[part] = h
	return h
}

// stageFor returns (creating on first use) the stage module for a (part,
// stage) coordinate. Weight replicas derive from the same per-stage seed, so
// they start identical.
func (t *Trainer) stageFor(part, stage int) *nn.Stage {
	key := [2]int{part, stage}
	if s, ok := t.stages[key]; ok {
		return s
	}
	s := nn.NewStage(tensor.NewRNG(t.cfg.Seed+uint64(stage)*1000003), t.cfg.BlocksPerStage, t.cfg.Dim, t.cfg.SeqLen)
	t.stages[key] = s
	return s
}

// materialize creates every stage module the schedule references, so the
// concurrent phase only reads the map.
func (t *Trainer) materialize(s *pipeline.Schedule) {
	pl := s.Placement
	t.replicas = pl.WeightReplicas()
	lastStage := pl.NumStages() - 1
	for _, list := range s.Lists {
		for _, in := range list {
			if in.Micro == pipeline.NoMicro {
				continue
			}
			t.stageFor(in.Part, in.Stage)
			if t.lm() {
				if in.Stage == 0 {
					t.embedFor(in.Part)
				}
				if in.Stage == lastStage {
					t.headFor(in.Part)
				}
			}
		}
	}
}

// Stats is the outcome of one training iteration.
type Stats struct {
	// Loss is the sum of per-micro-batch losses (deterministic across
	// schedules).
	Loss float64
	// PeakActBytes is the per-device peak of live activation memory
	// (stashes + retained caches + in-flight outputs + loss gradients).
	PeakActBytes []int64
	// MicroLosses holds the per-micro losses in micro order.
	MicroLosses []float64
	// Events is the iteration's measured event stream, device-major in
	// execution order; nil unless Trainer.CollectEvents was set.
	Events []obs.Event
}

// input returns the synthetic input micro-batch m (seeded, so every schedule
// sees the same data).
func (t *Trainer) input(m int) *tensor.Tensor {
	r := tensor.NewRNG(t.cfg.Seed ^ (0xDA7A + uint64(m)*7919))
	return tensor.Randn(r, 1, t.cfg.BatchPerMicro*t.cfg.SeqLen, t.cfg.Dim)
}

// target returns the regression target for micro-batch m.
func (t *Trainer) target(m int) *tensor.Tensor {
	r := tensor.NewRNG(t.cfg.Seed ^ (0x7A9E7 + uint64(m)*104729))
	return tensor.Randn(r, 0.5, t.cfg.BatchPerMicro*t.cfg.SeqLen, t.cfg.Dim)
}

// tokenStream returns the synthetic token window for micro-batch m in LM
// mode: n inputs plus one trailing token so the targets are the inputs
// shifted by one.
func (t *Trainer) tokenStream(m int) (inputs, targets []int) {
	r := tensor.NewRNG(t.cfg.Seed ^ (0x70CE5 + uint64(m)*31337))
	n := t.cfg.BatchPerMicro * t.cfg.SeqLen
	ids := make([]int, n+1)
	for i := range ids {
		ids[i] = int(r.Float64() * float64(t.cfg.Vocab))
	}
	return ids[:n], ids[1:]
}

// Params returns the trainable parameters of the primary replica (part 0),
// stage by stage.
func (t *Trainer) Params() [][]*nn.Param {
	var maxStage int
	for k := range t.stages {
		if k[0] == 0 && k[1] > maxStage {
			maxStage = k[1]
		}
	}
	out := make([][]*nn.Param, maxStage+1)
	for k, s := range t.stages {
		if k[0] == 0 {
			out[k[1]] = s.Params()
		}
	}
	return out
}

// cellKey identifies per-(micro, stage) execution state on a device.
type cellKey struct{ micro, stage int }

// devState is the mutable per-device execution state of one iteration.
type devState struct {
	caches  map[cellKey]*nn.StageCache
	stashes map[cellKey]*tensor.Tensor // CFW inputs awaiting recompute
	inputs  map[cellKey]*tensor.Tensor // received/generated stage inputs
	outputs map[cellKey]*tensor.Tensor // produced outputs awaiting SendAct
	grads   map[cellKey]*tensor.Tensor // received/loss-computed output grads
	dxs     map[cellKey]*tensor.Tensor // input grads awaiting SendGrad
	heads   map[cellKey]nn.Cache       // LM-head caches (language-model mode)

	// wgrads holds the deferred weight-gradient work a BackwardInput left
	// for its BackwardWeight (split-backward schedules); wgradBytes is the
	// live footprint the work pins (caches and output gradients) until it
	// runs.
	wgrads     map[cellKey]nn.WeightWork
	wgradBytes map[cellKey]int64

	live int64
	peak int64

	losses map[int]float64
}

func newDevState() *devState {
	return &devState{
		caches:  make(map[cellKey]*nn.StageCache),
		stashes: make(map[cellKey]*tensor.Tensor),
		inputs:  make(map[cellKey]*tensor.Tensor),
		outputs: make(map[cellKey]*tensor.Tensor),
		grads:   make(map[cellKey]*tensor.Tensor),
		dxs:     make(map[cellKey]*tensor.Tensor),
		heads:   make(map[cellKey]nn.Cache),
		losses:  make(map[int]float64),

		wgrads:     make(map[cellKey]nn.WeightWork),
		wgradBytes: make(map[cellKey]int64),
	}
}

func (ds *devState) track(delta int64) {
	ds.live += delta
	if ds.live > ds.peak {
		ds.peak = ds.live
	}
}

// RunIteration executes one training iteration under the given schedule and
// applies the optimizer step.
func (t *Trainer) RunIteration(s *pipeline.Schedule) (*Stats, error) {
	if s.NumDevices() != t.cfg.Devices {
		return nil, fmt.Errorf("train: schedule has %d devices, trainer %d", s.NumDevices(), t.cfg.Devices)
	}
	if s.Micros != t.cfg.Micros {
		return nil, fmt.Errorf("train: schedule has %d micros, trainer %d", s.Micros, t.cfg.Micros)
	}
	t.materialize(s)

	D := t.cfg.Devices
	states := make([]*devState, D)
	for d := range states {
		states[d] = newDevState()
	}
	epoch := time.Now()
	events, _, err := cluster.Execute(s, 1, t.cfg.Watchdog, t.CollectEvents, func(dv *cluster.Device[*tensor.Tensor], in pipeline.Instr, ev *obs.Event) error {
		ds := states[dv.ID]
		if ev == nil {
			return t.exec(dv, s, ds, in)
		}
		ev.Start = time.Since(epoch).Seconds()
		if err := t.exec(dv, s, ds, in); err != nil {
			return err
		}
		ev.End = time.Since(epoch).Seconds()
		ev.Mem = float64(ds.live)
		// Wall-clock receives are essentially all queue wait; the copy
		// itself is a pointer handoff.
		if in.Kind == pipeline.RecvAct || in.Kind == pipeline.RecvGrad {
			ev.Wait = ev.End - ev.Start
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	stats := &Stats{
		PeakActBytes: make([]int64, D),
		MicroLosses:  make([]float64, t.cfg.Micros),
		Events:       events,
	}
	for d := 0; d < D; d++ {
		stats.PeakActBytes[d] = states[d].peak
		for m, l := range states[d].losses {
			stats.MicroLosses[m] = l
		}
	}
	for _, l := range stats.MicroLosses {
		stats.Loss += l
	}
	return stats, nil
}

// mergeReplicas merges the gradient accumulators of weight replicas
// (Chimera's two pipelines train the same model; their gradients sum before
// the optimizer step, keeping the replicas in lockstep). It runs at the
// AllReduce barrier, once every device has arrived and before any leaves.
func (t *Trainer) mergeReplicas() {
	if t.replicas > 1 {
		for key, primary := range t.stages {
			if key[0] != 0 {
				continue
			}
			for part := 1; part < t.replicas; part++ {
				replica, ok := t.stages[[2]int{part, key[1]}]
				if !ok {
					continue
				}
				mergeGrads(primary.Params(), replica.Params())
			}
		}
		for part := 1; part < t.replicas; part++ {
			if p0, ok := t.embeds[0]; ok {
				if pr, ok := t.embeds[part]; ok {
					mergeGrads(p0.Params(), pr.Params())
				}
			}
			if p0, ok := t.heads[0]; ok {
				if pr, ok := t.heads[part]; ok {
					mergeGrads(p0.Params(), pr.Params())
				}
			}
		}
	}
}

// mergeGrads sums the gradient accumulators of two parameter sets and
// writes the sum back into both, keeping replicas in lockstep.
func mergeGrads(a, b []*nn.Param) {
	for i := range a {
		for j := range a[i].Grad {
			sum := a[i].Grad[j] + b[i].Grad[j]
			a[i].Grad[j] = sum
			b[i].Grad[j] = sum
		}
	}
}

// exec interprets one instruction of device dv's list.
func (t *Trainer) exec(dv *cluster.Device[*tensor.Tensor], s *pipeline.Schedule, ds *devState, in pipeline.Instr) error {
	d := dv.ID
	lastStage := s.NumStages() - 1
	ck := cellKey{micro: in.Micro, stage: in.Stage}
	switch in.Kind {
	case pipeline.RecvAct, pipeline.RecvGrad:
		data, err := dv.Recv(in)
		if err != nil {
			return err
		}
		if in.Kind == pipeline.RecvAct {
			ds.inputs[ck] = data
		} else {
			ds.grads[ck] = data
		}
		ds.track(int64(data.Bytes()))

	case pipeline.Forward, pipeline.CkptForward:
		stage := t.stageFor(in.Part, in.Stage)
		x := ds.inputs[ck]
		if x == nil {
			if in.Stage != 0 {
				return fmt.Errorf("train: dev%d forward %s has no input", d, in)
			}
			if t.lm() {
				ids, _ := t.tokenStream(in.Micro)
				x = t.embedFor(in.Part).Forward(ids)
			} else {
				x = t.input(in.Micro)
			}
			ds.track(int64(x.Bytes()))
			ds.inputs[ck] = x
		}
		var y *tensor.Tensor
		if in.Kind == pipeline.CkptForward {
			y = stage.ForwardDropped(x)
			ds.stashes[ck] = x // the stash keeps the input bytes alive
		} else {
			var c *nn.StageCache
			y, c = stage.Forward(x)
			ds.caches[ck] = c
			ds.track(int64(c.Bytes()))
			ds.track(-int64(x.Bytes())) // cache owns the input now
		}
		delete(ds.inputs, ck)
		if in.Stage == lastStage {
			var loss float64
			var dy *tensor.Tensor
			if t.lm() {
				_, targets := t.tokenStream(in.Micro)
				head := t.headFor(in.Part)
				logits, hc := head.Forward(y)
				loss, dy = nn.CrossEntropy(logits, targets)
				if in.Kind == pipeline.Forward {
					// The head cache (which references y) is needed by
					// the backward; checkpointed forwards rebuild it in
					// the recompute instead.
					ds.heads[ck] = hc
					ds.track(int64(hc.Bytes()))
				}
			} else {
				loss, dy = tensor.MSE(y, t.target(in.Micro))
			}
			ds.losses[in.Micro] = loss
			ds.grads[ck] = dy
			ds.track(int64(dy.Bytes()))
		} else {
			ds.outputs[ck] = y
			ds.track(int64(y.Bytes()))
		}

	case pipeline.SendAct:
		y := ds.outputs[ck]
		if y == nil {
			return fmt.Errorf("train: dev%d send %s has no output", d, in)
		}
		if err := dv.Send(in, y); err != nil {
			return err
		}
		delete(ds.outputs, ck)
		ds.track(-int64(y.Bytes()))

	case pipeline.Recompute:
		x := ds.stashes[ck]
		if x == nil {
			return fmt.Errorf("train: dev%d recompute %s has no stash", d, in)
		}
		y, c := t.stageFor(in.Part, in.Stage).Forward(x)
		ds.caches[ck] = c
		ds.track(int64(c.Bytes()))
		if t.lm() && in.Stage == lastStage {
			// Restore the LM-head cache dropped by the checkpointed
			// forward (the loss gradient itself was kept).
			_, hc := t.headFor(in.Part).Forward(y)
			ds.heads[ck] = hc
			ds.track(int64(hc.Bytes()))
		}

	case pipeline.Backward, pipeline.BackwardInput:
		// One code path for fused and split backwards: the input-gradient
		// chain runs now; the weight-gradient work either runs immediately
		// (Backward) or is parked for the matching BackwardWeight
		// (BackwardInput), pinning the bytes it closes over.
		c := ds.caches[ck]
		dy := ds.grads[ck]
		if c == nil || dy == nil {
			return fmt.Errorf("train: dev%d backward %s missing cache or gradient", d, in)
		}
		pinned := int64(c.Bytes()) + int64(dy.Bytes())
		var headWork nn.WeightWork
		if t.lm() && in.Stage == lastStage {
			hc := ds.heads[ck]
			if hc == nil {
				return fmt.Errorf("train: dev%d backward %s missing LM-head cache", d, in)
			}
			pinned += int64(hc.Bytes())
			dy, headWork = t.headFor(in.Part).BackwardInput(hc, dy)
			delete(ds.heads, ck)
		}
		dx, stageWork := t.stageFor(in.Part, in.Stage).BackwardInput(c, dy)
		part, micro := in.Part, in.Micro
		embeds := t.lm() && in.Stage == 0
		work := func() {
			if headWork != nil {
				headWork()
			}
			stageWork()
			if embeds {
				ids, _ := t.tokenStream(micro)
				t.embedFor(part).Backward(ids, dx)
			}
		}
		delete(ds.caches, ck)
		delete(ds.grads, ck)
		if x := ds.stashes[ck]; x != nil {
			delete(ds.stashes, ck)
			ds.track(-int64(x.Bytes()))
		}
		if in.Kind == pipeline.Backward {
			work()
			ds.track(-pinned)
		} else {
			ds.wgrads[ck] = work
			ds.wgradBytes[ck] = pinned
		}
		if in.Stage > 0 {
			ds.dxs[ck] = dx
			ds.track(int64(dx.Bytes()))
		}

	case pipeline.BackwardWeight:
		w := ds.wgrads[ck]
		if w == nil {
			return fmt.Errorf("train: dev%d weight-grad %s has no deferred work", d, in)
		}
		w()
		delete(ds.wgrads, ck)
		ds.track(-ds.wgradBytes[ck])
		delete(ds.wgradBytes, ck)

	case pipeline.SendGrad:
		dx := ds.dxs[ck]
		if dx == nil {
			return fmt.Errorf("train: dev%d send-grad %s has no gradient", d, in)
		}
		if err := dv.Send(in, dx); err != nil {
			return err
		}
		delete(ds.dxs, ck)
		ds.track(-int64(dx.Bytes()))

	case pipeline.AllReduce:
		if err := dv.Barrier(in, t.mergeReplicas); err != nil {
			return err
		}

	case pipeline.OptimizerStep:
		// Each device steps the stage modules it owns, once each.
		pl := s.Placement
		for key, stage := range t.stages {
			if pl.Device(key[0], key[1]) != d {
				continue
			}
			for _, p := range stage.Params() {
				p.Step(t.cfg.LR, float64(t.cfg.Micros))
			}
		}
		if t.lm() {
			for part, e := range t.embeds {
				if pl.Device(part, 0) == d {
					e.W.Step(t.cfg.LR, float64(t.cfg.Micros))
				}
			}
			for part, h := range t.heads {
				if pl.Device(part, lastStage) == d {
					h.W.Step(t.cfg.LR, float64(t.cfg.Micros))
				}
			}
		}
	}
	return nil
}
