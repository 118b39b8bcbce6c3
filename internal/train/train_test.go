package train

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"mario/internal/cluster"
	"mario/internal/cost"
	"mario/internal/graph"
	"mario/internal/pipeline"
	"mario/internal/scheme"
)

func config() Config {
	return Config{
		Devices:        4,
		BlocksPerStage: 1,
		Dim:            16,
		SeqLen:         8,
		Micros:         8,
		BatchPerMicro:  2,
		Seed:           2025,
		LR:             1e-3,
	}
}

func newTrainer(t *testing.T) *Trainer {
	t.Helper()
	tr, err := New(config())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func baseSchedule(t *testing.T, sch pipeline.Scheme) *pipeline.Schedule {
	t.Helper()
	s, err := scheme.Build(sch, scheme.Config{Devices: 4, Micros: 8})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func marioSchedule(t *testing.T) *pipeline.Schedule {
	t.Helper()
	s := baseSchedule(t, pipeline.Scheme1F1B)
	opt, _, err := graph.Optimize(s, graph.Options{Estimator: cost.Uniform(4, 1, 2, 0.25)})
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

// TestLossIdenticalAcrossSchedules: the same model and data produce
// bit-identical per-micro losses under GPipe, 1F1B and the Mario-optimized
// checkpointed 1F1B — checkpointing must not change the math.
func TestLossIdenticalAcrossSchedules(t *testing.T) {
	var ref []float64
	for _, tc := range []struct {
		name  string
		sched *pipeline.Schedule
	}{
		{"gpipe", baseSchedule(t, pipeline.SchemeGPipe)},
		{"1f1b", baseSchedule(t, pipeline.Scheme1F1B)},
		{"mario", marioSchedule(t)},
	} {
		tr := newTrainer(t)
		st, err := tr.RunIteration(tc.sched)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ref == nil {
			ref = st.MicroLosses
			continue
		}
		for m := range ref {
			if st.MicroLosses[m] != ref[m] {
				t.Errorf("%s: micro %d loss %v differs from reference %v", tc.name, m, st.MicroLosses[m], ref[m])
			}
		}
	}
}

// TestGradientsMatchAcrossSchedules: weight updates after one iteration
// agree across schedules up to float64 accumulation-order noise.
func TestGradientsMatchAcrossSchedules(t *testing.T) {
	run := func(s *pipeline.Schedule) *Trainer {
		tr := newTrainer(t)
		if _, err := tr.RunIteration(s); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a := run(baseSchedule(t, pipeline.Scheme1F1B))
	b := run(marioSchedule(t))
	pa, pb := a.Params(), b.Params()
	for st := range pa {
		for i := range pa[st] {
			wa, wb := pa[st][i].W.Data, pb[st][i].W.Data
			for j := range wa {
				diff := math.Abs(float64(wa[j]) - float64(wb[j]))
				if diff > 1e-6 {
					t.Fatalf("stage %d param %d elem %d: weights diverge by %v", st, i, j, diff)
				}
			}
		}
	}
}

// TestCheckpointReducesLiveMemory: the Mario schedule's peak live activation
// bytes on the first device are far below the baseline's (which retains
// ~D caches).
func TestCheckpointReducesLiveMemory(t *testing.T) {
	trBase := newTrainer(t)
	base, err := trBase.RunIteration(baseSchedule(t, pipeline.Scheme1F1B))
	if err != nil {
		t.Fatal(err)
	}
	trMario := newTrainer(t)
	mario, err := trMario.RunIteration(marioSchedule(t))
	if err != nil {
		t.Fatal(err)
	}
	if mario.PeakActBytes[0] >= base.PeakActBytes[0]/2 {
		t.Errorf("first-device peak: mario %d not under half of base %d", mario.PeakActBytes[0], base.PeakActBytes[0])
	}
	t.Logf("peak bytes base=%v mario=%v", base.PeakActBytes, mario.PeakActBytes)
}

// TestIterationEvents: with CollectEvents an iteration returns one event per
// executed instruction, device-major in execution order, and leaves the
// losses alone; without it, no events.
func TestIterationEvents(t *testing.T) {
	s := marioSchedule(t)
	plain, err := newTrainer(t).RunIteration(s)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Events != nil {
		t.Fatalf("an iteration that did not collect returned %d events", len(plain.Events))
	}
	tr := newTrainer(t)
	tr.CollectEvents = true
	st, err := tr.RunIteration(s)
	if err != nil {
		t.Fatal(err)
	}
	for m := range plain.MicroLosses {
		if st.MicroLosses[m] != plain.MicroLosses[m] {
			t.Fatalf("micro %d: collecting events changed the loss", m)
		}
	}
	i := 0
	for d, list := range s.Lists {
		for _, in := range list {
			if i >= len(st.Events) {
				t.Fatalf("%d events, want %d", len(st.Events), i+1)
			}
			ev := st.Events[i]
			if ev.Device != d || ev.Instr != in {
				t.Fatalf("event %d is %s on dev%d, want %s on dev%d", i, ev.Instr, ev.Device, in, d)
			}
			if ev.End < ev.Start || ev.Kind.IsComm() != (ev.Peer >= 0) {
				t.Fatalf("event %d: interval [%v, %v], peer %d", i, ev.Start, ev.End, ev.Peer)
			}
			i++
		}
	}
	if i != len(st.Events) {
		t.Fatalf("%d events, want %d", len(st.Events), i)
	}
}

// TestMemoryImbalanceShape: under base 1F1B the peak decreases with device
// index; under Mario it is balanced (max/min < 2.5).
func TestMemoryImbalanceShape(t *testing.T) {
	tr := newTrainer(t)
	base, err := tr.RunIteration(baseSchedule(t, pipeline.Scheme1F1B))
	if err != nil {
		t.Fatal(err)
	}
	if base.PeakActBytes[0] <= base.PeakActBytes[3] {
		t.Errorf("baseline not imbalanced: %v", base.PeakActBytes)
	}
	tm := newTrainer(t)
	mario, err := tm.RunIteration(marioSchedule(t))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := mario.PeakActBytes[0], mario.PeakActBytes[0]
	for _, p := range mario.PeakActBytes {
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	if ratio := float64(hi) / float64(lo); ratio > 2.5 {
		t.Errorf("mario memory imbalance ratio %v too high: %v", ratio, mario.PeakActBytes)
	}
}

// TestTrainingConverges: several iterations under the Mario schedule reduce
// the loss — the optimizer step works end to end.
func TestTrainingConverges(t *testing.T) {
	tr := newTrainer(t)
	s := marioSchedule(t)
	var first, last float64
	for it := 0; it < 8; it++ {
		st, err := tr.RunIteration(s)
		if err != nil {
			t.Fatal(err)
		}
		if it == 0 {
			first = st.Loss
		}
		last = st.Loss
	}
	if last >= first {
		t.Errorf("loss did not decrease: first %v last %v", first, last)
	}
}

// TestRunIterationValidation covers the error paths.
func TestRunIterationValidation(t *testing.T) {
	tr := newTrainer(t)
	wrongD, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: 2, Micros: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RunIteration(wrongD); err == nil {
		t.Error("device mismatch accepted")
	}
	wrongN := baseSchedule(t, pipeline.Scheme1F1B)
	wrongN.Micros = 4
	if _, err := tr.RunIteration(wrongN); err == nil {
		t.Error("micro mismatch accepted")
	}
}

// splitSchedule returns 1F1B rewritten by the split-backward graph pass
// (fused BW → BI + WG), which must now execute for real.
func splitSchedule(t *testing.T) *pipeline.Schedule {
	t.Helper()
	split, _, err := graph.SplitBackward(baseSchedule(t, pipeline.Scheme1F1B),
		graph.Options{Estimator: cost.Uniform(4, 1, 2, 0.25)})
	if err != nil {
		t.Fatal(err)
	}
	if split.CountKind(-1, pipeline.BackwardInput) == 0 {
		t.Fatal("SplitBackward did not split this pipeline")
	}
	return split
}

// TestSplitBackwardBitIdentical is the semantic acceptance check of the
// zero-bubble family: training under split-backward schedules (ZB-H1 and the
// SplitBackward-rewritten 1F1B) produces bit-identical per-iteration losses
// — and bit-identical weights — to fused-backward 1F1B, because every nn
// layer's fused Backward IS BackwardInput composed with its weight work and
// the weight halves replay in the same per-parameter order.
func TestSplitBackwardBitIdentical(t *testing.T) {
	const iters = 4
	run := func(s *pipeline.Schedule) (*Trainer, []float64) {
		tr := newTrainer(t)
		losses := make([]float64, iters)
		for it := 0; it < iters; it++ {
			st, err := tr.RunIteration(s)
			if err != nil {
				t.Fatal(err)
			}
			losses[it] = st.Loss
		}
		return tr, losses
	}
	refTr, refLoss := run(baseSchedule(t, pipeline.Scheme1F1B))
	for _, tc := range []struct {
		name  string
		sched *pipeline.Schedule
	}{
		{"zb-h1", baseSchedule(t, pipeline.SchemeZBH1)},
		{"split-1f1b", splitSchedule(t)},
	} {
		tr, losses := run(tc.sched)
		for it := range losses {
			if losses[it] != refLoss[it] {
				t.Errorf("%s: iteration %d loss %v != fused %v", tc.name, it, losses[it], refLoss[it])
			}
		}
		pa, pb := refTr.Params(), tr.Params()
		for st := range pa {
			for i := range pa[st] {
				for j := range pa[st][i].W.Data {
					if pa[st][i].W.Data[j] != pb[st][i].W.Data[j] {
						t.Fatalf("%s: stage %d param %d elem %d: weight %v != fused %v",
							tc.name, st, i, j, pb[st][i].W.Data[j], pa[st][i].W.Data[j])
					}
				}
			}
		}
	}
}

// TestSplitBackwardLanguageModel runs the LM mode (embedding + head, whose
// weight gradients are deferred too) under ZB-H1 and checks bit-identical
// losses against fused 1F1B over several iterations.
func TestSplitBackwardLanguageModel(t *testing.T) {
	lmCfg := config()
	lmCfg.Vocab = 32
	const iters = 3
	run := func(s *pipeline.Schedule) []float64 {
		tr, err := New(lmCfg)
		if err != nil {
			t.Fatal(err)
		}
		losses := make([]float64, iters)
		for it := 0; it < iters; it++ {
			st, err := tr.RunIteration(s)
			if err != nil {
				t.Fatal(err)
			}
			losses[it] = st.Loss
		}
		return losses
	}
	ref := run(baseSchedule(t, pipeline.Scheme1F1B))
	got := run(baseSchedule(t, pipeline.SchemeZBH1))
	for it := range ref {
		if got[it] != ref[it] {
			t.Errorf("iteration %d: ZB-H1 LM loss %v != fused %v", it, got[it], ref[it])
		}
	}
}

// TestDualPipeDExecutes: the bidirectional split-backward schedule trains
// for real — two weight replicas fed from both pipeline ends, deferred
// weight work on every stage — with per-micro losses identical to 1F1B and
// replica weights converged after the merge + step.
func TestDualPipeDExecutes(t *testing.T) {
	ref := newTrainer(t)
	refStats, err := ref.RunIteration(baseSchedule(t, pipeline.Scheme1F1B))
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrainer(t)
	dp, err := scheme.Build(pipeline.SchemeDualPipeD, scheme.Config{Devices: 4, Micros: 8})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tr.RunIteration(dp)
	if err != nil {
		t.Fatal(err)
	}
	for m := range refStats.MicroLosses {
		if st.MicroLosses[m] != refStats.MicroLosses[m] {
			t.Errorf("micro %d: DualPipe-D loss %v != 1F1B loss %v", m, st.MicroLosses[m], refStats.MicroLosses[m])
		}
	}
	pa, pb := ref.Params(), tr.Params()
	for stg := range pa {
		for i := range pa[stg] {
			for j := range pa[stg][i].W.Data {
				diff := math.Abs(float64(pa[stg][i].W.Data[j]) - float64(pb[stg][i].W.Data[j]))
				if diff > 1e-6 {
					t.Fatalf("stage %d param %d elem %d: weights diverge by %v", stg, i, j, diff)
				}
			}
		}
	}
}

// TestSplitBackwardCheckpointed: ZB-H1 survives the full Mario pass pipeline
// (checkpointing inserts the Recompute before the BI half) and still trains
// with the fused-identical loss.
func TestSplitBackwardCheckpointed(t *testing.T) {
	s := baseSchedule(t, pipeline.SchemeZBH1)
	opt, _, err := graph.Optimize(s, graph.Options{Estimator: cost.Uniform(4, 1, 2, 0.25)})
	if err != nil {
		t.Fatal(err)
	}
	ref := newTrainer(t)
	refStats, err := ref.RunIteration(baseSchedule(t, pipeline.Scheme1F1B))
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrainer(t)
	st, err := tr.RunIteration(opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Loss != refStats.Loss {
		t.Errorf("checkpointed ZB-H1 loss %v != fused 1F1B %v", st.Loss, refStats.Loss)
	}
}

// TestChimeraLossMatches1F1B: the bidirectional schedule — two weight
// replicas, gradient merge at the AllReduce barrier — produces the same
// per-micro losses as linear 1F1B, and after the optimizer step the two
// replicas hold identical weights.
func TestChimeraLossMatches1F1B(t *testing.T) {
	ref := newTrainer(t)
	refStats, err := ref.RunIteration(baseSchedule(t, pipeline.Scheme1F1B))
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrainer(t)
	chim, err := scheme.Build(pipeline.SchemeChimera, scheme.Config{Devices: 4, Micros: 8})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tr.RunIteration(chim)
	if err != nil {
		t.Fatal(err)
	}
	for m := range refStats.MicroLosses {
		if st.MicroLosses[m] != refStats.MicroLosses[m] {
			t.Errorf("micro %d: chimera loss %v != 1F1B loss %v", m, st.MicroLosses[m], refStats.MicroLosses[m])
		}
	}
	// Weight updates match up to float64 accumulation order.
	pa, pb := ref.Params(), tr.Params()
	for stg := range pa {
		for i := range pa[stg] {
			for j := range pa[stg][i].W.Data {
				diff := math.Abs(float64(pa[stg][i].W.Data[j]) - float64(pb[stg][i].W.Data[j]))
				if diff > 1e-6 {
					t.Fatalf("stage %d param %d elem %d: weights diverge by %v", stg, i, j, diff)
				}
			}
		}
	}
}

// TestChimeraCheckpointedRuns: the Mario-optimized Chimera schedule executes
// with identical losses and reduced memory.
func TestChimeraCheckpointedRuns(t *testing.T) {
	chim, err := scheme.Build(pipeline.SchemeChimera, scheme.Config{Devices: 4, Micros: 8})
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := graph.Optimize(chim, graph.Options{Estimator: cost.Uniform(4, 1, 2, 0.25)})
	if err != nil {
		t.Fatal(err)
	}
	base := newTrainer(t)
	baseStats, err := base.RunIteration(chim)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTrainer(t)
	st, err := tr.RunIteration(opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Loss != baseStats.Loss {
		t.Errorf("checkpointed chimera loss %v != base %v", st.Loss, baseStats.Loss)
	}
}

// TestInterleaveLossMatches1F1B: the interleaved schedule (two chunks per
// device) trains the same 8-stage model as an 8-device 1F1B pipeline and
// produces identical per-micro losses.
func TestInterleaveLossMatches1F1B(t *testing.T) {
	const stages, micros = 8, 8
	refCfg := config()
	refCfg.Devices = stages
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	linear, err := scheme.Build(pipeline.Scheme1F1B, scheme.Config{Devices: stages, Micros: micros})
	if err != nil {
		t.Fatal(err)
	}
	refStats, err := ref.RunIteration(linear)
	if err != nil {
		t.Fatal(err)
	}

	ilCfg := config() // 4 devices
	tr, err := New(ilCfg)
	if err != nil {
		t.Fatal(err)
	}
	il, err := scheme.Build(pipeline.SchemeInterleave, scheme.Config{Devices: 4, Micros: micros, Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := tr.RunIteration(il)
	if err != nil {
		t.Fatal(err)
	}
	for m := range refStats.MicroLosses {
		if st.MicroLosses[m] != refStats.MicroLosses[m] {
			t.Errorf("micro %d: interleave loss %v != 1F1B loss %v", m, st.MicroLosses[m], refStats.MicroLosses[m])
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

// TestLanguageModelMode: the trainer runs GPT-style next-token training
// through the pipeline — losses are identical across 1F1B, Chimera and the
// Mario-optimized schedule, start near the uniform ln(V) baseline, and fall
// with training.
func TestLanguageModelMode(t *testing.T) {
	lmCfg := config()
	lmCfg.Vocab = 32
	mk := func() *Trainer {
		tr, err := New(lmCfg)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	var ref []float64
	for _, tc := range []struct {
		name  string
		sched *pipeline.Schedule
	}{
		{"1f1b", baseSchedule(t, pipeline.Scheme1F1B)},
		{"mario", marioSchedule(t)},
		{"chimera", func() *pipeline.Schedule {
			s, err := scheme.Build(pipeline.SchemeChimera, scheme.Config{Devices: 4, Micros: 8})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}()},
	} {
		tr := mk()
		st, err := tr.RunIteration(tc.sched)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		perToken := st.Loss / float64(lmCfg.Micros)
		base := math.Log(float64(lmCfg.Vocab))
		if perToken < base*0.5 || perToken > base*1.5 {
			t.Errorf("%s: per-micro CE loss %v far from uniform baseline %v", tc.name, perToken, base)
		}
		if ref == nil {
			ref = st.MicroLosses
			continue
		}
		for m := range ref {
			if st.MicroLosses[m] != ref[m] {
				t.Errorf("%s: micro %d loss %v differs from reference %v", tc.name, m, st.MicroLosses[m], ref[m])
			}
		}
	}
}

// TestLanguageModelTrains: cross-entropy falls over iterations under the
// Mario schedule (the pipeline LM memorises its fixed synthetic stream).
func TestLanguageModelTrains(t *testing.T) {
	lmCfg := config()
	lmCfg.Vocab = 16
	lmCfg.LR = 5e-2
	tr, err := New(lmCfg)
	if err != nil {
		t.Fatal(err)
	}
	s := marioSchedule(t)
	var first, last float64
	for it := 0; it < 12; it++ {
		st, err := tr.RunIteration(s)
		if err != nil {
			t.Fatal(err)
		}
		if it == 0 {
			first = st.Loss
		}
		last = st.Loss
	}
	if last >= first*0.95 {
		t.Errorf("LM loss did not fall: first %v, last %v", first, last)
	}
	t.Logf("pipeline LM loss %v -> %v over 12 iterations", first, last)
}

// TestStallDetection: a corrupted schedule whose receive can never be
// satisfied trips the shared device runtime's watchdog with
// cluster.ErrDeadlock, naming the stuck receive and its link, instead of
// hanging the iteration forever.
func TestStallDetection(t *testing.T) {
	s := baseSchedule(t, pipeline.Scheme1F1B)
	// Move device 0's first RecvGrad to the very front: device 0 blocks on a
	// gradient that transitively needs activations device 0 has not sent — a
	// genuine cyclic wait across the links.
	list := s.Lists[0]
	for i, in := range list {
		if in.Kind == pipeline.RecvGrad {
			rg := in
			copy(list[1:i+1], list[:i])
			list[0] = rg
			break
		}
	}
	cfg := config()
	cfg.Watchdog = 300 * time.Millisecond
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = tr.RunIteration(s)
	if !errors.Is(err, cluster.ErrDeadlock) {
		t.Fatalf("err = %v, want cluster.ErrDeadlock", err)
	}
	for _, want := range []string{"dev0 blocked on recv RG0^0", "link 1->0[grad]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock error missing %q:\n%v", want, err)
		}
	}
}

// TestProgressingIterationCompletes: the watchdog bounds a stretch without
// progress, not an iteration. An iteration many watchdog intervals long
// completes, with the losses of a run under the default watchdog, because its
// devices keep executing instructions.
func TestProgressingIterationCompletes(t *testing.T) {
	cfg := config()
	cfg.Dim, cfg.SeqLen, cfg.BlocksPerStage = 64, 32, 2
	s := marioSchedule(t)
	run := func(watchdog time.Duration) (*Stats, time.Duration) {
		t.Helper()
		cfg.Watchdog = watchdog
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		st, err := tr.RunIteration(s)
		if err != nil {
			t.Fatalf("watchdog %v: %v", watchdog, err)
		}
		return st, time.Since(start)
	}
	ref, _ := run(0)
	const watchdog = time.Millisecond
	st, took := run(watchdog)
	if took < 5*watchdog {
		t.Fatalf("the iteration took %v, not several %v watchdog intervals: the test needs a bigger model", took, watchdog)
	}
	for m := range ref.MicroLosses {
		if st.MicroLosses[m] != ref.MicroLosses[m] {
			t.Errorf("micro %d: loss %v, default-watchdog run %v", m, st.MicroLosses[m], ref.MicroLosses[m])
		}
	}
}

// TestMismatchedDeliveryDetected: swapping two sends on one link is caught
// as a key mismatch by the receiver, not silently mis-trained.
func TestMismatchedDeliveryDetected(t *testing.T) {
	s := baseSchedule(t, pipeline.SchemeGPipe)
	var saIdx []int
	for i, in := range s.Lists[0] {
		if in.Kind == pipeline.SendAct {
			saIdx = append(saIdx, i)
		}
	}
	if len(saIdx) < 2 {
		t.Fatal("need two sends")
	}
	l := s.Lists[0]
	l[saIdx[0]].Micro, l[saIdx[1]].Micro = l[saIdx[1]].Micro, l[saIdx[0]].Micro
	cfg := config()
	cfg.Watchdog = 2 * time.Second
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RunIteration(s); err == nil {
		t.Fatal("mismatched delivery accepted")
	}
}
