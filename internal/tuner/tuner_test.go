package tuner

import (
	"math"
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/profile"
)

func newTuner() *Tuner {
	return &Tuner{
		Prof: &profile.Profiler{
			Model:   cost.LLaMA2_3B,
			HW:      cost.A100_40G,
			Spec:    profile.DefaultMachine,
			Devices: 4,
			Iters:   4,
		},
	}
}

// seqTuner is newTuner searching inline, with no worker goroutines.
func seqTuner() *Tuner {
	tn := newTuner()
	tn.Workers = 1
	return tn
}

func TestSearchFindsFeasibleBest(t *testing.T) {
	tn := newTuner()
	best, trace, err := tn.Search(Space{
		Devices:      8,
		GlobalBatch:  32,
		MicroBatches: []int{1, 2},
		DeviceMem:    cost.A100_40G.MemBytes,
		MaxRounds:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Throughput <= 0 {
		t.Fatalf("best candidate has throughput %v", best.Throughput)
	}
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	for _, c := range trace {
		if c.Throughput > best.Throughput {
			t.Errorf("trace candidate %s (%v) beats reported best %s (%v)", c.Label(), c.Throughput, best.Label(), best.Throughput)
		}
		if c.PP*c.DP != 8 {
			t.Errorf("%s: pp*dp = %d, want 8", c.Label(), c.PP*c.DP)
		}
		if c.Micros*c.MicroBatch*c.DP != 32 {
			t.Errorf("%s: micros*mbs*dp = %d, want global batch 32", c.Label(), c.Micros*c.MicroBatch*c.DP)
		}
	}
}

// TestCheckpointExtendsFeasibility: with a tight memory budget, only
// checkpointed (Mario) configurations survive; without checkpointing the
// imbalanced activation memory blows the budget.
func TestCheckpointExtendsFeasibility(t *testing.T) {
	tn := newTuner()
	// A budget chosen so the 1F1B base config OOMs on device 0 but the
	// checkpointed one fits.
	est, err := tn.Prof.EstimatorFor(8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	budget := est.FrameworkMem + est.WeightBytes[0] + 4*est.ActFull[0]
	best, trace, err := tn.Search(Space{
		Devices:      8,
		GlobalBatch:  32,
		MicroBatches: []int{2},
		MinPP:        8,
		Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B},
		DeviceMem:    budget,
		MaxRounds:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !best.Ckpt {
		t.Errorf("best under tight memory should be checkpointed, got %s", best.Label())
	}
	sawBaseOOM := false
	for _, c := range trace {
		if !c.Ckpt && c.OOM {
			sawBaseOOM = true
			if c.Throughput != 0 {
				t.Errorf("OOM candidate %s has non-zero throughput %v", c.Label(), c.Throughput)
			}
		}
	}
	if !sawBaseOOM {
		t.Error("expected the base configuration to hit the OOM penalty")
	}
}

func TestDPEfficiency(t *testing.T) {
	if got := dpEff(0.9, 1); got != 1 {
		t.Errorf("dpEff(0.9, 1) = %v", got)
	}
	if got := dpEff(0.9, 2); got != 0.9 {
		t.Errorf("dpEff(0.9, 2) = %v", got)
	}
	if got, want := dpEff(0.9, 4), 0.81; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("dpEff(0.9, 4) = %v, want %v", got, want)
	}
	if got := dpEff(dpEfficiency, 2); got != 0.97 {
		t.Errorf("the search's per-doubling efficiency is %v, want the paper's 0.97", got)
	}
}

// TestSpaceWithDefaults pins the defaulting rules of the search space,
// including the clamps around small clusters.
func TestSpaceWithDefaults(t *testing.T) {
	cases := []struct {
		name string
		in   Space
		want func(t *testing.T, s Space)
	}{
		{
			name: "zero value fills the paper grid",
			in:   Space{Devices: 8},
			want: func(t *testing.T, s Space) {
				if len(s.Schemes) != 3 || s.Schemes[0] != pipeline.Scheme1F1B {
					t.Errorf("Schemes = %v", s.Schemes)
				}
				if len(s.Checkpoint) != 2 || s.Checkpoint[0] != false || s.Checkpoint[1] != true {
					t.Errorf("Checkpoint = %v", s.Checkpoint)
				}
				if s.MinPP != 4 || s.MaxPP != 8 {
					t.Errorf("PP bounds = [%d, %d], want [4, 8]", s.MinPP, s.MaxPP)
				}
				if len(s.MicroBatches) != 6 || s.MicroBatches[5] != 32 {
					t.Errorf("MicroBatches = %v", s.MicroBatches)
				}
				if s.TP != 1 || s.MaxRounds != 8 || s.SplitBackward {
					t.Errorf("TP = %d, MaxRounds = %d, SplitBackward = %v", s.TP, s.MaxRounds, s.SplitBackward)
				}
			},
		},
		{
			name: "MinPP clamps to small clusters",
			in:   Space{Devices: 2},
			want: func(t *testing.T, s Space) {
				if s.MinPP != 2 || s.MaxPP != 2 {
					t.Errorf("PP bounds = [%d, %d], want [2, 2]", s.MinPP, s.MaxPP)
				}
			},
		},
		{
			name: "MaxPP above the cluster is clamped",
			in:   Space{Devices: 8, MaxPP: 64},
			want: func(t *testing.T, s Space) {
				if s.MaxPP != 8 {
					t.Errorf("MaxPP = %d, want 8", s.MaxPP)
				}
			},
		},
		{
			name: "explicit values survive",
			in: Space{Devices: 16, Schemes: []pipeline.Scheme{pipeline.SchemeGPipe},
				Checkpoint: []bool{true}, MinPP: 2, MaxPP: 4,
				MicroBatches: []int{3}, TP: 2, SplitBackward: true, MaxRounds: 5},
			want: func(t *testing.T, s Space) {
				if len(s.Schemes) != 1 || s.Schemes[0] != pipeline.SchemeGPipe ||
					len(s.Checkpoint) != 1 || !s.Checkpoint[0] ||
					s.MinPP != 2 || s.MaxPP != 4 ||
					len(s.MicroBatches) != 1 || s.MicroBatches[0] != 3 ||
					s.TP != 2 || !s.SplitBackward || s.MaxRounds != 5 {
					t.Errorf("explicit fields rewritten: %+v", s)
				}
			},
		},
		{
			name: "empty non-nil slices are kept empty",
			in:   Space{Devices: 8, MicroBatches: []int{}, Schemes: []pipeline.Scheme{}},
			want: func(t *testing.T, s Space) {
				if len(s.MicroBatches) != 0 || s.MicroBatches == nil {
					t.Errorf("MicroBatches = %v", s.MicroBatches)
				}
				if len(s.Schemes) != 0 || s.Schemes == nil {
					t.Errorf("Schemes = %v", s.Schemes)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.want(t, tc.in.WithDefaults())
		})
	}
}

// TestSearchInfeasibleSpaces walks the "no feasible configuration" error
// path for every structural dead end the space can encode.
func TestSearchInfeasibleSpaces(t *testing.T) {
	cases := []struct {
		name  string
		space Space
	}{
		{"empty MicroBatches slice", Space{Devices: 8, GlobalBatch: 32, MicroBatches: []int{}}},
		{"MinPP above MaxPP", Space{Devices: 8, GlobalBatch: 32, MinPP: 8, MaxPP: 4, MicroBatches: []int{1}}},
		{"no PP divides the cluster", Space{Devices: 8, GlobalBatch: 32, MinPP: 5, MaxPP: 7, MicroBatches: []int{1}}},
		{"micro-batch never divides the batch", Space{Devices: 8, GlobalBatch: 7, MinPP: 8, MicroBatches: []int{16}}},
		{"empty scheme list", Space{Devices: 8, GlobalBatch: 32, Schemes: []pipeline.Scheme{}, MicroBatches: []int{1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tn := newTuner()
			_, _, err := tn.Search(tc.space)
			if err == nil {
				t.Fatal("expected no-feasible-configuration error")
			}
			if tn.Stats.Explored != 0 || tn.Stats.Improved != 0 {
				t.Errorf("infeasible space explored candidates: %+v", tn.Stats)
			}
		})
	}
}

// TestDPEffEdgeCases pins the ends of the scaling curve: perfect efficiency
// and a single replica scale perfectly, anything else applies per doubling.
func TestDPEffEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		eff  float64
		dp   int
		want float64
	}{
		{"exactly one stays perfect", 1, 16, 1},
		{"dp=1 is always perfect", 0.5, 1, 1},
		{"in-range value applies per doubling", 0.9, 4, 0.81},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := dpEff(tc.eff, tc.dp); math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("dpEff(%d) with eff=%v = %v, want %v", tc.dp, tc.eff, got, tc.want)
			}
		})
	}
}

func TestSearchRejectsEmpty(t *testing.T) {
	tn := newTuner()
	if _, _, err := tn.Search(Space{Devices: 0, GlobalBatch: 8}); err == nil {
		t.Error("zero devices accepted")
	}
	// Micro-batch sizes that never divide the global batch leave nothing.
	if _, _, err := tn.Search(Space{Devices: 8, GlobalBatch: 7, MicroBatches: []int{16}, MinPP: 8}); err == nil {
		t.Error("infeasible space should error")
	}
}

func TestRank(t *testing.T) {
	trace := []Candidate{
		{Scheme: pipeline.Scheme1F1B, PP: 4, MicroBatch: 1, Throughput: 5},
		{Scheme: pipeline.Scheme1F1B, PP: 8, MicroBatch: 2, Throughput: 9},
		{Scheme: pipeline.SchemeChimera, PP: 8, MicroBatch: 2, Throughput: 7},
	}
	ranked := Rank(trace)
	if ranked[0].Throughput != 9 || ranked[2].Throughput != 5 {
		t.Errorf("Rank order wrong: %v", ranked)
	}
	if trace[0].Throughput != 5 {
		t.Error("Rank mutated its input")
	}
}

func TestCandidateLabel(t *testing.T) {
	c := Candidate{Scheme: pipeline.SchemeChimera, Ckpt: true, PP: 16, MicroBatch: 4}
	if got, want := c.Label(), "X-16-4(mario)"; got != want {
		t.Errorf("Label = %q, want %q", got, want)
	}
}

// TestSplitBackwardMode: enabling the ZB-H1 extension never lowers the best
// throughput (it is only kept when the simulator confirms a win), and on a
// shape where the native Z/D axis loses it strictly wins with a split winner.
func TestSplitBackwardMode(t *testing.T) {
	space := Space{
		Devices:      8,
		GlobalBatch:  32,
		MicroBatches: []int{2},
		MinPP:        8,
		Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B},
		Checkpoint:   []bool{true},
		DeviceMem:    cost.A100_40G.MemBytes,
		MaxRounds:    3,
	}
	plain := newTuner()
	bestPlain, _, err := plain.Search(space)
	if err != nil {
		t.Fatal(err)
	}
	zb := newTuner()
	space.SplitBackward = true
	bestZB, _, err := zb.Search(space)
	if err != nil {
		t.Fatal(err)
	}
	if bestZB.Throughput < bestPlain.Throughput-1e-9 {
		t.Errorf("split-backward mode regressed: %v vs %v", bestZB.Throughput, bestPlain.Throughput)
	}
	t.Logf("plain %v, with split backward %v", bestPlain.Throughput, bestZB.Throughput)

	// Why the retrofit stays (DESIGN §12): on LLaMA2-3B over 4 devices the
	// default {V, X, W} axis with the retrofit beats the native split axis
	// {V, X, W, Z, D} without it. Its winner is a checkpointed X, and no native
	// scheme splits Chimera's backward.
	llama := Space{Devices: 4, GlobalBatch: 16, DeviceMem: cost.A100_40G.MemBytes, SplitBackward: true, MaxRounds: 3}
	retro := newTuner()
	bestRetro, _, err := retro.Search(llama)
	if err != nil {
		t.Fatal(err)
	}
	llama.SplitBackward = false
	llama.Schemes = []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeChimera, pipeline.SchemeInterleave,
		pipeline.SchemeZBH1, pipeline.SchemeDualPipeD}
	bestNative, _, err := newTuner().Search(llama)
	if err != nil {
		t.Fatal(err)
	}
	if bestRetro.Throughput <= bestNative.Throughput {
		t.Errorf("retrofit best %s %v does not beat the native axis's best %s %v",
			bestRetro.Label(), bestRetro.Throughput, bestNative.Label(), bestNative.Throughput)
	}
	if bestRetro.Schedule.CountKind(-1, pipeline.BackwardInput) == 0 {
		t.Errorf("retrofit winner %s has no split backward", bestRetro.Label())
	}
	t.Logf("retrofit %s %v, native axis %s %v", bestRetro.Label(), bestRetro.Throughput, bestNative.Label(), bestNative.Throughput)
}

// TestZeroBubbleSchemeAxis: ZB-H1 and DualPipe-D work as scheme-axis values
// — they build, validate, pass the graph tuner on checkpointed points and
// simulate to positive throughput — and at a fixed PP the ZB-H1 candidate is
// at least as fast as same-shape 1F1B (the weight halves fill bubbles; the
// bounds stay admissible for the split occupancy, or branch-and-bound would
// disagree with the exhaustive walk, which TestBnBMatchesGridArgmax pins).
func TestZeroBubbleSchemeAxis(t *testing.T) {
	tn := newTuner()
	best, trace, err := tn.Search(Space{
		Devices:      8,
		GlobalBatch:  64,
		Schemes:      []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeZBH1, pipeline.SchemeDualPipeD},
		MicroBatches: []int{1, 2},
		MinPP:        8,
		MaxRounds:    3,
		// No memory cap: DualPipe-D's two weight replicas genuinely exceed
		// 40G at this size, and the point here is schedule quality, not the
		// OOM penalty (other tests pin that).
		NoPrune: true, // full trace: every feasible point simulated
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Throughput <= 0 {
		t.Fatalf("best candidate has throughput %v", best.Throughput)
	}
	byScheme := map[pipeline.Scheme]float64{}
	for _, c := range trace {
		if c.Throughput > byScheme[c.Scheme] {
			byScheme[c.Scheme] = c.Throughput
		}
	}
	for _, sch := range []pipeline.Scheme{pipeline.SchemeZBH1, pipeline.SchemeDualPipeD} {
		if byScheme[sch] <= 0 {
			t.Errorf("%s never reached a positive-throughput candidate", sch)
		}
	}
	if byScheme[pipeline.SchemeZBH1] < byScheme[pipeline.Scheme1F1B] {
		t.Errorf("ZB-H1 best %v below 1F1B best %v", byScheme[pipeline.SchemeZBH1], byScheme[pipeline.Scheme1F1B])
	}
	t.Logf("best per scheme: 1F1B=%v ZB-H1=%v DualPipe-D=%v",
		byScheme[pipeline.Scheme1F1B], byScheme[pipeline.SchemeZBH1], byScheme[pipeline.SchemeDualPipeD])
}

// TestHugeMicroBatchIsIndivisible: a micro-batch size whose product with the
// DP degree wraps int (2^62 × dp 4 wraps to 0) is an indivisible point, not a
// division by zero; the search keeps the sizes that divide the batch.
func TestHugeMicroBatchIsIndivisible(t *testing.T) {
	best, trace, err := newTuner().Search(Space{
		Devices:      8,
		GlobalBatch:  64,
		MinPP:        2,
		MicroBatches: []int{1, 1 << 62},
		DeviceMem:    cost.A100_40G.MemBytes,
		MaxRounds:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range append(trace, *best) {
		if c.MicroBatch != 1 {
			t.Errorf("%s: micro-batch %d explored, want only 1", c.Label(), c.MicroBatch)
		}
	}
}
