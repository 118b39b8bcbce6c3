package graph

import (
	"testing"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/sim"
)

// TestSplitBackwardStructure: after the split, every micro has a BI+WG pair
// per stage, SendGrads follow the input half, and the schedule validates.
func TestSplitBackwardStructure(t *testing.T) {
	const d, n = 4, 4
	s := build1f1b(t, d, n)
	e := cost.Uniform(d, 1, 2, 0.25)
	split, _, err := SplitBackward(s, Options{Estimator: e})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.Validate(split); err != nil {
		t.Fatalf("split schedule invalid: %v", err)
	}
	if got := split.CountKind(-1, pipeline.Backward); got != 0 {
		t.Errorf("%d whole backwards remain", got)
	}
	if got, want := split.CountKind(-1, pipeline.BackwardInput), d*n; got != want {
		t.Errorf("BI count = %d, want %d", got, want)
	}
	if got, want := split.CountKind(-1, pipeline.BackwardWeight), d*n; got != want {
		t.Errorf("WG count = %d, want %d", got, want)
	}
	// Gradient sends must come before the corresponding weight half on each
	// device (SG anchored to BI, not WG).
	for dev, list := range split.Lists {
		pos := map[pipeline.Key]int{}
		for i, in := range list {
			pos[in.Key()] = i
		}
		for _, in := range list {
			if in.Kind != pipeline.SendGrad {
				continue
			}
			wg := pipeline.Key{Kind: pipeline.BackwardWeight, Micro: int(in.Micro), Part: int(in.Part), Stage: int(in.Stage)}
			if j, ok := pos[wg]; ok && j < pos[in.Key()] {
				t.Errorf("dev%d: %s after its weight half", dev, in)
			}
		}
	}
}

// TestSplitBackwardReducesMakespan: with F=1, B=2 split evenly, the ZB-H1
// transformation shortens the 1F1B iteration (upstream backwards unblock a
// full B/2 earlier per stage).
func TestSplitBackwardReducesMakespan(t *testing.T) {
	const d, n = 4, 4
	s := build1f1b(t, d, n)
	e := cost.Uniform(d, 1, 2, 0.25)
	base := mustSim(t, s, e)
	_, res, err := SplitBackward(s, Options{Estimator: e})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total >= base.Total {
		t.Errorf("split backward did not help: %v vs baseline %v", res.Total, base.Total)
	}
	t.Logf("baseline %vt, ZB-H1 split %vt", base.Total, res.Total)
}

// TestSplitBackwardMemoryTradeoff: sinking the weight halves delays the
// activation release, so peak memory must not drop and typically rises —
// the "trade off memory efficiency for reduced bubbles" of §1.
func TestSplitBackwardMemoryTradeoff(t *testing.T) {
	const d, n = 4, 8
	s := build1f1b(t, d, n)
	e := cost.Uniform(d, 1, 2, 0.25)
	base := mustSim(t, s, e)
	split, res, err := SplitBackward(s, Options{Estimator: e})
	if err != nil {
		t.Fatal(err)
	}
	_ = split
	for dev := range res.PeakMem {
		if res.PeakMem[dev] < base.PeakMem[dev]-1e-9 {
			t.Errorf("dev%d: split peak %v below baseline %v", dev, res.PeakMem[dev], base.PeakMem[dev])
		}
	}
}

// TestSplitBackwardRespectsMemLimit: with a tight budget, sinking that would
// OOM is rejected and the result stays within the limit.
func TestSplitBackwardRespectsMemLimit(t *testing.T) {
	const d, n = 4, 8
	s := build1f1b(t, d, n)
	e := cost.Uniform(d, 1, 2, 0.25)
	base := mustSim(t, s, e)
	limit := base.PeakMem[0] // no headroom on the hottest device
	_, res, err := SplitBackward(s, Options{Estimator: e, Sim: sim.Options{MemLimit: limit}})
	if err != nil {
		t.Fatal(err)
	}
	if res.OOM {
		t.Errorf("split schedule exceeds the memory limit: %v > %v", res.PeakMem, limit)
	}
}

// TestSplitBackwardComposesWithCheckpoint: the split applies on top of the
// Mario-optimized checkpointed schedule and still validates.
func TestSplitBackwardComposesWithCheckpoint(t *testing.T) {
	const d, n = 4, 4
	s := build1f1b(t, d, n)
	e := cost.Uniform(d, 1, 2, 0.25)
	opt, optRes, err := Optimize(s, Options{Estimator: e})
	if err != nil {
		t.Fatal(err)
	}
	split, res, err := SplitBackward(opt, Options{Estimator: e})
	if err != nil {
		t.Fatal(err)
	}
	if err := pipeline.Validate(split); err != nil {
		t.Fatalf("composed schedule invalid: %v", err)
	}
	if res.Total > optRes.Total+1e-9 {
		t.Errorf("composition regressed: %v vs %v", res.Total, optRes.Total)
	}
	t.Logf("ckpt-optimized %vt, +split backward %vt", optRes.Total, res.Total)
}
