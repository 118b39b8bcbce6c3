package scheme

import (
	"sync"
	"testing"

	"mario/internal/pipeline"
)

// TestSplitSchemesValidate: the split-backward schemes' parity constraints.
// ZB-H1 has none and builds a valid odd shape (mustBuild validates, so the
// split coverage invariant — one BI+WG pair per micro and stage — holds);
// DualPipe-D rejects odd shapes. TestAllSchemesValidate covers the even grid.
func TestSplitSchemesValidate(t *testing.T) {
	mustBuild(t, pipeline.SchemeZBH1, Config{Devices: 3, Micros: 5})
	if _, err := Build(pipeline.SchemeDualPipeD, Config{Devices: 3, Micros: 8}); err == nil {
		t.Error("DualPipe-D should reject odd device counts")
	}
	if _, err := Build(pipeline.SchemeDualPipeD, Config{Devices: 4, Micros: 7}); err == nil {
		t.Error("DualPipe-D should reject odd micro counts")
	}
}

// TestSplitSchemeCounts: split schemes carry exactly N forwards and N BI/WG
// pairs per stage and no fused backwards.
func TestSplitSchemeCounts(t *testing.T) {
	for _, sch := range []pipeline.Scheme{pipeline.SchemeZBH1, pipeline.SchemeDualPipeD} {
		s := mustBuild(t, sch, Config{Devices: 4, Micros: 8})
		stages := s.NumStages()
		if got := s.CountKind(-1, pipeline.Forward); got != 8*stages {
			t.Errorf("%s: %d forwards, want %d", sch, got, 8*stages)
		}
		if got := s.CountKind(-1, pipeline.Backward); got != 0 {
			t.Errorf("%s: %d fused backwards, want 0", sch, got)
		}
		if got := s.CountKind(-1, pipeline.BackwardInput); got != 8*stages {
			t.Errorf("%s: %d BI, want %d", sch, got, 8*stages)
		}
		if got := s.CountKind(-1, pipeline.BackwardWeight); got != 8*stages {
			t.Errorf("%s: %d WG, want %d", sch, got, 8*stages)
		}
	}
}

// TestZBH1WarmupMatches1F1B: ZB-H1 keeps 1F1B's memory discipline — the peak
// number of micro-batches whose activations are live on device d (forward
// done, input-gradient half not yet) is min(N, D-d), exactly the 1F1B bound.
func TestZBH1WarmupMatches1F1B(t *testing.T) {
	const d, n = 8, 16
	s := mustBuild(t, pipeline.SchemeZBH1, Config{Devices: d, Micros: n})
	for dev, list := range s.Lists {
		cur, peak := 0, 0
		for _, in := range list {
			switch in.Kind {
			case pipeline.Forward:
				cur++
				if cur > peak {
					peak = cur
				}
			case pipeline.BackwardInput:
				cur--
			}
		}
		want := d - dev
		if want > n {
			want = n
		}
		if peak != want {
			t.Errorf("dev%d: peak on-the-fly micros = %d, want %d", dev, peak, want)
		}
	}
}

// TestZBH1SinksWeightGrads: on the first device, at least one weight-gradient
// unit runs before the last forward — the scheduler fills former 1F1B
// bubbles with deferred W work instead of queueing all of it behind the
// drain.
func TestZBH1SinksWeightGrads(t *testing.T) {
	s := mustBuild(t, pipeline.SchemeZBH1, Config{Devices: 4, Micros: 8})
	list := s.Lists[0]
	lastFW := -1
	for i, in := range list {
		if in.Kind == pipeline.Forward {
			lastFW = i
		}
	}
	sunk := false
	for i, in := range list {
		if in.Kind == pipeline.BackwardWeight && i < lastFW {
			sunk = true
		}
	}
	if !sunk {
		t.Error("ZB-H1 dev0: no weight-gradient unit scheduled before the last forward")
	}
}

// TestDualPipeDBidirectional: both directions appear, the first half of the
// micro-batches enters at device 0 (part 0) and the second half at device
// D-1 (part 1), and each device holds two stages' weights.
func TestDualPipeDBidirectional(t *testing.T) {
	const d, n = 4, 8
	s := mustBuild(t, pipeline.SchemeDualPipeD, Config{Devices: d, Micros: n})
	if s.Placement.WeightReplicas() != 2 {
		t.Error("DualPipe-D placement should report 2 weight replicas")
	}
	partOf := make(map[int]int)
	for _, list := range s.Lists {
		for _, in := range list {
			if in.Kind == pipeline.Forward {
				partOf[int(in.Micro)] = int(in.Part)
			}
		}
	}
	for m := 0; m < n; m++ {
		want := 0
		if m >= n/2 {
			want = 1
		}
		if partOf[m] != want {
			t.Errorf("micro %d in part %d, want %d", m, partOf[m], want)
		}
	}
	// Both streams start immediately: the first instruction of device 0 and
	// of device D-1 is a forward of the respective stream's first micro.
	if in := s.Lists[0][0]; in.Kind != pipeline.Forward || in.Part != 0 {
		t.Errorf("dev0 starts with %v, want a part-0 forward", in)
	}
	if in := s.Lists[d-1][0]; in.Kind != pipeline.Forward || in.Part != 1 {
		t.Errorf("dev%d starts with %v, want a part-1 forward", d-1, in)
	}
}

// TestWeightGradAfterInputGrad: on every device list of every split scheme,
// each WG appears after its matching BI (Validate checks this too; asserted
// directly so the property is pinned independent of Validate's evolution).
func TestWeightGradAfterInputGrad(t *testing.T) {
	for _, sch := range []pipeline.Scheme{pipeline.SchemeZBH1, pipeline.SchemeDualPipeD} {
		s := mustBuild(t, sch, Config{Devices: 4, Micros: 8})
		for dev, list := range s.Lists {
			pos := map[pipeline.Key]int{}
			for i, in := range list {
				pos[in.Key()] = i
			}
			for _, in := range list {
				if in.Kind != pipeline.BackwardWeight {
					continue
				}
				bi := pipeline.Key{Kind: pipeline.BackwardInput, Micro: int(in.Micro), Part: int(in.Part), Stage: int(in.Stage)}
				j, ok := pos[bi]
				if !ok || j > pos[in.Key()] {
					t.Errorf("%s dev%d: %v not preceded by its BI", sch, dev, in)
				}
			}
		}
	}
}

// TestSchemeBuildDeterministic builds every registered scheme concurrently
// from worker pools of 1 and 4 goroutines and requires byte-identical
// schedules across all workers and pool sizes — the generator path must be
// free of map-iteration-order and data-race nondeterminism (run under -race
// by `make race`).
func TestSchemeBuildDeterministic(t *testing.T) {
	cfg := Config{Devices: 4, Micros: 8}
	baseline := map[pipeline.Scheme]string{}
	for _, sch := range Schemes() {
		baseline[sch] = mustBuild(t, sch, cfg).String()
	}
	for _, workers := range []int{1, 4} {
		for _, sch := range Schemes() {
			got := make([]string, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s, err := Build(sch, cfg)
					if err != nil {
						t.Errorf("workers=%d %s: %v", workers, sch, err)
						return
					}
					got[w] = s.String()
				}(w)
			}
			wg.Wait()
			for w := 0; w < workers; w++ {
				if got[w] != baseline[sch] {
					t.Errorf("workers=%d %s: worker %d built a different schedule", workers, sch, w)
				}
			}
		}
	}
}
