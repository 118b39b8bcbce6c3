package tuner

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mario/internal/cost"
	"mario/internal/telemetry"
)

func testSpace(workers int) Space {
	return Space{
		Devices:      8,
		GlobalBatch:  32,
		MicroBatches: []int{1, 2},
		DeviceMem:    cost.A100_40G.MemBytes,
		Workers:      workers,
	}
}

// A completed SearchContext must be byte-identical to Search, for every
// worker count (the planning service's cache depends on it).
func TestSearchContextMatchesSearch(t *testing.T) {
	ref := newTuner()
	best, trace, err := ref.Search(testSpace(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		tn := newTuner()
		b, tr, err := tn.SearchContext(context.Background(), testSpace(workers))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(b.Label(), best.Label()) || b.Throughput != best.Throughput {
			t.Errorf("workers=%d: best %s (%v) != reference %s (%v)", workers, b.Label(), b.Throughput, best.Label(), best.Throughput)
		}
		if len(tr) != len(trace) {
			t.Errorf("workers=%d: trace length %d != %d", workers, len(tr), len(trace))
		}
		if tn.Stats != ref.Stats {
			t.Errorf("workers=%d: stats %+v != %+v", workers, tn.Stats, ref.Stats)
		}
	}
}

// An already-cancelled context must abort before any simulation, for both
// the sequential and the parallel driver.
func TestSearchContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		tn := newTuner()
		best, trace, err := tn.SearchContext(ctx, testSpace(workers))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if best != nil || trace != nil {
			t.Fatalf("workers=%d: cancelled search returned best=%v trace len=%d", workers, best, len(trace))
		}
		if tn.Stats.Explored != 0 {
			t.Errorf("workers=%d: pre-cancelled search explored %d points", workers, tn.Stats.Explored)
		}
	}
}

// Cancelling mid-search from a Progress callback aborts promptly and a
// subsequent SearchContext on the same Tuner (shared memo caches) still
// completes correctly — a cancelled compute must not poison the memo. Local
// or fleet, the registry series of the cancelled search equal the snapshots
// it published: what a search merged before it stopped is accounted for once,
// in both places.
func TestSearchContextMidFlightCancelAndRetry(t *testing.T) {
	ref := newTuner()
	refBest, refTrace, err := ref.Search(testSpace(1))
	if err != nil {
		t.Fatal(err)
	}

	for _, fleet := range []bool{false, true} {
		tn := newTuner()
		if fleet {
			tn.Sharder = newHarness(testSpace(4), newTuner, 2, 2, 2)
		}
		tn.Metrics = telemetry.NewSearchMetrics(telemetry.NewRegistry())
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		seen := 0
		tn.Progress = func(c Candidate, best Candidate) {
			seen++
			if seen == 2 {
				cancel()
			}
		}
		_, _, err = tn.SearchContext(ctx, testSpace(4))
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fleet=%v: mid-flight cancel: err = %v, want context.Canceled", fleet, err)
		}
		if fleet && tn.FleetSnapshot().Waves == 0 {
			t.Errorf("cancelled fleet search published no fleet counters")
		}
		checkRegistryMatchesSnapshots(t, tn)

		tn.Progress = nil
		tn.Metrics = telemetry.NewSearchMetrics(telemetry.NewRegistry())
		best, trace, err := tn.SearchContext(context.Background(), testSpace(4))
		if err != nil {
			t.Fatalf("fleet=%v: retry after cancel: %v", fleet, err)
		}
		if best.Label() != refBest.Label() || best.Throughput != refBest.Throughput {
			t.Errorf("fleet=%v: retry best %s (%v) != reference %s (%v)", fleet, best.Label(), best.Throughput, refBest.Label(), refBest.Throughput)
		}
		if len(trace) != len(refTrace) {
			t.Errorf("fleet=%v: retry trace length %d != %d", fleet, len(trace), len(refTrace))
		}
		checkRegistryMatchesSnapshots(t, tn)
	}
}

// RobustnessContext with a cancelled context aborts instead of returning a
// partial report.
func TestRobustnessContextCancelled(t *testing.T) {
	tn := newTuner()
	_, trace, err := tn.Search(testSpace(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RobustnessContext(ctx, tn.Prof, trace, RobustnessOpts{TopK: 2, Iters: 1, Recipe: tn.recipe(testSpace(1).WithDefaults())})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("cancelled robustness returned a report")
	}
}
