package tuner

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mario/internal/cost"
	"mario/internal/telemetry"
)

func testSpace() Space {
	return Space{
		Devices:      8,
		GlobalBatch:  32,
		MicroBatches: []int{1, 2},
		DeviceMem:    cost.A100_40G.MemBytes,
		MaxRounds:    3,
	}
}

// A completed SearchContext must be byte-identical to Search, for every
// worker count (the planning service's cache depends on it).
func TestSearchContextMatchesSearch(t *testing.T) {
	ref := seqTuner()
	best, trace, err := ref.Search(testSpace())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		tn := newTuner()
		tn.Workers = workers
		b, tr, err := tn.SearchContext(context.Background(), testSpace())
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
		tn.Workers = workers
		best, trace, err := tn.SearchContext(ctx, testSpace())
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
// subsequent SearchContext on the same Tuner still completes correctly —
// nothing a cancelled search computed carries over into the next. Inline
// or pooled, the registry series of the cancelled search equal the Stats it
// published: what a search merged before it stopped is accounted for once, in
// both places.
func TestSearchContextMidFlightCancelAndRetry(t *testing.T) {
	ref := seqTuner()
	refBest, refTrace, err := ref.Search(testSpace())
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		tn := newTuner()
		tn.Workers = workers
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
		_, _, err = tn.SearchContext(ctx, testSpace())
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: mid-flight cancel: err = %v, want context.Canceled", workers, err)
		}
		checkRegistryMatchesStats(t, tn)

		tn.Progress = nil
		tn.Metrics = telemetry.NewSearchMetrics(telemetry.NewRegistry())
		best, trace, err := tn.SearchContext(context.Background(), testSpace())
		if err != nil {
			t.Fatalf("workers=%d: retry after cancel: %v", workers, err)
		}
		if best.Label() != refBest.Label() || best.Throughput != refBest.Throughput {
			t.Errorf("workers=%d: retry best %s (%v) != reference %s (%v)", workers, best.Label(), best.Throughput, refBest.Label(), refBest.Throughput)
		}
		if len(trace) != len(refTrace) {
			t.Errorf("workers=%d: retry trace length %d != %d", workers, len(trace), len(refTrace))
		}
		checkRegistryMatchesStats(t, tn)
	}
}
