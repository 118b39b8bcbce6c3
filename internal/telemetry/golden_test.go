package telemetry

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// goldenTrace builds one representative search trace on a fake clock: a
// root optimize span, a search with its probe pass, three points (explored
// with a build, graph rounds + sim; a reused build and a sim; bound-pruned
// after a speculative evaluation) and a sim directly under the search, which
// sorts after the points and the probe pass. Every export format renders from
// this one tree so the goldens stay mutually consistent.
func goldenTrace() *Trace {
	tr := New("deadbeefdeadbeefdeadbeefdeadbeef")
	tr.Clock = fakeClock(time.Millisecond)

	root := tr.Root(PhaseOptimize, "")
	root.SetStr("model", "demo")
	search := root.Child(PhaseSearch, "")
	search.SetInt("points", 3)

	// The probe pass: every point bounded and ordered before any is evaluated.
	probe := search.Child(PhaseBound, "")
	probe.SetInt("nodes", 3)
	probe.End()

	// Point 0: fully evaluated — the schedule build, graph rounds and a
	// simulation.
	p0 := tr.Detached(PhasePoint, "0000 X-4-2(mario)")
	b0 := p0.Child(PhaseBuild, "")
	b0.SetInt("stages", 4)
	b0.End()
	g0 := p0.Child(PhaseGraph, "")
	r0 := g0.Child(PhaseRound, "01")
	r0.Child(PhaseSim, "").End()
	r0.End()
	r1 := g0.Child(PhaseRound, "02")
	r1.Child(PhaseSim, "").End()
	r1.End()
	g0.End()
	s0 := p0.Child(PhaseSim, "")
	s0.SetFloat("throughput", 12.5)
	s0.End()
	p0.SetBool("improved", true)
	p0.End()
	p0.AttachTo(search)

	// Point 1: the same build, reused, then a simulation.
	p1 := tr.Detached(PhasePoint, "0001 X-4-2(base)")
	b1 := p1.Child(PhaseBuild, "")
	b1.End()
	p1.Child(PhaseSim, "").End()
	p1.End()
	p1.AttachTo(search)

	// Point 2: rejected by the admissible bound. A worker evaluated it
	// speculatively; the merge drops that evaluation whole and synthesizes
	// the prune span.
	p2 := tr.Detached(PhasePoint, "0002 X-8-1(base)")
	p2.Child(PhaseBuild, "").End()
	p2.Child(PhaseSim, "").End()
	p2.End()
	p2.Discard()
	s2 := tr.Detached(PhasePoint, "0002 X-8-1(base)")
	s2.SetStr("result", "bound_pruned")
	s2.SetFloat("ub", 11.5)
	s2.End()
	s2.AttachTo(search)

	// A simulation directly under the search.
	search.Child(PhaseSim, "").End()
	search.End()
	root.End()

	return tr.Snapshot()
}

// goldenRegistry populates the full search + latency series with fixed
// values matching the goldenTrace storyline.
func goldenRegistry() *Registry {
	r := NewRegistry()
	m := NewSearchMetrics(r)
	m.Searches.Inc()
	m.PointsExplored.Add(2)
	m.PointsBoundPruned.Inc()
	m.PointsMemPruned.Inc()
	m.PointsImproved.Inc()
	m.BuildMisses.Add(3)
	m.AddSims(7)
	m.AddGraphRounds(2)
	m.AddScanCandidates(5, 1, 2)
	m.SearchSeconds.observe(0.042)
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (regenerate with go test ./internal/telemetry -run TestGolden -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden; inspect and regenerate with -update.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGoldenExports pins every render of the canonical trace this package
// owns — JSONL, tree, phase summary — and the Prometheus exposition of a
// populated registry, byte for byte. Its Chrome traces are internal/viz's;
// TestGoldenSpanChrome pins them.
func TestGoldenExports(t *testing.T) {
	snap := goldenTrace()
	checkGolden(t, "trace_jsonl", snap.JSONL())
	checkGolden(t, "trace_tree", []byte(snap.Tree()))

	var sum bytes.Buffer
	for _, row := range snap.PhaseSummary() {
		fmt.Fprintf(&sum, "%-12s spans=%d self=%s\n", row.Phase, row.Count, row.Self)
	}
	checkGolden(t, "trace_summary", sum.Bytes())

	var prom bytes.Buffer
	goldenRegistry().WriteProm(&prom)
	checkGolden(t, "metrics_prom", prom.Bytes())
}
