package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// fakeClock returns a Tracer clock ticking in fixed steps from a fixed
// epoch, making measured exports deterministic in tests.
func fakeClock(step time.Duration) func() time.Time {
	t := time.Unix(1700000000, 0).UTC()
	return func() time.Time {
		cur := t
		t = t.Add(step)
		return cur
	}
}

// TestDisabledSpansNoOp drives the whole span API through the zero Span
// and a nil Tracer: nothing may panic and nothing may be recorded.
func TestDisabledSpansNoOp(t *testing.T) {
	var sp Span
	child := sp.Child(PhasePoint, "k")
	child.SetStr("a", "b")
	child.SetInt("n", 1)
	child.SetFloat("x", 1.5)
	child.SetBool("ok", true)
	child.Memo("m")
	child.End()
	child.AttachTo(sp)
	child.Discard()
	if sp.Live() || child.Live() {
		t.Error("zero spans report Live")
	}
	if sp.Tracer() != nil {
		t.Error("zero span has a tracer")
	}

	var tr *Tracer
	root := tr.Root(PhaseOptimize, "")
	if root.Live() {
		t.Error("nil tracer produced a live span")
	}
	if snap := tr.Snapshot(); len(snap.Roots) != 0 {
		t.Error("nil tracer snapshot has roots")
	}

	var m *SearchMetrics
	m.AddSims(1)
	m.AddGraphRounds(1)
}

// TestSnapshotDiscard checks the pruning semantics Snapshot applies:
// discarded subtrees vanish — a speculative evaluation the merge replaces with
// a synthesized span of the same key leaves only the latter — and detached
// spans that were never attached are dropped.
func TestSnapshotDiscard(t *testing.T) {
	tr := New("fp")
	tr.Clock = fakeClock(time.Millisecond)
	root := tr.Root(PhaseOptimize, "")
	search := root.Child(PhaseSearch, "")

	// A point whose speculative build/graph work lost to a bound prune: the
	// evaluation is dropped whole and the prune span synthesized.
	p1 := tr.Detached(PhasePoint, "0001")
	p1.Child(PhaseBuild, "").End()
	g1 := p1.Child(PhaseGraph, "")
	g1.Child(PhaseRound, "01").End()
	g1.End()
	p1.End()
	p1.Discard()
	s1 := tr.Detached(PhasePoint, "0001")
	s1.SetStr("result", "bound_pruned")
	s1.End()
	s1.AttachTo(search)

	// A point discarded wholesale (stale speculative evaluation).
	p2 := tr.Detached(PhasePoint, "0002")
	p2.Child(PhaseBuild, "").End()
	p2.End()
	p2.Discard()

	// A detached point never attached: dropped at snapshot.
	p3 := tr.Detached(PhasePoint, "0003")
	p3.End()

	search.End()
	root.End()

	snap := tr.Snapshot()
	tree := snap.Tree()
	want := "optimize\n  search\n    point[0001] result=bound_pruned\n"
	if tree != want {
		t.Errorf("tree:\n%s\nwant:\n%s", tree, want)
	}
}

// TestSnapshotTelescoping checks the self-time identity on a fake clock:
// child intervals are clamped into parents and Σ self == root duration.
func TestSnapshotTelescoping(t *testing.T) {
	tr := New("fp")
	tr.Clock = fakeClock(time.Second)
	root := tr.Root(PhaseOptimize, "")
	s1 := root.Child(PhaseSearch, "")
	p1 := s1.Child(PhasePoint, "0001")
	p1.End()
	s1.End()
	root.End()

	snap := tr.Snapshot()
	var selfSum time.Duration
	for _, row := range snap.PhaseSummary() {
		selfSum += row.Self
	}
	if rootDur := snap.Roots[0].Dur(); selfSum != rootDur {
		t.Errorf("self sum %v != root duration %v", selfSum, rootDur)
	}
}

// TestSpanIDsDeterministic pins the ID derivation: IDs depend only on
// (fingerprint, canonical path), so the same search traced twice — or under
// a different worker count — yields the same IDs, and a different
// fingerprint yields different ones.
func TestSpanIDsDeterministic(t *testing.T) {
	build := func(fp string) *Trace {
		tr := New(fp)
		tr.Clock = fakeClock(time.Millisecond)
		root := tr.Root(PhaseOptimize, "")
		root.Child(PhaseSearch, "").End()
		root.End()
		return tr.Snapshot()
	}
	a, b, c := build("fp"), build("fp"), build("other")
	if a.Roots[0].ID != b.Roots[0].ID {
		t.Errorf("same fingerprint, different IDs: %s vs %s", a.Roots[0].ID, b.Roots[0].ID)
	}
	if a.Roots[0].ID == c.Roots[0].ID {
		t.Error("different fingerprints produced the same span ID")
	}
	if got := len(a.Roots[0].ID); got != 12 {
		t.Errorf("span ID length %d, want 12", got)
	}
}

// TestRegistry exercises counters, gauges, labelled series and histograms,
// including the nil-registry no-op contract.
func TestRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("t_total", "Things.")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	if again := r.Counter("t_total", "Things."); again != c {
		t.Error("re-registration returned a different counter instance")
	}
	g := r.Gauge("t_gauge", "Level.")
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Errorf("gauge = %d, want 3", g.Value())
	}
	lc := r.LabeledCounter("t_labeled_total", "Split things.", "kind", "a")
	lc.Inc()
	r.LabeledCounter("t_labeled_total", "Split things.", "kind", "b").Add(4)
	h := r.Histogram("t_seconds", "Latency.", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)
	if h.Count() != 3 {
		t.Errorf("histogram count = %d, want 3", h.Count())
	}
	if h.Sum() != 105.5 {
		t.Errorf("histogram sum = %g, want 105.5", h.Sum())
	}

	var buf bytes.Buffer
	r.WriteProm(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP t_total Things.\n# TYPE t_total counter\nt_total 3\n",
		"t_gauge 3\n",
		"t_labeled_total{kind=\"a\"} 1\n",
		"t_labeled_total{kind=\"b\"} 4\n",
		"t_seconds_bucket{le=\"1\"} 1\n",
		"t_seconds_bucket{le=\"10\"} 2\n",
		"t_seconds_bucket{le=\"+Inf\"} 3\n",
		"t_seconds_sum 105.5\n",
		"t_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteProm missing %q in:\n%s", want, out)
		}
	}
	// Names must render in lexical order.
	if strings.Index(out, "t_gauge") > strings.Index(out, "t_labeled_total") ||
		strings.Index(out, "t_labeled_total") > strings.Index(out, "t_seconds") {
		t.Error("metric families not in lexical order")
	}

	var nilReg *Registry
	nilReg.Counter("x", "").Inc()
	nilReg.Gauge("x", "").Set(1)
	nilReg.Histogram("x", "", LatencyBounds).Observe(1)
	var nilBuf bytes.Buffer
	nilReg.WriteProm(&nilBuf)
	if nilBuf.Len() != 0 {
		t.Error("nil registry rendered output")
	}
}

// TestRegistryShapeConflict pins the misuse guard: re-registering a name
// as a different instrument kind panics.
func TestRegistryShapeConflict(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("dup", "")
}

// TestFlightRecorder checks ring overwrite, slow-log ordering and the text
// dump (including the nil no-op).
func TestFlightRecorder(t *testing.T) {
	fr := NewFlightRecorder(2, 2)
	mk := func(fp string, d time.Duration) FlightRecord {
		return FlightRecord{Fingerprint: fp, Outcome: "completed", Elapsed: d}
	}
	fr.Record(mk("aaaaaaaaaaaaaaaa", 3*time.Second))
	fr.Record(mk("bbbbbbbbbbbbbbbb", 1*time.Second))
	fr.Record(mk("cccccccccccccccc", 2*time.Second))

	recent := fr.Recent()
	if len(recent) != 2 || recent[0].Fingerprint[0] != 'c' || recent[1].Fingerprint[0] != 'b' {
		t.Errorf("ring contents wrong: %+v", recent)
	}
	if recent[0].Seq != 3 {
		t.Errorf("newest seq = %d, want 3", recent[0].Seq)
	}
	slow := fr.Slowest()
	if len(slow) != 2 || slow[0].Elapsed != 3*time.Second || slow[1].Elapsed != 2*time.Second {
		t.Errorf("slow log wrong: %+v", slow)
	}

	dump := string(fr.Dump())
	for _, want := range []string{"2 recent request(s)", "aaaaaaaaaaaa", "(no trace)", "slow log: 2"} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q in:\n%s", want, dump)
		}
	}

	var nilRec *FlightRecorder
	nilRec.Record(mk("x", time.Second))
	if nilRec.Recent() != nil || nilRec.Slowest() != nil {
		t.Error("nil recorder returned records")
	}
	if !strings.Contains(string(nilRec.Dump()), "disabled") {
		t.Error("nil recorder dump misses the disabled notice")
	}
}
