// Package telemetry is the observability layer of the planner's own inner
// loop — the search-side counterpart of internal/obs, which instruments the
// *execution* of a schedule. Where obs collects per-instruction events from
// the emulated cluster, telemetry records what the tuner grid search, the
// graph passes and the simulator engines did while *producing* a plan: a span
// tree per plan request, a metrics registry the planning daemon renders at
// /metrics, and a flight recorder that keeps the last N request traces for
// post-hoc debugging.
//
// Three contracts shape the package:
//
//   - Near zero cost when off. Every Span method and every Tracer entry
//     point is safe on the zero value / nil receiver and allocates nothing.
//     Instrumented code threads a Span through unconditionally; an untraced
//     run pays a nil check per call and nothing else.
//
//   - Deterministic canonical traces. Span identities derive from
//     (fingerprint, canonical path, phase), never from wall-clock or
//     goroutine scheduling, and the canonical exports (JSONL, canonical
//     Chrome trace, tree rendering) are byte-identical for every worker
//     count, GOMAXPROCS and -race — the same contract the tuner's
//     canonical-order merge gives its results. Wall-clock timings are
//     recorded alongside but only surface in the measured Chrome trace.
//
//   - One request, one Tracer. A Tracer accumulates the spans of a single
//     plan request (one Optimize call, one daemon flight); Snapshot freezes
//     it into an exportable Trace. Tracers are safe for concurrent span
//     creation (tuner workers record from many goroutines).
package telemetry

import (
	"strconv"
	"sync"
	"time"
)

// Phase names one level of the search span hierarchy. The set is closed:
// canonical ordering sorts sibling spans by phase rank before key, so every
// producer must use the package constants.
type Phase string

// The span phases, from the request root down to the innermost simulator
// work. PhaseOptimize is the root of a plan request; PhaseSearch covers one
// tuner grid search; PhaseBound its probe pass (every grid point checked,
// bounded and ordered before any is evaluated); PhasePoint one grid point;
// PhaseBuild / PhaseGraph / PhaseSim its sub-steps (schedule build,
// graph-tuner run, direct simulation) — a search has no PhaseSim child of its
// own, since its winner is not simulated again; PhaseRound one
// simulator-guided prepose round inside a graph run.
const (
	PhaseOptimize Phase = "optimize"
	PhaseSearch   Phase = "search"
	PhasePoint    Phase = "point"
	PhaseBuild    Phase = "build"
	PhaseBound    Phase = "bound"
	PhaseGraph    Phase = "graph"
	PhaseSim      Phase = "sim"
	PhaseRound    Phase = "round"
)

// phaseRank fixes the canonical sibling order: spans under one parent sort
// by (rank, key). Under a point the rank follows the evaluation's program
// order — build, then graph or direct simulation; under a search the point
// spans come first, then the probe pass.
func phaseRank(p Phase) int {
	switch p {
	case PhaseOptimize:
		return 0
	case PhaseSearch:
		return 1
	case PhasePoint:
		return 2
	case PhaseBuild:
		return 3
	case PhaseBound:
		return 4
	case PhaseGraph:
		return 5
	case PhaseRound:
		return 6
	case PhaseSim:
		return 7
	}
	return 99
}

// Attr is one deterministic key/value pair on a span. Values are
// pre-rendered strings so a span never holds anything whose formatting
// could drift between runs (floats are formatted with strconv 'g', the
// shortest round-trip form, so bit-identical floats render identically).
type Attr struct {
	// K is the attribute name.
	K string `json:"k"`
	// V is the rendered value.
	V string `json:"v"`
}

// spanRec is one span in the tracer's arena. The arena index is the span's
// handle; parent is an arena index or -1 for roots and detached spans.
type spanRec struct {
	parent   int32
	phase    Phase
	key      string
	memoKey  string
	start    time.Time
	end      time.Time
	attrs    []Attr
	discard  bool
	detached bool
}

// Tracer collects the span tree of one plan request. The zero value is not
// usable — construct with New; a nil *Tracer is the disabled state and every
// method on it (and on the zero Span) is a free no-op.
type Tracer struct {
	// Clock supplies span timestamps; nil means time.Now. Tests install a
	// deterministic fake so measured exports golden-compare.
	Clock func() time.Time

	fingerprint string

	mu    sync.Mutex
	spans []spanRec
}

// New returns a Tracer for one plan request identified by fingerprint (the
// serve-layer workload fingerprint, or any stable request label — span IDs
// are derived from it).
func New(fingerprint string) *Tracer {
	return &Tracer{fingerprint: fingerprint}
}

// Fingerprint returns the request fingerprint the tracer was created with.
// Safe on nil (returns "").
func (t *Tracer) Fingerprint() string {
	if t == nil {
		return ""
	}
	return t.fingerprint
}

// now reads the tracer clock.
func (t *Tracer) now() time.Time {
	if t.Clock != nil {
		return t.Clock()
	}
	return time.Now()
}

// alloc appends a span record and returns its handle.
func (t *Tracer) alloc(parent int32, phase Phase, key string, detached bool) Span {
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{
		parent: parent, phase: phase, key: key,
		start: t.now(), detached: detached,
	})
	idx := int32(len(t.spans)) // 1-based so the zero Span is a no-op
	t.mu.Unlock()
	return Span{t: t, idx: idx}
}

// Root starts a top-level span (normally the single PhaseOptimize request
// root). Safe on nil (returns the no-op Span).
func (t *Tracer) Root(phase Phase, key string) Span {
	if t == nil {
		return Span{}
	}
	return t.alloc(-1, phase, key, false)
}

// Detached starts a span with no parent yet. Workers evaluating grid points
// speculatively record into detached spans; the canonical merge loop later
// calls AttachTo (adopting the subtree at its deterministic position) or
// Discard (dropping speculative work the canonical search would not have
// done). Safe on nil.
func (t *Tracer) Detached(phase Phase, key string) Span {
	if t == nil {
		return Span{}
	}
	return t.alloc(-1, phase, key, true)
}

// Span is a lightweight handle to one span of a Tracer. The zero value is
// the disabled span: every method no-ops and spawns only more disabled
// spans, which is what makes unconditional instrumentation free when
// tracing is off.
type Span struct {
	t   *Tracer
	idx int32 // 1-based arena index; 0 = disabled
}

// Live reports whether the span actually records (false for the zero Span).
func (s Span) Live() bool { return s.t != nil && s.idx > 0 }

// Tracer returns the owning tracer, or nil for the disabled span.
func (s Span) Tracer() *Tracer {
	if !s.Live() {
		return nil
	}
	return s.t
}

// Child starts a sub-span. The key must be unique among siblings of the
// same phase (canonical ordering and span IDs depend on it); repeated
// phases embed a sequence number, e.g. "07". Safe on the zero Span.
func (s Span) Child(phase Phase, key string) Span {
	if !s.Live() {
		return Span{}
	}
	return s.t.alloc(s.idx-1, phase, key, false)
}

// End stamps the span's end time. Spans left un-ended inherit the latest
// end of their subtree at Snapshot. Safe on the zero Span.
func (s Span) End() {
	if !s.Live() {
		return
	}
	t := s.t
	t.mu.Lock()
	t.spans[s.idx-1].end = t.now()
	t.mu.Unlock()
}

// AttachTo adopts a detached span (and its subtree) under parent. The merge
// loop calls it in canonical order, which is what anchors worker-recorded
// subtrees at deterministic positions. Attaching to a disabled parent
// discards the subtree (a traced worker feeding an untraced merge cannot
// happen in practice, but the zero-value contract must hold). Safe on the
// zero Span.
func (s Span) AttachTo(parent Span) {
	if !s.Live() {
		return
	}
	if !parent.Live() || parent.t != s.t {
		s.Discard()
		return
	}
	t := s.t
	t.mu.Lock()
	r := &t.spans[s.idx-1]
	r.parent = parent.idx - 1
	r.detached = false
	t.mu.Unlock()
}

// Discard drops the span and its subtree from every export — the fate of
// speculative worker evaluations that the canonical merge replaced. Safe on
// the zero Span.
func (s Span) Discard() {
	if !s.Live() {
		return
	}
	t := s.t
	t.mu.Lock()
	t.spans[s.idx-1].discard = true
	t.mu.Unlock()
}

// Memo tags the span with a memoization key. Spans sharing a (phase, memo
// key) describe the same memoized computation; canonical exports tag the
// first of them in canonical order memo "first" and the rest "shared",
// regardless of which worker actually ran the compute — the
// sequential-search semantics. A memo span has no children: the tags are
// all Snapshot normalizes, so a subtree under one would depend on which
// worker computed. Safe on the zero Span.
func (s Span) Memo(key string) {
	if !s.Live() {
		return
	}
	t := s.t
	t.mu.Lock()
	t.spans[s.idx-1].memoKey = key
	t.mu.Unlock()
}

// setAttr appends a pre-rendered attribute.
func (s Span) setAttr(k, v string) {
	t := s.t
	t.mu.Lock()
	r := &t.spans[s.idx-1]
	r.attrs = append(r.attrs, Attr{K: k, V: v})
	t.mu.Unlock()
}

// SetStr records a string attribute. Safe on the zero Span.
func (s Span) SetStr(k, v string) {
	if !s.Live() {
		return
	}
	s.setAttr(k, v)
}

// SetInt records an integer attribute. Safe on the zero Span.
func (s Span) SetInt(k string, v int64) {
	if !s.Live() {
		return
	}
	s.setAttr(k, strconv.FormatInt(v, 10))
}

// SetFloat records a float attribute in shortest round-trip form, so
// bit-identical floats always render identically. Safe on the zero Span.
func (s Span) SetFloat(k string, v float64) {
	if !s.Live() {
		return
	}
	s.setAttr(k, strconv.FormatFloat(v, 'g', -1, 64))
}

// SetBool records a boolean attribute. Safe on the zero Span.
func (s Span) SetBool(k string, v bool) {
	if !s.Live() {
		return
	}
	s.setAttr(k, strconv.FormatBool(v))
}
