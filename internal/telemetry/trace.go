package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Node is one span in a frozen Trace. Children are in canonical order
// (phase rank, then key); ID, Path and Attrs are deterministic, Start/End
// are the recorded wall-clock (or fake-clock) times and only surface in
// measured exports.
type Node struct {
	// ID is the span's deterministic identity: the first 12 hex digits of
	// SHA-256(fingerprint + "\x00" + Path).
	ID string
	// Phase is the span's level in the search hierarchy.
	Phase Phase
	// Key distinguishes the span among same-phase siblings.
	Key string
	// Path is the canonical slash-joined location, e.g.
	// "optimize/search/point[0007 X-8-4(mario)]/graph/round[02]".
	Path string
	// Attrs are the recorded attributes, in recording order.
	Attrs []Attr
	// Start and End are the recorded span interval.
	Start, End time.Time
	// Children are the surviving child spans in canonical order.
	Children []*Node
}

// Dur returns the span's recorded duration.
func (n *Node) Dur() time.Duration { return n.End.Sub(n.Start) }

// SelfDur returns the span's self time: its duration minus the sum of its
// children's durations, floored at zero. Because every child interval is
// clamped inside its parent at Snapshot, self times telescope exactly —
// the sum of SelfDur over a tree equals the root's Dur.
func (n *Node) SelfDur() time.Duration {
	d := n.Dur()
	for _, c := range n.Children {
		d -= c.Dur()
	}
	if d < 0 {
		d = 0
	}
	return d
}

// attr returns the value of the named attribute, or "".
func (n *Node) attr(k string) string {
	for _, a := range n.Attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}

// Trace is a frozen, export-ready span tree for one plan request.
type Trace struct {
	// Fingerprint identifies the request; span IDs are derived from it.
	Fingerprint string
	// Roots are the surviving top-level spans in canonical order (normally
	// exactly one PhaseOptimize span).
	Roots []*Node
}

// Snapshot freezes the tracer's current spans into a canonical Trace:
// discarded subtrees and still-detached spans are dropped, children are
// sorted into canonical order, child intervals are clamped inside their
// parents so self times telescope, and span IDs/paths are derived. Safe on
// nil (returns an empty Trace). The tracer remains usable afterwards;
// Snapshot reads a consistent view.
func (t *Tracer) Snapshot() *Trace {
	tr := &Trace{}
	if t == nil {
		return tr
	}
	t.mu.Lock()
	recs := make([]spanRec, len(t.spans))
	copy(recs, t.spans)
	tr.Fingerprint = t.fingerprint
	t.mu.Unlock()

	// Propagate explicit drops (discarded or still-detached spans) down the
	// tree. Parents usually have smaller arena indices than their children
	// (alloc order), but AttachTo can adopt an earlier span under a later
	// parent — so iterate to a fixed point (tree depth bounds the rounds; in
	// practice 2).
	dead := make([]bool, len(recs))
	for i := range recs {
		dead[i] = recs[i].discard || recs[i].detached
	}
	for changed := true; changed; {
		changed = false
		for i := range recs {
			p := recs[i].parent
			if !dead[i] && p >= 0 && dead[p] {
				dead[i] = true
				changed = true
			}
		}
	}

	// Canonical-order child lists and roots over the surviving spans.
	canonLess := func(a, b int32) bool {
		ra, rb := phaseRank(recs[a].phase), phaseRank(recs[b].phase)
		if ra != rb {
			return ra < rb
		}
		if recs[a].key != recs[b].key {
			return recs[a].key < recs[b].key
		}
		return a < b
	}
	children := make([][]int32, len(recs))
	var rootIdx []int32
	for i := range recs {
		if dead[i] {
			continue
		}
		if p := recs[i].parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		} else {
			rootIdx = append(rootIdx, int32(i))
		}
	}
	sort.Slice(rootIdx, func(i, j int) bool { return canonLess(rootIdx[i], rootIdx[j]) })
	for p := range children {
		cs := children[p]
		sort.Slice(cs, func(i, j int) bool { return canonLess(cs[i], cs[j]) })
	}

	// Walk in canonical preorder: fix up end times (un-ended spans inherit
	// the max end of their subtree), clamp children into parents, assign
	// paths/IDs, and link children.
	var walk func(i int32, parentPath string, lo, hi time.Time) *Node
	walk = func(i int32, parentPath string, lo, hi time.Time) *Node {
		r := &recs[i]
		n := &Node{Phase: r.phase, Key: r.key, Attrs: r.attrs, Start: r.start, End: r.end}
		seg := string(n.Phase)
		if n.Key != "" {
			seg += "[" + n.Key + "]"
		}
		if parentPath == "" {
			n.Path = seg
		} else {
			n.Path = parentPath + "/" + seg
		}
		sum := sha256.Sum256([]byte(tr.Fingerprint + "\x00" + n.Path))
		n.ID = hex.EncodeToString(sum[:6])

		// Un-ended spans: adopt the latest end seen in the subtree.
		if n.End.Before(n.Start) || n.End.IsZero() {
			n.End = n.Start
			for _, c := range children[i] {
				if e := recs[c].end; e.After(n.End) {
					n.End = e
				}
			}
		}
		// Clamp inside the parent interval so self times telescope.
		if !lo.IsZero() {
			if n.Start.Before(lo) {
				n.Start = lo
			}
			if n.End.After(hi) {
				n.End = hi
			}
			if n.End.Before(n.Start) {
				n.End = n.Start
			}
		}

		for _, c := range children[i] {
			n.Children = append(n.Children, walk(c, n.Path, n.Start, n.End))
		}
		return n
	}
	for _, r := range rootIdx {
		tr.Roots = append(tr.Roots, walk(r, "", time.Time{}, time.Time{}))
	}
	return tr
}

// visit runs fn over the trace in canonical preorder, passing each node's
// depth.
func (tr *Trace) visit(fn func(n *Node, depth int)) {
	var rec func(n *Node, d int)
	rec = func(n *Node, d int) {
		fn(n, d)
		for _, c := range n.Children {
			rec(c, d+1)
		}
	}
	for _, r := range tr.Roots {
		rec(r, 0)
	}
}

// Spans returns every node in canonical preorder.
func (tr *Trace) Spans() []*Node {
	var out []*Node
	tr.visit(func(n *Node, _ int) { out = append(out, n) })
	return out
}

// jsonlSpan is the canonical JSONL record for one span. It deliberately
// carries no timing: the JSONL export is the byte-identical-across-workers
// artifact.
type jsonlSpan struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Phase  Phase  `json:"phase"`
	Key    string `json:"key,omitempty"`
	Path   string `json:"path"`
	Attrs  []Attr `json:"attrs,omitempty"`
}

// records lists the canonical span records in canonical preorder — the one
// walk both the JSONL export and MarshalJSON render.
func (tr *Trace) records() []jsonlSpan {
	spans := []jsonlSpan{}
	var rec func(n *Node, parent string)
	rec = func(n *Node, parent string) {
		spans = append(spans, jsonlSpan{
			ID: n.ID, Parent: parent, Phase: n.Phase, Key: n.Key,
			Path: n.Path, Attrs: n.Attrs,
		})
		for _, c := range n.Children {
			rec(c, n.ID)
		}
	}
	for _, r := range tr.Roots {
		rec(r, "")
	}
	return spans
}

// WriteJSONL renders the canonical JSONL export: one span per line in
// canonical preorder, no timings, byte-identical across worker counts.
func (tr *Trace) WriteJSONL(w *bytes.Buffer) {
	enc := json.NewEncoder(w)
	for _, s := range tr.records() {
		enc.Encode(s)
	}
}

// JSONL returns WriteJSONL's output as bytes.
func (tr *Trace) JSONL() []byte {
	var b bytes.Buffer
	tr.WriteJSONL(&b)
	return b.Bytes()
}

// MarshalJSON renders the canonical trace as a single JSON document —
// {"fingerprint": ..., "spans": [...]} with the same records as the JSONL
// export, in canonical preorder and with no timings, so the document is
// byte-identical across worker counts. This is the form the planning
// service embeds in traced PlanResponses.
func (tr *Trace) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Fingerprint string      `json:"fingerprint"`
		Spans       []jsonlSpan `json:"spans"`
	}{tr.Fingerprint, tr.records()})
}

// chromeEvent is one Chrome trace-event (same shape internal/viz emits for
// schedule timelines, kept local so telemetry stays dependency-free).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeArgs renders a node's exported args map.
func chromeArgs(n *Node) map[string]string {
	args := map[string]string{"id": n.ID, "path": n.Path}
	for _, a := range n.Attrs {
		args[a.K] = a.V
	}
	return args
}

// chromeName renders a node's display name.
func chromeName(n *Node) string {
	if n.Key != "" {
		return string(n.Phase) + " " + n.Key
	}
	return string(n.Phase)
}

// ChromeTrace renders the canonical Chrome trace of the search: spans
// become complete ("X") events whose ts is the span's canonical preorder
// index and whose dur is its subtree size, with depth as the tid — a
// structural flame graph with no wall-clock in it, byte-identical across
// worker counts. Load in chrome://tracing or Perfetto.
func (tr *Trace) ChromeTrace() []byte {
	var events []chromeEvent
	idx := 0
	var rec func(n *Node, depth int) int
	rec = func(n *Node, depth int) int {
		my := idx
		idx++
		size := 1
		for _, c := range n.Children {
			size += rec(c, depth+1)
		}
		events = append(events, chromeEvent{
			Name: chromeName(n), Cat: string(n.Phase), Ph: "X",
			Ts: float64(my), Dur: float64(size),
			PID: 1, TID: depth, Args: chromeArgs(n),
		})
		return size
	}
	for _, r := range tr.Roots {
		rec(r, 0)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Ts < events[j].Ts })
	return marshalChrome(events)
}

// ChromeTraceMeasured renders the measured Chrome trace: real recorded
// times in microseconds relative to the earliest span, greedily packed
// into lanes (tid) so overlapping worker activity stays readable. This is
// the wall-clock view — NOT byte-identical across runs.
func (tr *Trace) ChromeTraceMeasured() []byte {
	spans := tr.Spans()
	if len(spans) == 0 {
		return marshalChrome(nil)
	}
	epoch := spans[0].Start
	for _, n := range spans {
		if n.Start.Before(epoch) {
			epoch = n.Start
		}
	}
	// Sort by start for lane packing; keep canonical order on ties.
	order := make([]*Node, len(spans))
	copy(order, spans)
	sort.SliceStable(order, func(i, j int) bool { return order[i].Start.Before(order[j].Start) })
	var laneEnd []time.Time
	events := make([]chromeEvent, 0, len(order))
	for _, n := range order {
		lane := -1
		for l, e := range laneEnd {
			if !n.Start.Before(e) {
				lane = l
				break
			}
		}
		if lane < 0 {
			lane = len(laneEnd)
			laneEnd = append(laneEnd, time.Time{})
		}
		laneEnd[lane] = n.End
		events = append(events, chromeEvent{
			Name: chromeName(n), Cat: string(n.Phase), Ph: "X",
			Ts:  float64(n.Start.Sub(epoch)) / float64(time.Microsecond),
			Dur: float64(n.Dur()) / float64(time.Microsecond),
			PID: 1, TID: lane, Args: chromeArgs(n),
		})
	}
	return marshalChrome(events)
}

// marshalChrome renders the trace-event JSON envelope.
func marshalChrome(events []chromeEvent) []byte {
	var b bytes.Buffer
	b.WriteString("{\"traceEvents\":[")
	for i, ev := range events {
		if i > 0 {
			b.WriteByte(',')
		}
		raw, _ := json.Marshal(ev)
		b.Write(raw)
	}
	b.WriteString("],\"displayTimeUnit\":\"ms\"}\n")
	return b.Bytes()
}

// PhaseSelf is one row of a per-phase self-time summary.
type PhaseSelf struct {
	// Phase is the span phase the row aggregates.
	Phase Phase
	// Count is the number of surviving spans of that phase.
	Count int
	// Self is the summed self time across them.
	Self time.Duration
}

// PhaseSummary aggregates self time by phase, in canonical phase order.
// Because self times telescope, the Self column sums exactly to the root
// span's duration — the identity the acceptance criteria pins to
// wall-clock.
func (tr *Trace) PhaseSummary() []PhaseSelf {
	agg := map[Phase]*PhaseSelf{}
	tr.visit(func(n *Node, _ int) {
		row := agg[n.Phase]
		if row == nil {
			row = &PhaseSelf{Phase: n.Phase}
			agg[n.Phase] = row
		}
		row.Count++
		row.Self += n.SelfDur()
	})
	var out []PhaseSelf
	for _, row := range agg {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := phaseRank(out[i].Phase), phaseRank(out[j].Phase)
		if ri != rj {
			return ri < rj
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// WriteTree renders a human-readable canonical tree: one span per line,
// indented by depth, with result attrs but no timings —
// byte-identical across worker counts.
func (tr *Trace) WriteTree(w *bytes.Buffer) {
	tr.visit(func(n *Node, depth int) {
		w.WriteString(strings.Repeat("  ", depth))
		w.WriteString(string(n.Phase))
		if n.Key != "" {
			fmt.Fprintf(w, "[%s]", n.Key)
		}
		for _, a := range n.Attrs {
			fmt.Fprintf(w, " %s=%s", a.K, a.V)
		}
		w.WriteByte('\n')
	})
}

// Tree returns WriteTree's output as a string.
func (tr *Trace) Tree() string {
	var b bytes.Buffer
	tr.WriteTree(&b)
	return b.String()
}
