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

// selfDur returns the span's self time: its duration minus the sum of its
// children's durations, floored at zero. Because every child interval is
// clamped inside its parent at Snapshot, self times telescope exactly —
// the sum of selfDur over a tree equals the root's Dur.
func (n *Node) selfDur() time.Duration {
	d := n.Dur()
	for _, c := range n.Children {
		d -= c.Dur()
	}
	if d < 0 {
		d = 0
	}
	return d
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

// JSONL renders the canonical JSONL export: one span per line in canonical
// preorder, no timings, byte-identical across worker counts.
func (tr *Trace) JSONL() []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range tr.records() {
		enc.Encode(s)
	}
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
		row.Self += n.selfDur()
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

// Tree renders a human-readable canonical tree: one span per line, indented
// by depth, with result attrs but no timings — byte-identical across worker
// counts.
func (tr *Trace) Tree() string {
	var b strings.Builder
	tr.visit(func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(string(n.Phase))
		if n.Key != "" {
			fmt.Fprintf(&b, "[%s]", n.Key)
		}
		for _, a := range n.Attrs {
			fmt.Fprintf(&b, " %s=%s", a.K, a.V)
		}
		b.WriteByte('\n')
	})
	return b.String()
}
