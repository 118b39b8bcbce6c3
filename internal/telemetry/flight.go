package telemetry

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"
)

// FlightRecord is one completed plan request as the flight recorder keeps
// it: identity, outcome, timing, and the frozen span tree.
type FlightRecord struct {
	// Seq is the recorder-assigned monotonic sequence number.
	Seq uint64
	// Fingerprint identifies the request workload.
	Fingerprint string
	// Outcome is the request's terminal state ("completed", "error",
	// "timeout", ...), as reported by the serving layer.
	Outcome string
	// Start is when the request began; Elapsed its end-to-end latency.
	Start time.Time
	// Elapsed is the request's end-to-end latency.
	Elapsed time.Duration
	// Trace is the request's frozen span tree (may be empty if the
	// request was served from cache without running a search).
	Trace *Trace
}

// FlightRecorder is mariod's black box: a ring buffer of the last N
// completed request span-trees, plus a separate slow-request log keeping
// the K slowest requests seen since boot. Both are dumpable at
// /debug/flight and on SIGQUIT. Safe for concurrent use; a nil recorder
// no-ops.
type FlightRecorder struct {
	mu      sync.Mutex
	seq     uint64
	ring    []FlightRecord // ring[(seq-1) % cap] is the newest
	cap     int
	slow    []FlightRecord // sorted by Elapsed descending, ≤ slowCap entries
	slowCap int
}

// NewFlightRecorder returns a recorder keeping the last ringSize requests
// and the slowKeep slowest. Sizes below one are raised to one.
func NewFlightRecorder(ringSize, slowKeep int) *FlightRecorder {
	if ringSize < 1 {
		ringSize = 1
	}
	if slowKeep < 1 {
		slowKeep = 1
	}
	return &FlightRecorder{cap: ringSize, slowCap: slowKeep}
}

// Record adds one completed request. Safe on nil.
func (f *FlightRecorder) Record(rec FlightRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	rec.Seq = f.seq
	if len(f.ring) < f.cap {
		f.ring = append(f.ring, rec)
	} else {
		f.ring[int((f.seq-1)%uint64(f.cap))] = rec
	}
	// Insert into the slow log if it qualifies.
	if len(f.slow) < f.slowCap || rec.Elapsed > f.slow[len(f.slow)-1].Elapsed {
		f.slow = append(f.slow, rec)
		sort.SliceStable(f.slow, func(i, j int) bool { return f.slow[i].Elapsed > f.slow[j].Elapsed })
		if len(f.slow) > f.slowCap {
			f.slow = f.slow[:f.slowCap]
		}
	}
}

// Recent returns the ring contents, newest first. Safe on nil.
func (f *FlightRecorder) Recent() []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightRecord, len(f.ring))
	copy(out, f.ring)
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// slowest returns the slow log, slowest first. Safe on nil.
func (f *FlightRecorder) slowest() []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightRecord, len(f.slow))
	copy(out, f.slow)
	return out
}

// Dump renders a human-readable dump: the recent ring (newest first) with
// per-request phase summaries, then the slow log. This is the /debug/flight
// body and the SIGQUIT dump. Safe on nil (a disabled notice).
func (f *FlightRecorder) Dump() []byte {
	if f == nil {
		return []byte("flight recorder disabled\n")
	}
	var w bytes.Buffer
	recent := f.Recent()
	fmt.Fprintf(&w, "== flight recorder: %d recent request(s) ==\n", len(recent))
	for _, rec := range recent {
		writeFlightRecord(&w, rec)
	}
	slow := f.slowest()
	fmt.Fprintf(&w, "== slow log: %d request(s) ==\n", len(slow))
	for _, rec := range slow {
		fmt.Fprintf(&w, "#%d %s outcome=%s elapsed=%s\n",
			rec.Seq, shortFP(rec.Fingerprint), rec.Outcome, rec.Elapsed.Round(time.Microsecond))
	}
	return w.Bytes()
}

// writeFlightRecord renders one ring entry with its phase summary.
func writeFlightRecord(w *bytes.Buffer, rec FlightRecord) {
	fmt.Fprintf(w, "#%d %s outcome=%s elapsed=%s\n",
		rec.Seq, shortFP(rec.Fingerprint), rec.Outcome, rec.Elapsed.Round(time.Microsecond))
	if rec.Trace == nil || len(rec.Trace.Roots) == 0 {
		w.WriteString("  (no trace)\n")
		return
	}
	for _, row := range rec.Trace.PhaseSummary() {
		fmt.Fprintf(w, "  %-12s n=%-5d self=%s\n", row.Phase, row.Count, row.Self.Round(time.Microsecond))
	}
}

// shortFP abbreviates a fingerprint for dump lines.
func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	if fp == "" {
		return "-"
	}
	return fp
}
