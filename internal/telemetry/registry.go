package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a process-wide metrics registry: counters, gauges and
// fixed-bucket histograms, each optionally split by a label set, rendered
// in Prometheus text exposition format. It replaces the hand-rolled
// obs.ServerStats plumbing: the serve layer, the tuner search and the
// graph/sim pools all register their series here and /metrics renders the
// union in one pass.
//
// Instruments are cheap after creation (atomic adds); creation takes the
// registry lock, so callers hold onto the returned handles. Metric names
// sort lexically in the rendered output; labelled series sort by label
// value within a metric. A nil *Registry no-ops everywhere, mirroring the
// span layer's disabled state.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metricFamily
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metricFamily{}}
}

// metricKind discriminates the instrument types of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metricFamily is every series sharing one metric name.
type metricFamily struct {
	name   string
	help   string
	kind   metricKind
	label  string // label key, "" for unlabelled families
	bounds []float64

	mu     sync.Mutex
	series map[string]any // label value ("" for unlabelled) → *Counter/*Gauge/*Histogram
}

// family returns (creating if needed) the named family, checking that the
// requested shape matches any prior registration.
func (r *Registry) family(name, help string, kind metricKind, label string, bounds []float64) *metricFamily {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.metrics[name]
	if f == nil {
		f = &metricFamily{
			name: name, help: help, kind: kind, label: label,
			bounds: bounds, series: map[string]any{},
		}
		r.metrics[name] = f
		return f
	}
	if f.kind != kind || f.label != label {
		panic(fmt.Sprintf("telemetry: metric %q re-registered with a different shape", name))
	}
	return f
}

// get returns (creating if needed) the series for a label value.
func (f *metricFamily) get(labelVal string, mk func() any) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[labelVal]
	if s == nil {
		s = mk()
		f.series[labelVal] = s
	}
	return s
}

// Counter is a monotonically increasing series. The zero value works but
// is unregistered; obtain registered counters from a Registry.
type Counter struct{ v atomic.Int64 }

// Add increments the counter. Safe on nil.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Inc adds one. Safe on nil.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Safe on nil.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a series that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Add moves the gauge by delta. Safe on nil.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Set replaces the gauge value. Safe on nil.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Value returns the current value. Safe on nil.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram (cumulative render, final +Inf
// bucket implicit) safe for concurrent observation.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1
	count   atomic.Int64
	sumNano atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// observe records one sample (in the bounds' unit). Safe on nil.
func (h *Histogram) observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNano.Add(int64(v * 1e9))
}

// ObserveDuration records a duration in seconds. Safe on nil.
func (h *Histogram) ObserveDuration(d time.Duration) { h.observe(d.Seconds()) }

// Count returns the number of observations. Safe on nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// sum returns the summed observations. Safe on nil.
func (h *Histogram) sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sumNano.Load()) / 1e9
}

// Counter returns the registered counter with the given name (creating it
// at zero), for unlabelled use. Safe on nil (returns nil, which no-ops).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindCounter, "", nil)
	return f.get("", func() any { return &Counter{} }).(*Counter)
}

// LabeledCounter returns the counter series for one value of the family's
// single label. Safe on nil.
func (r *Registry) LabeledCounter(name, help, label, value string) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindCounter, label, nil)
	return f.get(value, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the registered gauge with the given name. Safe on nil.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindGauge, "", nil)
	return f.get("", func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the registered histogram with the given name and upper
// bucket bounds (the final +Inf bucket is implicit). Bounds must match any
// prior registration of the same name. Safe on nil.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindHistogram, "", bounds)
	return f.get("", func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// LatencyBounds are the default request-latency bucket bounds in seconds,
// spanning cache hits (sub-millisecond) to full tuner runs (minutes).
var LatencyBounds = []float64{0.001, 0.01, 0.1, 0.5, 1, 5, 15, 60, 300}

// WriteProm renders every registered series in Prometheus text exposition
// format, metric names sorted lexically, label values sorted within each
// family. Safe on nil (renders nothing).
func (r *Registry) WriteProm(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	fams := make([]*metricFamily, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.metrics[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.writeProm(w)
	}
}

// writeProm renders one family.
func (f *metricFamily) writeProm(w io.Writer) {
	f.mu.Lock()
	vals := make([]string, 0, len(f.series))
	for v := range f.series {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	series := make([]any, len(vals))
	for i, v := range vals {
		series[i] = f.series[v]
	}
	f.mu.Unlock()

	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
	}
	switch f.kind {
	case kindCounter:
		fmt.Fprintf(w, "# TYPE %s counter\n", f.name)
	case kindGauge:
		fmt.Fprintf(w, "# TYPE %s gauge\n", f.name)
	case kindHistogram:
		fmt.Fprintf(w, "# TYPE %s histogram\n", f.name)
	}
	for i, v := range vals {
		id := f.name
		suffix := func(s string) string { return id + s }
		if f.label != "" {
			lbl := fmt.Sprintf("{%s=%q}", f.label, v)
			suffix = func(s string) string { return id + s + lbl }
		}
		switch s := series[i].(type) {
		case *Counter:
			fmt.Fprintf(w, "%s %d\n", suffix(""), s.Value())
		case *Gauge:
			fmt.Fprintf(w, "%s %d\n", suffix(""), s.Value())
		case *Histogram:
			cum := int64(0)
			for bi, b := range s.bounds {
				cum += s.buckets[bi].Load()
				fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", id, promFloat(b), cum)
			}
			cum += s.buckets[len(s.bounds)].Load()
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", id, cum)
			fmt.Fprintf(w, "%s_sum %s\n", id, promFloat(s.sum()))
			fmt.Fprintf(w, "%s_count %d\n", id, s.Count())
		}
	}
}

// promFloat renders a float without trailing zeros (Prometheus-friendly).
func promFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	s := fmt.Sprintf("%g", v)
	return strings.TrimSuffix(s, ".0")
}
