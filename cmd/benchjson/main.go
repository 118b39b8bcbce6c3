// Command benchjson converts `go test -bench` text output on stdin into a
// JSON array on stdout, one object per benchmark result line. It exists so CI
// can archive benchmark runs as a machine-readable artifact (BENCH_sim.json)
// that regression tooling can diff without re-parsing Go's bench format.
//
// Only the standard library is used. Result lines look like
//
//	BenchmarkGraphOptimize-8   4070   559046 ns/op   634984 B/op   427 allocs/op
//
// i.e. a name (with an optional -GOMAXPROCS suffix), an iteration count, and
// then value/unit pairs. Unrecognised units (custom b.ReportMetric metrics,
// MB/s, ...) are preserved under "extra". Non-benchmark lines are ignored, so
// the full `go test` output can be piped through unfiltered. Repeated rows of
// one benchmark (`go test -count N`) fold into the one with the smallest
// ns/op: the repeat the machine disturbed least, which is what makes a time
// worth comparing across runs.
//
// With -gate PCT the command becomes a regression check instead of a
// converter: stdin is still bench text, but the parsed ns/op values are
// compared against the artifact named by -baseline, and the exit status is 1
// if any benchmark slowed down by more than PCT percent. -only restricts the
// comparison to benchmarks whose name starts with one of the given
// comma-separated prefixes. Benchmarks present on only one side are reported
// but never fail the gate, so adding or retiring a benchmark does not require
// a lockstep baseline update.
//
// -gate-mem PCT is the deterministic sibling: it compares B/op and allocs/op
// instead. A single-threaded benchmark allocates the same objects run after
// run on any machine, so — unlike ns/op, which CI runner noise keeps
// non-gating — a small threshold on these columns is a gate CI can enforce.
// It also gates the count extras of the rows that report one — sims/op, the
// simulations a search ran, builds, the schedules it built, units/op, the
// compute units a schedule build list-scheduled, explored, the grid points a search simulated, oom, those of
// them the memory penalty zeroed, bytes, the size of an encoded plan, and the
// prepose scan's scan-illegal and scan-simulated candidates: exact on any
// machine, they are held to the baseline with no threshold — one more
// simulation, build, unit, point, byte or candidate fails.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

type result struct {
	Name        string             `json:"name"`
	Procs       int                `json:"procs,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     *float64           `json:"ns_per_op,omitempty"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

func main() {
	gate := flag.Float64("gate", 0, "fail if any ns/op regresses by more than this percent vs -baseline (0 = off)")
	gateMem := flag.Float64("gate-mem", 0, "fail if any B/op or allocs/op regresses by more than this percent vs -baseline (0 = off)")
	baseline := flag.String("baseline", "", "baseline JSON artifact to gate against (required with -gate and -gate-mem)")
	only := flag.String("only", "", "comma-separated benchmark name prefixes to gate (default: all)")
	flag.Parse()

	results, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}

	if *gate > 0 || *gateMem > 0 {
		if *baseline == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -gate and -gate-mem require -baseline")
			os.Exit(2)
		}
		regressed := false
		for _, g := range []struct {
			pct     float64
			metrics []metric
		}{{*gate, timeMetrics}, {*gateMem, memMetrics}} {
			if g.pct <= 0 {
				continue
			}
			r, err := gateAgainst(os.Stdout, results, *baseline, g.pct, splitPrefixes(*only), g.metrics)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				os.Exit(2)
			}
			regressed = regressed || r
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	out, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmark results\n", len(results))
}

// parseBench reads bench text into one result per benchmark, in order of
// first appearance; of a benchmark's repeated rows the fastest is kept whole.
func parseBench(r io.Reader) ([]result, error) {
	results := []result{}
	type key struct {
		name  string
		procs int
	}
	at := map[key]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		r, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		k := key{r.Name, r.Procs}
		if i, seen := at[k]; !seen {
			at[k] = len(results)
			results = append(results, r)
		} else if r.NsPerOp != nil && (results[i].NsPerOp == nil || *r.NsPerOp < *results[i].NsPerOp) {
			results[i] = r
		}
	}
	return results, sc.Err()
}

// metric is one gated column of a benchmark result. An exact metric is a
// count of work that may not grow at all, whatever the threshold.
type metric struct {
	unit  string
	get   func(result) *float64
	exact bool
}

var (
	timeMetrics = []metric{{unit: "ns/op", get: func(r result) *float64 { return r.NsPerOp }}}
	memMetrics  = []metric{
		{unit: "B/op", get: func(r result) *float64 { return r.BytesPerOp }},
		{unit: "allocs/op", get: func(r result) *float64 { return r.AllocsPerOp }},
		{unit: "sims/op", get: extraMetric("sims/op"), exact: true},
		{unit: "builds", get: extraMetric("builds"), exact: true},
		{unit: "units/op", get: extraMetric("units/op"), exact: true},
		{unit: "explored", get: extraMetric("explored"), exact: true},
		{unit: "oom", get: extraMetric("oom"), exact: true},
		{unit: "bytes", get: extraMetric("bytes"), exact: true},
		{unit: "scan-illegal", get: extraMetric("scan-illegal"), exact: true},
		{unit: "scan-simulated", get: extraMetric("scan-simulated"), exact: true},
	}
)

// extraMetric reads one custom b.ReportMetric unit of a result.
func extraMetric(unit string) func(result) *float64 {
	return func(r result) *float64 {
		if v, ok := r.Extra[unit]; ok {
			return &v
		}
		return nil
	}
}

// gateAgainst compares the given metrics for every benchmark present in both
// the current run and the baseline artifact, prints one line per comparison,
// and reports whether any selected benchmark regressed by more than pct
// percent on any of them — on an exact metric, by any amount (a metric that
// was zero regresses by becoming non-zero).
func gateAgainst(w io.Writer, cur []result, baselinePath string, pct float64, prefixes []string, metrics []metric) (bool, error) {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return false, err
	}
	var base []result
	if err := json.Unmarshal(raw, &base); err != nil {
		return false, fmt.Errorf("parsing %s: %w", baselinePath, err)
	}
	// A run row is gated against the baseline row of its name and procs or,
	// when there is none, against the baseline's only row of that name: a row
	// at the default GOMAXPROCS still gates when the baseline was recorded on
	// another core count.
	type key struct {
		name  string
		procs int
	}
	baseAt, byName, used := make(map[key]int, len(base)), make(map[string][]int, len(base)), make([]bool, len(base))
	for i, b := range base {
		baseAt[key{b.Name, b.Procs}] = i
		byName[b.Name] = append(byName[b.Name], i)
	}

	regressed := false
	compared := 0
	for _, c := range cur {
		if !matchesPrefix(c.Name, prefixes) {
			continue
		}
		i, inBase := baseAt[key{c.Name, c.Procs}]
		if !inBase && len(byName[c.Name]) == 1 {
			i, inBase = byName[c.Name][0], true
		}
		var b result
		if inBase {
			b, used[i] = base[i], true
		}
		for _, m := range metrics {
			now := m.get(c)
			if now == nil {
				continue
			}
			old := m.get(b)
			if !inBase || old == nil {
				fmt.Fprintf(w, "NEW    %-55s %12.0f %s (not in baseline)\n", c.Name, *now, m.unit)
				continue
			}
			compared++
			verdict := "ok    "
			limit := *old * (1 + pct/100)
			if m.exact {
				limit = *old
			}
			if *now > limit {
				verdict = "WORSE "
				regressed = true
			}
			delta := 0.0
			if *old != 0 {
				delta = 100 * (*now - *old) / *old
			}
			fmt.Fprintf(w, "%s %-55s %12.0f -> %12.0f %s (%+.1f%%)\n", verdict, c.Name, *old, *now, m.unit, delta)
		}
	}
	for i, b := range base {
		if !used[i] && matchesPrefix(b.Name, prefixes) {
			fmt.Fprintf(w, "GONE   %-55s (in baseline, not in this run)\n", b.Name)
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("no benchmarks matched the gate selection")
	}
	units := make([]string, len(metrics))
	for i, m := range metrics {
		units[i] = m.unit
		if m.exact {
			units[i] += " (exact)"
		}
	}
	fmt.Fprintf(w, "benchjson: gated %d comparisons at +%.0f%% %s\n", compared, pct, strings.Join(units, ", "))
	return regressed, nil
}

func splitPrefixes(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func matchesPrefix(name string, prefixes []string) bool {
	if len(prefixes) == 0 {
		return true
	}
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func parseLine(line string) (result, bool) {
	f := strings.Fields(line)
	if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Iterations: iters}
	r.Name, r.Procs = splitProcs(f[0])
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return result{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp = &v
		case "B/op":
			r.BytesPerOp = &v
		case "allocs/op":
			r.AllocsPerOp = &v
		default:
			if r.Extra == nil {
				r.Extra = make(map[string]float64)
			}
			r.Extra[f[i+1]] = v
		}
	}
	return r, true
}

// splitProcs strips the trailing -GOMAXPROCS suffix Go appends to benchmark
// names (absent when GOMAXPROCS is 1), keeping artifact names comparable
// across machines.
func splitProcs(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 0
	}
	p, err := strconv.Atoi(name[i+1:])
	if err != nil || p <= 0 {
		return name, 0
	}
	return name[:i], p
}
