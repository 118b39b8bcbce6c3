package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// readResults loads a file written with -append and groups the untraced
// results by workload.
func readResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if r.Header.Trace == 0 {
			out[r.Header.Workload] = append(out[r.Header.Workload], &r)
		}
	}
	return out, sc.Err()
}

// verdict compares one metric's values on two sets of runs: "worse" when b's
// median is worse than a's by more than the bound, "unresolved" when either
// set's own spread between quartiles exceeds the bound, "ok" otherwise.
func verdict(d metricDef, a, b []float64) (ratioBA float64, v string) {
	ma, mb := median(a), median(b)
	ratioBA = ratio(mb, ma)
	if spread(a) > d.Bound || spread(b) > d.Bound {
		return ratioBA, "unresolved"
	}
	worse := mb > ma*(1+d.Bound)
	if d.Better == "higher" {
		worse = mb < ma*(1-d.Bound)
	}
	if worse {
		return ratioBA, "worse"
	}
	return ratioBA, "ok"
}

// compareFiles prints one row per workload and end-to-end metric and reports
// whether any row is worse.
func compareFiles(out io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbetter\ta median\tb median\tb/a\ta spread\tb spread\tbound\tverdict\t")
	for _, w := range workloads {
		ra, rb := a[w.name], b[w.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		failed := func(rs []*result) (n int) {
			for _, r := range rs {
				if !r.Correct {
					n++
				}
			}
			return n
		}
		if fa, fb := failed(ra), failed(rb); fa+fb > 0 {
			fmt.Fprintf(tw, "%s\tincorrect runs\t\t\t%d of %d\t%d of %d\t\t\t\t\t%s\t\n", w.name, fa, len(ra), fb, len(rb), "worse")
			anyWorse = true
		}
		for _, d := range endToEnd {
			col := func(rs []*result) []float64 {
				xs := make([]float64, len(rs))
				for i, r := range rs {
					xs[i] = r.Metrics[d.Name].Value
				}
				return xs
			}
			xa, xb := col(ra), col(rb)
			r, v := verdict(d, xa, xb)
			anyWorse = anyWorse || v == "worse"
			if exactMetrics[d.Name] && median(xa) != median(xb) {
				v += " (exact metric moved)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.6g\t%.6g\t%.4f\t%.2f%%\t%.2f%%\t%.1f%%\t%s\t\n",
				w.name, d.Name, d.Unit, d.Better, median(xa), median(xb), r, spread(xa)*100, spread(xb)*100, d.Bound*100, v)
		}
		slow := func(rs []*result) float64 {
			xs := make([]float64, len(rs))
			for i, r := range rs {
				xs[i] = r.Header.Slowdown
			}
			return median(xs)
		}
		fmt.Fprintf(tw, "%s\truns\t\t\t%d\t%d\t\t\t\t\t\t\n", w.name, len(ra), len(rb))
		// Not a metric: how slow the machine itself was during each set
		// (already divided out of the wall-clock metrics).
		fmt.Fprintf(tw, "%s\tslowdown (header)\t\t\t%.4g\t%.4g\t%.4f\t\t\t\t\t\n", w.name, slow(ra), slow(rb), ratio(slow(rb), slow(ra)))
	}
	return anyWorse, tw.Flush()
}
