// Command bench is the planner benchmark: it drives real searches through
// mario.Optimize and real requests through in-process mariod members over
// loopback TCP, checks every output, and reports end-to-end metrics (tracing
// off) or per-layer metrics (a separate traced pass). See README.md.
//
//	bash bench/run.sh --workload search-large --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 1 --seconds 20 --append a.jsonl
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "length of the timed window (trace 0) or of the traced pass (trace 1)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		appendF = flag.String("append", "", "also append each result, with its header, as one line to this file (input of -compare)")
		compare = flag.Bool("compare", false, "compare two result files written with -append: bench -compare a.jsonl b.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	var run []*workload
	if *name == "all" {
		run = workloads
	} else if w := findWorkload(*name); w != nil {
		run = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q (want %s, or all)", *name, workloadNames()))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
	}
	dir := os.Getenv("MARIO_BENCH_DIR")
	if dir == "" {
		dir = "bench"
	}
	for _, w := range run {
		var res *result
		var err error
		if *trace == 1 {
			res, err = runTraced(w, *seed, *seconds, filepath.Join(dir, "out"))
		} else {
			res, err = runEndToEnd(w, *seed, *seconds)
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		if *appendF != "" {
			if err := appendResult(*appendF, res); err != nil {
				fatal(err)
			}
		}
		printResult(res)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// printResult prints the header, every metric by name with its unit, and —
// as the last line — the result as one JSON object.
func printResult(res *result) {
	h := res.Header
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d clients=%d gomaxprocs=%d nproc=%d go=%s commit=%s\n",
		h.Workload, h.Seed, h.Seconds, h.Trace, h.Clients, h.GOMAXPROCS, h.NProc, h.GoVersion, h.Commit)
	fmt.Printf("# ops=%d window_s=%.3f window_cpu_s=%.3f steal_s=%.2f slowdown=%.3f setup_slowdown=%.3f warmup_ops=%d setup_reps=%d tail=p%g tail_valid=%t attempted=%d failed=%d correct=%t\n",
		h.Ops, h.WindowS, h.WindowCPUS, h.StealS, h.Slowdown, h.SetupSlowdown, h.WarmupOps, h.SetupReps, h.TailPct, h.TailValid || h.Trace == 1, res.Attempted, res.Failed, res.Correct)
	if h.Note != "" {
		fmt.Printf("# note: %s\n", h.Note)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-40s %16.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res.report)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
