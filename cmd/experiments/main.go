// Command experiments regenerates the paper's evaluation tables and figures
// (§6) on the emulated substrate.
//
// Usage:
//
//	experiments [-fast] [-run name] [-workers n]
//
// where name is one of: table1, figure2, figure5, figure6, table5, figure7,
// figure8, figure9, figure10, figure11, drift, searchtrace, hetero, straggler,
// extension, zerobubble, summary, all (default).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mario/internal/experiments"
)

func main() {
	fast := flag.Bool("fast", false, "run reduced-size experiments")
	run := flag.String("run", "all", "experiment to run (table1, figure2, figure5, figure6, table5, figure7, figure8, figure9, figure10, figure11, drift, searchtrace, hetero, straggler, extension, zerobubble, summary, all)")
	workers := flag.Int("workers", 0, "concurrent tuner evaluations in figure11 (0 = GOMAXPROCS; output is identical)")
	flag.Parse()

	opt := experiments.Opts{Fast: *fast, Workers: *workers}
	w := os.Stdout
	want := func(name string) bool {
		return *run == "all" || strings.EqualFold(*run, name)
	}
	header := func(name, caption string) {
		fmt.Fprintf(w, "\n=== %s — %s ===\n", name, caption)
	}
	fail := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
		os.Exit(1)
	}

	start := time.Now()
	if want("table1") {
		header("Table 1", "peak memory footprint across pipeline schemes")
		rows, err := experiments.Table1(opt)
		if err != nil {
			fail("table1", err)
		}
		experiments.PrintTable1(w, rows)
	}
	if want("figure2") {
		header("Figure 2", "near zero-cost checkpointing on a 4-stage 1F1B pipeline")
		steps, err := experiments.Figure2(opt)
		if err != nil {
			fail("figure2", err)
		}
		experiments.PrintFigure2(w, steps)
	}
	if want("figure5") {
		header("Figure 5", "pipeline visualisation through the Mario simulator")
		if err := experiments.Figure5(w, opt); err != nil {
			fail("figure5", err)
		}
	}
	var fig6Rows, table5Rows []experiments.ThroughputRow
	if want("figure6") || want("summary") {
		header("Figure 6", "throughput on GPT3-1.6B and LLaMA2-3B with 8 GPUs")
		rows, err := experiments.Figure6(opt)
		if err != nil {
			fail("figure6", err)
		}
		fig6Rows = rows
		experiments.PrintThroughput(w, rows)
	}
	if want("table5") || want("summary") {
		header("Table 5", "performance on GPT3-13B and LLaMA2-13B with 32 GPUs")
		rows, err := experiments.Table5(opt)
		if err != nil {
			fail("table5", err)
		}
		table5Rows = rows
		experiments.PrintThroughput(w, rows)
	}
	if want("figure7") {
		header("Figure 7", "peak memory footprint across devices")
		rows, err := experiments.Figure7(opt)
		if err != nil {
			fail("figure7", err)
		}
		experiments.PrintFigure7(w, rows)
	}
	if want("figure8") {
		header("Figure 8", "model parameter scaling on GPT3 with 16 GPUs")
		rows, err := experiments.Figure8(opt)
		if err != nil {
			fail("figure8", err)
		}
		experiments.PrintFigure8(w, rows)
	}
	if want("figure9") {
		header("Figure 9", "sequence length scaling on GPT3-1.6B with 16 GPUs")
		rows, err := experiments.Figure9(opt)
		if err != nil {
			fail("figure9", err)
		}
		experiments.PrintFigure9(w, rows)
	}
	if want("figure10") {
		header("Figure 10", "accuracy of the Mario simulator")
		r, err := experiments.Figure10(opt)
		if err != nil {
			fail("figure10", err)
		}
		experiments.PrintFigure10(w, r)
	}
	if want("figure11") {
		header("Figure 11", "throughput curve along tuning iterations (64-GPU cluster)")
		r, err := experiments.Figure11(opt)
		if err != nil {
			fail("figure11", err)
		}
		experiments.PrintFigure11(w, r)
	}
	if want("drift") {
		header("Drift", "per-instruction predicted-vs-measured alignment (observability demo)")
		r, err := experiments.Drift(opt)
		if err != nil {
			fail("drift", err)
		}
		experiments.PrintDrift(w, r)
	}
	if want("searchtrace") {
		header("Search trace", "telemetry walkthrough: canonical span tree + counters of one traced search")
		r, err := experiments.SearchTrace(opt)
		if err != nil {
			fail("searchtrace", err)
		}
		experiments.PrintSearchTrace(w, r)
	}
	if want("hetero") {
		header("Hetero", "heterogeneity-aware partitioning & placement vs the uniform baseline")
		r, err := experiments.Hetero(opt)
		if err != nil {
			fail("hetero", err)
		}
		experiments.PrintHetero(w, r)
	}
	if want("straggler") {
		header("Straggler", "a slow device eats the bubbles recompute hides in (base vs mario, speed factor)")
		r, err := experiments.Straggler(opt)
		if err != nil {
			fail("straggler", err)
		}
		experiments.PrintStraggler(w, r)
	}
	if want("extension") {
		header("Extension", "ZB-H1 split-backward study (the paper's §8 future work)")
		rows, err := experiments.ExtensionZB(opt)
		if err != nil {
			fail("extension", err)
		}
		experiments.PrintExtensionZB(w, rows)
	}
	if want("zerobubble") {
		header("Zero bubble", "native split-backward schemes vs 1F1B (bubble ratio and peak memory)")
		rows, err := experiments.ZeroBubble(opt)
		if err != nil {
			fail("zerobubble", err)
		}
		experiments.PrintZeroBubble(w, rows)
	}
	if want("summary") {
		header("Speedup summary", "aggregate claims of §6.1/§6.2")
		if fig6Rows != nil {
			experiments.PrintSpeedups(w, "8-GPU grid (Fig. 6)", experiments.Summarise(fig6Rows))
		}
		if table5Rows != nil {
			experiments.PrintSpeedups(w, "32-GPU grid (Table 5)", experiments.Summarise(table5Rows))
		}
	}
	fmt.Fprintf(w, "\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
}
