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
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"mario/internal/experiments"
)

// experiment is one -run name: its header and what it computes and prints.
type experiment struct {
	name, title, caption string
	run                  func(io.Writer, experiments.Opts) error
}

// show runs compute and prints its result with print.
func show[T any](compute func(experiments.Opts) (T, error), print func(io.Writer, T)) func(io.Writer, experiments.Opts) error {
	return func(w io.Writer, opt experiments.Opts) error {
		r, err := compute(opt)
		if err == nil {
			print(w, r)
		}
		return err
	}
}

func main() {
	// Figure 6 and Table 5 keep their rows for the speedup summary, which
	// runs them too.
	var fig6Rows, table5Rows []experiments.ThroughputRow
	keep := func(rows *[]experiments.ThroughputRow, compute func(experiments.Opts) ([]experiments.ThroughputRow, error)) func(io.Writer, experiments.Opts) error {
		return show(compute, func(w io.Writer, r []experiments.ThroughputRow) {
			*rows = r
			experiments.PrintThroughput(w, r)
		})
	}
	list := []experiment{
		{"table1", "Table 1", "peak memory footprint across pipeline schemes", show(experiments.Table1, experiments.PrintTable1)},
		{"figure2", "Figure 2", "near zero-cost checkpointing on a 4-stage 1F1B pipeline", show(experiments.Figure2, experiments.PrintFigure2)},
		{"figure5", "Figure 5", "pipeline visualisation through the Mario simulator", experiments.Figure5},
		{"figure6", "Figure 6", "throughput on GPT3-1.6B and LLaMA2-3B with 8 GPUs", keep(&fig6Rows, experiments.Figure6)},
		{"table5", "Table 5", "performance on GPT3-13B and LLaMA2-13B with 32 GPUs", keep(&table5Rows, experiments.Table5)},
		{"figure7", "Figure 7", "peak memory footprint across devices", show(experiments.Figure7, experiments.PrintFigure7)},
		{"figure8", "Figure 8", "model parameter scaling on GPT3 with 16 GPUs", show(experiments.Figure8, experiments.PrintFigure8)},
		{"figure9", "Figure 9", "sequence length scaling on GPT3-1.6B with 16 GPUs", show(experiments.Figure9, experiments.PrintFigure9)},
		{"figure10", "Figure 10", "accuracy of the Mario simulator", show(experiments.Figure10, experiments.PrintFigure10)},
		{"figure11", "Figure 11", "throughput curve along tuning iterations (64-GPU cluster)", show(experiments.Figure11, experiments.PrintFigure11)},
		{"drift", "Drift", "per-instruction predicted-vs-measured alignment (observability demo)", show(experiments.Drift, experiments.PrintDrift)},
		{"searchtrace", "Search trace", "telemetry walkthrough: canonical span tree + counters of one traced search", show(experiments.SearchTrace, experiments.PrintSearchTrace)},
		{"hetero", "Hetero", "heterogeneity-aware partitioning & placement vs the uniform baseline", show(experiments.Hetero, experiments.PrintHetero)},
		{"straggler", "Straggler", "a slow device eats the bubbles recompute hides in (base vs mario, speed factor)", show(experiments.Straggler, experiments.PrintStraggler)},
		{"extension", "Extension", "ZB-H1 split-backward study (the paper's §8 future work)", show(experiments.ExtensionZB, experiments.PrintExtensionZB)},
		{"zerobubble", "Zero bubble", "native split-backward schemes vs 1F1B (bubble ratio and peak memory)", show(experiments.ZeroBubble, experiments.PrintZeroBubble)},
		{"summary", "Speedup summary", "aggregate claims of §6.1/§6.2", func(w io.Writer, _ experiments.Opts) error {
			if fig6Rows != nil {
				experiments.PrintSpeedups(w, "8-GPU grid (Fig. 6)", experiments.Summarise(fig6Rows))
			}
			if table5Rows != nil {
				experiments.PrintSpeedups(w, "32-GPU grid (Table 5)", experiments.Summarise(table5Rows))
			}
			return nil
		}},
	}
	var names []string
	for _, e := range list {
		names = append(names, e.name)
	}
	names = append(names, "all")

	fast := flag.Bool("fast", false, "run reduced-size experiments")
	run := flag.String("run", "all", "experiment to run ("+strings.Join(names, ", ")+")")
	workers := flag.Int("workers", 0, "concurrent tuner evaluations in figure11 (0 = GOMAXPROCS; output is identical)")
	flag.Parse()
	name := strings.ToLower(*run)
	if !slices.Contains(names, name) {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q; valid: %s\n", *run, strings.Join(names, ", "))
		os.Exit(2)
	}

	opt := experiments.Opts{Fast: *fast, Workers: *workers}
	w := os.Stdout
	start := time.Now()
	for _, e := range list {
		if name != "all" && name != e.name && !(name == "summary" && (e.name == "figure6" || e.name == "table5")) {
			continue
		}
		fmt.Fprintf(w, "\n=== %s — %s ===\n", e.title, e.caption)
		if err := e.run(w, opt); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(w, "\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
}
