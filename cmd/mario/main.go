// Command mario is the CLI front end of the pipeline optimizer: it searches
// for the best (scheme, pp, dp, micro-batch, checkpointing) configuration
// for a model and cluster (Equation 1), prints the tuning trace, visualises
// the winning schedule, and optionally executes it on the emulated cluster
// or exports the timeline.
//
// Usage:
//
//	mario -model GPT3-13B -devices 32 -gbs 128 -mem 40G [-scheme Auto]
//	      [-tp 1] [-workers 0]
//	      [-run 3] [-viz] [-svg out.svg]
//	      [-trace out.json] [-trace-measured out.json] [-events out.jsonl]
//	      [-search-trace out.json] [-search-spans out.jsonl]
//	      [-search-trace-measured out.json] [-search-summary]
//	      [-stats] [-drift] [-pprof cpu.out]
//	      [-remote http://host:8347]
//
// The -search-* flags trace the tuner search itself (as opposed to -trace,
// which exports the winning schedule's timeline): -search-trace writes the
// canonical Chrome trace of the search (structural, byte-identical across
// worker counts), -search-spans the canonical span JSONL, and
// -search-trace-measured the wall-clock Chrome trace of this particular
// run. -search-summary prints the per-phase self-time table.
//
// With -remote the search runs on a mariod planning server instead of in
// process: the flags are sent as a plan request, repeated invocations hit
// the server's plan cache, and everything downstream of the plan (-run,
// -viz, -drift, …) still executes locally. -pprof and the -search-* flags
// observe the local tuner only and are rejected together with -remote
// (remotely, ask mariod for ?trace=1 or /debug/flight).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"time"

	"mario"
	"mario/internal/obs"
	"mario/internal/place"
	"mario/internal/serve/api"
	"mario/internal/serve/client"
	"mario/internal/telemetry"
	"mario/internal/tuner"
	"mario/internal/viz"
)

func main() {
	var (
		modelName = flag.String("model", "GPT3-1.6B", "model preset (GPT3-1.6B, GPT3-13B, LLaMA2-3B, LLaMA2-13B)")
		devices   = flag.Int("devices", 8, "total number of devices")
		gbs       = flag.Int("gbs", 128, "global batch size")
		mem       = flag.String("mem", "40G", "memory per device")
		schemeStr = flag.String("scheme", "Auto", "pipeline scheme: Auto, V/1F1B, X/Chimera, W/Interleave, GPipe, Z/ZB-H1, D/DualPipe-D")
		tp        = flag.Int("tp", 1, "tensor-parallel degree (held constant)")
		workers   = flag.Int("workers", 0, "concurrent tuner evaluations (0 = GOMAXPROCS, 1 = sequential; results are identical)")
		split     = flag.Bool("split", false, "also try ZB-H1 split-backward on checkpointed candidates")
		runIters  = flag.Int("run", 0, "execute the winning schedule for N iterations on the emulated cluster")
		showViz   = flag.Bool("viz", false, "print the winning schedule's timeline as ASCII")
		svgPath   = flag.String("svg", "", "write the winning timeline as SVG to this path")
		tracePath = flag.String("trace", "", "write the winning timeline as Chrome trace JSON to this path")
		emitPath  = flag.String("emit", "", "write the winning instruction-list schedule as JSON to this path")
		traceAll  = flag.Bool("full-trace", false, "print the full tuning trace")

		measuredPath = flag.String("trace-measured", "", "write the measured run's timeline as Chrome trace JSON to this path")
		eventsPath   = flag.String("events", "", "write the measured run's event stream as JSONL to this path")
		showStats    = flag.Bool("stats", false, "print per-device measured stats and tuner search counters")
		showDrift    = flag.Bool("drift", false, "print the predicted-vs-measured drift report")
		speedsArg    = flag.String("device-speeds", "", "per-device relative compute speeds: full list (\"1,0.8,1,1\") or sparse dev=speed overrides (\"2=0.8\"); heterogeneous speeds open the partitioning/placement search")
		placementArg = flag.String("placement", "", "partitioning/placement search mode: auto (default), uniform, coopt")
		pprofPath    = flag.String("pprof", "", "write a CPU profile of the tuner search to this path")
		remoteAddr   = flag.String("remote", "", "plan on a mariod server at this base URL instead of in process")

		searchTracePath    = flag.String("search-trace", "", "write the canonical Chrome trace of the tuner search to this path (byte-identical across worker counts)")
		searchSpansPath    = flag.String("search-spans", "", "write the canonical span JSONL of the tuner search to this path")
		searchMeasuredPath = flag.String("search-trace-measured", "", "write the wall-clock Chrome trace of the tuner search to this path")
		searchSummary      = flag.Bool("search-summary", false, "print the search's per-phase self-time summary")
	)
	flag.Parse()

	if *remoteAddr != "" && *pprofPath != "" {
		fmt.Fprintln(os.Stderr, "mario: -pprof profiles the in-process search; it cannot be combined with -remote")
		os.Exit(2)
	}
	wantSearchTrace := *searchTracePath != "" || *searchSpansPath != "" || *searchMeasuredPath != "" || *searchSummary
	if *remoteAddr != "" && wantSearchTrace {
		fmt.Fprintln(os.Stderr, "mario: the -search-* flags trace the in-process search; with -remote ask the server for ?trace=1 or /debug/flight")
		os.Exit(2)
	}

	model, ok := mario.LookupModel(*modelName)
	if !ok {
		fmt.Fprintf(os.Stderr, "mario: unknown model %q; available:", *modelName)
		for name := range mario.Models() {
			fmt.Fprintf(os.Stderr, " %s", name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}

	deviceSpeeds, err := place.ParseSpeeds(*speedsArg, *devices)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mario: %v\n", err)
		os.Exit(2)
	}
	// The workload is described once, as the request mariod would be sent, and
	// resolved here (a bad flag exits 2 whichever way the plan is made): the
	// request goes out as it is with -remote, its resolution is searched in
	// process without, and the tracer is keyed by the resolution's fingerprint
	// — so span IDs agree between local traces and the planning service.
	req := api.PlanRequest{
		Model:         *modelName,
		Scheme:        *schemeStr,
		GlobalBatch:   *gbs,
		Devices:       *devices,
		Memory:        *mem,
		TP:            *tp,
		SplitBackward: *split,
		Workers:       *workers,
		DeviceSpeeds:  deviceSpeeds,
		Placement:     *placementArg,
	}
	wl, err := req.Resolve()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mario: %v\n", err)
		os.Exit(2)
	}

	wantObs := *measuredPath != "" || *eventsPath != "" || *showStats || *showDrift
	if wantObs && *runIters <= 0 {
		fmt.Fprintln(os.Stderr, "mario: -trace-measured/-events/-stats/-drift need a measured run; assuming -run 1")
		*runIters = 1
	}

	if *pprofPath != "" {
		f, err := os.Create(*pprofPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mario: pprof: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mario: pprof: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var plan *mario.Plan
	if *remoteAddr != "" {
		plan, err = remotePlan(*remoteAddr, req, *showStats)
	} else {
		conf := mario.Config{Workers: *workers} // the run's half; wl is the workload's
		var tracer *telemetry.Tracer
		if wantSearchTrace {
			tracer = telemetry.New(wl.Fingerprint())
			conf.Tracer = tracer
		}
		if *showStats {
			conf.Progress = func(explored int, bestLabel string, bestThroughput float64) {
				fmt.Fprintf(os.Stderr, "\rtuner: explored %4d  best %-18s %10.2f samples/s", explored, bestLabel, bestThroughput)
			}
		}
		plan, err = wl.Optimize(context.Background(), conf)
		if conf.Progress != nil {
			fmt.Fprintln(os.Stderr)
		}
		if err == nil && tracer != nil {
			writeSearchTraces(tracer.Snapshot(), *searchTracePath, *searchSpansPath, *searchMeasuredPath, *searchSummary)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mario: %v\n", err)
		os.Exit(1)
	}

	best := plan.Best
	fmt.Printf("model %s on %d devices (gbs %d, mem %s, tp %d)\n", model.Name, *devices, *gbs, *mem, *tp)
	fmt.Printf("best configuration: %s  pp=%d dp=%d mbs=%d micros=%d ckpt=%v\n",
		best.Label(), best.PP, best.DP, best.MicroBatch, best.Micros, best.Ckpt)
	fmt.Printf("estimated throughput: %.2f samples/s\n", best.Throughput)
	if best.Result != nil {
		lo, hi := best.Result.MinMaxPeak()
		fmt.Printf("estimated peak memory: [%.2f, %.2f] GB\n", lo/(1<<30), hi/(1<<30))
	}
	if *showStats {
		st := plan.SearchStats
		fmt.Printf("tuner search: explored %d, OOM-rejected %d, pruned %d structural + %d by bound + %d by memory, best improved %d times\n",
			st.Explored, st.OOMRejected, st.Pruned, st.BoundPruned, st.MemPruned, st.Improved)
	}

	if *traceAll {
		fmt.Println("\ntuning trace:")
		for i, c := range plan.Trace {
			oom := ""
			if c.OOM {
				oom = " OOM"
			}
			fmt.Printf("  iter %3d %-18s %10.2f%s\n", i, c.Label(), c.Throughput, oom)
		}
		fmt.Println("\nranked:")
		for i, c := range tuner.Rank(plan.Trace) {
			if i >= 10 {
				break
			}
			fmt.Printf("  #%2d %-18s %10.2f\n", i+1, c.Label(), c.Throughput)
		}
	}

	if *showViz || *svgPath != "" || *tracePath != "" {
		// Plans store no timeline: Best is re-simulated for its records, on a
		// fresh plan exactly as on one a server sent.
		res, err := mario.Resimulate(plan, &plan.Best)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mario: %v\n", err)
			os.Exit(1)
		}
		if *showViz {
			fmt.Println()
			fmt.Print(viz.ASCII(res.Timeline, 0))
		}
		if *svgPath != "" {
			export(*svgPath, "SVG", func(w io.Writer) error { return viz.SVG(w, res.Timeline) })
		}
		if *tracePath != "" {
			export(*tracePath, "trace", func(w io.Writer) error { return viz.ChromeTrace(w, res.Timeline) })
		}
	}
	if *emitPath != "" {
		export(*emitPath, "schedule", func(w io.Writer) error { return mario.SaveSchedule(w, best.Schedule) })
	}

	if *runIters > 0 {
		rep, err := mario.RunWithOptions(plan, *runIters, mario.RunOptions{CollectEvents: wantObs})
		if err != nil {
			fmt.Fprintf(os.Stderr, "mario: run: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nexecuted %d iterations on the emulated cluster:\n", *runIters)
		fmt.Printf("  measured iteration time: %.4f s\n", rep.IterTime)
		fmt.Printf("  measured throughput:     %.2f samples/s\n", rep.SamplesPerSec)
		fmt.Printf("  measured peak memory:    [%.2f, %.2f] GB\n", rep.PeakMemMin/(1<<30), rep.PeakMemMax/(1<<30))

		if *measuredPath != "" {
			export(*measuredPath, "measured trace", func(w io.Writer) error { return viz.ChromeTrace(w, rep.Events) })
		}
		if *eventsPath != "" {
			export(*eventsPath, "events", func(w io.Writer) error { return obs.WriteJSONL(w, rep.Events) })
		}
		if *showStats && rep.Stats != nil {
			fmt.Println("\nmeasured per-device stats:")
			fmt.Print(rep.Stats.Table())
		}
		if *showDrift {
			dr, err := mario.Drift(plan, rep)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mario: drift: %v\n", err)
				os.Exit(1)
			}
			fmt.Println()
			fmt.Print(dr.Format())
		}
	}
}

// export writes one artifact to path with write, exiting on failure.
func export(path, what string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mario: writing %s: %v\n", what, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)
}

// writeSearchTraces exports the search trace in the requested forms and
// prints the per-phase summary when asked.
func writeSearchTraces(tr *telemetry.Trace, tracePath, spansPath, measuredPath string, summary bool) {
	if tracePath != "" {
		export(tracePath, "search trace", func(w io.Writer) error { return viz.SearchChromeTrace(w, tr) })
	}
	if spansPath != "" {
		export(spansPath, "search spans", func(w io.Writer) error { _, err := w.Write(tr.JSONL()); return err })
	}
	if measuredPath != "" {
		export(measuredPath, "measured search trace", func(w io.Writer) error { return viz.SearchChromeTraceMeasured(w, tr) })
	}
	if summary {
		fmt.Println("\nsearch phase summary (self time):")
		var total time.Duration
		for _, row := range tr.PhaseSummary() {
			total += row.Self
			fmt.Printf("  %-12s n=%-5d self=%v\n", row.Phase, row.Count, row.Self.Round(time.Microsecond))
		}
		fmt.Printf("  %-12s %8s total=%v\n", "", "", total.Round(time.Microsecond))
	}
}

// remotePlan fetches the plan from a mariod server, streaming progress to
// stderr when showStats is set, and reports whether the server answered
// from its cache.
func remotePlan(addr string, req api.PlanRequest, showStats bool) (*mario.Plan, error) {
	c := client.New(addr)
	ctx := context.Background()
	var resp *api.PlanResponse
	var err error
	if showStats {
		resp, err = c.PlanStream(ctx, req, func(ev api.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "\rtuner: explored %4d  best %-18s %10.2f samples/s", ev.Explored, ev.Best, ev.BestThroughput)
		})
		fmt.Fprintln(os.Stderr)
	} else {
		resp, err = c.Plan(ctx, req)
	}
	if err != nil {
		return nil, err
	}
	switch {
	case resp.Cached:
		fmt.Fprintf(os.Stderr, "mario: plan served from %s cache (%.12s…)\n", addr, resp.Fingerprint)
	case resp.Shared:
		fmt.Fprintf(os.Stderr, "mario: plan shared with an identical in-flight request on %s\n", addr)
	}
	return client.Decode(resp)
}
