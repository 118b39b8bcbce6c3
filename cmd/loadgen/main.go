// Command loadgen drives synthetic plan-request load against a mariod
// planning fleet and prints latency quantiles (p50/p90/p99), cache and
// peer-routing hit rates, and 429/503 admission pushback.
//
// Point it at running daemons:
//
//	loadgen -targets http://10.0.0.1:8347,http://10.0.0.2:8347 -n 5000 -c 128
//
// or let it boot a loopback fleet in-process (coordinator + routed members,
// useful for a self-contained benchmark on one machine):
//
//	loadgen -loopback 3 -n 2000 -c 64 -mix 4
//
// The workload mix is -mix distinct fingerprints (global batch stepped per
// variant) cycled deterministically, so a long run converges to the cache-
// hit-dominated steady state a planning fleet actually serves. With -json
// the aggregate Result is printed as one JSON object instead of text.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mario/internal/serve"
	"mario/internal/serve/api"
	"mario/internal/serve/loadgen"
)

func main() {
	var (
		targets  = flag.String("targets", "", "comma-separated fleet base URLs to load")
		loopback = flag.Int("loopback", 0, "boot this many loopback fleet members in-process instead of using -targets")
		n        = flag.Int("n", 2000, "total requests")
		c        = flag.Int("c", 64, "concurrent requests in flight")
		mix      = flag.Int("mix", 4, "distinct workload fingerprints in the mix")
		model    = flag.String("model", "LLaMA2-3B", "model preset for the workload")
		devices  = flag.Int("devices", 4, "cluster size for the workload")
		batch    = flag.Int("batch", 16, "base global batch size (stepped per mix variant)")
		memory   = flag.String("memory", "40G", "per-device memory budget")
		micros   = flag.String("micros", "1,2", "comma-separated micro-batch sizes to search")
		workers  = flag.Int("serve-workers", 0, "loopback members' tuner pool size (0 = serve default)")
		queue    = flag.Int("serve-queue", 0, "loopback members' admission queue depth (0 = serve default)")
		timeout  = flag.Duration("timeout", 10*time.Minute, "overall run budget")
		jsonOut  = flag.Bool("json", false, "print the aggregate result as JSON")
	)
	flag.Parse()

	mbs, err := parseInts(*micros)
	if err != nil {
		fatal("parsing -micros: %v", err)
	}
	base := api.PlanRequest{
		Model:        *model,
		Devices:      *devices,
		GlobalBatch:  *batch,
		Memory:       *memory,
		MicroBatches: mbs,
	}
	if _, err := base.Validate(); err != nil {
		fatal("workload invalid: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	urls := splitNonEmpty(*targets)
	if *loopback > 0 {
		if len(urls) > 0 {
			fatal("-targets and -loopback are mutually exclusive")
		}
		members, err := loadgen.BootLoopback(*loopback, serve.Options{Workers: *workers, QueueDepth: *queue, TunerWorkers: *workers})
		if err != nil {
			fatal("booting loopback fleet: %v", err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			for _, m := range members {
				m.HTTP.Shutdown(ctx)
				m.Server.Close()
			}
		}()
		for _, m := range members {
			urls = append(urls, m.URL)
		}
		fmt.Fprintf(os.Stderr, "loadgen: loopback fleet up: %s\n", strings.Join(urls, " "))
	}
	if len(urls) == 0 {
		fatal("no targets: pass -targets or -loopback")
	}

	res, err := loadgen.Run(ctx, loadgen.Options{
		Targets:     urls,
		Workloads:   loadgen.MixedWorkloads(base, *mix),
		Requests:    *n,
		Concurrency: *c,
	})
	if err != nil {
		fatal("%v", err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res)
		return
	}
	fmt.Print(res.Summary())
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitNonEmpty(s) {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}
