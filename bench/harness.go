package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mario"
)

// report is the last line of a run's standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is a report with the header it was measured under; -append stores
// the whole of it.
type result struct {
	Header header `json:"header"`
	report
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// header records what a number depends on besides the code under test.
type header struct {
	Workload  string  `json:"workload"`
	Seed      uint64  `json:"seed"`
	Seconds   int     `json:"seconds"`
	Trace     int     `json:"trace"`
	Clients   int     `json:"clients"`
	Ops       int     `json:"ops"`
	WindowS   float64 `json:"window_s"`
	WarmupOps int     `json:"warmup_ops"`
	SetupReps int     `json:"setup_reps"`
	// WindowCPUS is the CPU time the process used during the window and
	// StealS the time the hypervisor gave this machine's CPUs to others:
	// a run with much steal was measured on a slower machine.
	WindowCPUS float64 `json:"window_cpu_s"`
	StealS     float64 `json:"steal_s"`
	// Slowdown and SetupSlowdown are the calibration kernel's median time
	// over calibReference during the window and during set-up: the
	// wall-clock metrics are the measured values divided by them.
	Slowdown      float64 `json:"slowdown"`
	SetupSlowdown float64 `json:"setup_slowdown"`
	TailPct       float64 `json:"tail_pct"`
	TailValid     bool    `json:"tail_valid"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NProc         int     `json:"nproc"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	Note          string  `json:"note,omitempty"`
}

// Set-up is repeated and setup_s is the median, so that one slow set-up does
// not decide the metric; the repeats stop early on workloads whose set-up is
// seconds long.
const (
	setupReps   = 3
	setupBudget = 6 * time.Second
)

// Warm-up ops are discarded: at least warmupOps of them and at least
// warmupTime.
const (
	warmupOps  = 2
	warmupTime = time.Second
)

// quality holds the exact metrics of one set-up.
type quality struct {
	planMB, planSPS, runSPS, peakGB, fidelityPct float64
}

// measureQuality plans the canonical inputs and executes each plan on the
// emulator: encoded size, predicted and measured throughput, peak memory and
// the gap between prediction and measurement.
func measureQuality(st *state) (quality, error) {
	var q quality
	plans, err := st.canonical()
	if err != nil {
		return q, err
	}
	var mb, plan, run, peak, fid []float64
	for _, p := range plans {
		data, err := json.Marshal(p)
		if err != nil {
			return q, err
		}
		rep, err := mario.Run(p, 10)
		if err != nil {
			return q, fmt.Errorf("emulator run: %w", err)
		}
		if p.Best.Throughput <= 0 || rep.SamplesPerSec <= 0 {
			return q, fmt.Errorf("canonical plan %s has no throughput", p.Best.Label())
		}
		mb = append(mb, float64(len(data))/1e6)
		plan = append(plan, p.Best.Throughput)
		run = append(run, rep.SamplesPerSec)
		peak = append(peak, rep.PeakMemMax/1e9)
		fid = append(fid, math.Abs(p.Best.Throughput-rep.SamplesPerSec)/rep.SamplesPerSec*100)
	}
	return quality{mean(mb), geomean(plan), geomean(run), geomean(peak), mean(fid)}, nil
}

// setUp prepares the workload reps times (fewer once budget is spent),
// closing all but the last set-up, and returns the last one with the time
// each took in seconds. The calibration kernel runs before and after each
// set-up; its samples are returned too.
func setUp(w *workload, seed uint64, reps int, withQuality bool) (*state, quality, []float64, *calibLog, error) {
	var st *state
	var q quality
	var times []float64
	var cal calibrator
	calib := &calibLog{}
	sample := func() {
		for i := 0; i < 3; i++ {
			calib.add(cal.run())
		}
	}
	begin := time.Now()
	for len(times) < reps && (len(times) == 0 || time.Since(begin) < setupBudget) {
		if st != nil {
			st.close()
		}
		sample()
		t0 := time.Now()
		var err error
		if st, err = w.prepare(seed); err != nil {
			return nil, q, nil, nil, err
		}
		if withQuality {
			if q, err = measureQuality(st); err != nil {
				st.close()
				return nil, q, nil, nil, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
		sample()
	}
	return st, q, times, calib, nil
}

// runOps runs ops from *next on `clients` closed-loop generators until stop
// says so: each generator issues its next op only after its previous one
// completed.
func runOps(st *state, clients int, next *atomic.Int64, stop func(done int) bool) *opLog {
	log := &opLog{}
	var done atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cal calibrator
			for !stop(int(done.Load())) {
				if cal.due() {
					log.calib.add(cal.run())
				}
				i := next.Add(1) - 1
				t0 := time.Now()
				r := st.op(i, nil)
				log.add(time.Since(t0), r)
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return log
}

// window is a timed run of ops with the process-wide counters around it.
type window struct {
	log           *opLog
	elapsed       time.Duration
	before, after runtime.MemStats
	cpu, steal    time.Duration
}

// timedWindow collects garbage, then runs ops until stop says so.
func timedWindow(st *state, clients int, next *atomic.Int64, stop func(done int, elapsed time.Duration) bool) window {
	var w window
	runtime.GC()
	runtime.ReadMemStats(&w.before)
	cpu0, steal0 := processCPU(), hostSteal()
	t0 := time.Now()
	w.log = runOps(st, clients, next, func(done int) bool { return stop(done, time.Since(t0)) })
	w.elapsed = time.Since(t0)
	w.cpu, w.steal = processCPU()-cpu0, hostSteal()-steal0
	runtime.ReadMemStats(&w.after)
	return w
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal is the time this machine's CPUs were taken by the hypervisor
// since boot (0 where /proc/stat does not tell).
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return time.Duration(ticks / 100 * float64(time.Second)) // USER_HZ is 100 on Linux
}

// warmUp runs and discards the first ops and returns the very first op's
// time.
func warmUp(st *state, clients int, next *atomic.Int64) (first time.Duration, log *opLog) {
	t0 := time.Now()
	log = runOps(st, 1, next, func(done int) bool { return done >= 1 })
	first = time.Since(t0)
	rest := runOps(st, clients, next, func(done int) bool {
		return done+1 >= warmupOps && time.Since(t0) >= warmupTime
	})
	log.attempted += rest.attempted
	log.failed += rest.failed
	if log.firstErr == nil {
		log.firstErr = rest.firstErr
	}
	return first, log
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// clientsFor is the workload's client count, never more than the machine
// has processors: an oversubscribed load generator measures itself.
func clientsFor(w *workload) (int, string) {
	if n := runtime.NumCPU(); w.clients > n {
		return n, fmt.Sprintf("clients lowered from %d to nproc=%d", w.clients, n)
	}
	return w.clients, ""
}

func newHeader(w *workload, seed uint64, seconds, trace int) header {
	clients, note := clientsFor(w)
	commit := os.Getenv("MARIO_BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return header{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Clients: clients,
		TailPct: w.tailPct, GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit, Note: note,
	}
}

// tally counts the ops of a run and collects what was wrong with it.
type tally struct {
	attempted, failed int
	problems          []error
}

func (t *tally) count(log *opLog) {
	t.attempted += log.attempted
	t.failed += log.failed
	if log.firstErr != nil {
		t.problems = append(t.problems, fmt.Errorf("failed op: %w", log.firstErr))
	}
}

// finish turns measured values into the run's result, checking them against
// the declared metric table.
func finish(h header, w *workload, v values, defs []metricDef, layered bool, t *tally) (*result, error) {
	vals, err := v.checked(defs, w, layered)
	if err != nil {
		return nil, err
	}
	res := &result{Header: h, report: report{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}}
	for i, d := range defs {
		if math.IsNaN(vals[i]) || math.IsInf(vals[i], 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, vals[i])
		}
		res.Metrics[d.Name] = metric{Value: vals[i], Unit: d.Unit}
	}
	for _, p := range t.problems {
		fmt.Fprintf(os.Stderr, "bench: incorrect: %v\n", p)
	}
	res.Correct = t.failed == 0 && len(t.problems) == 0
	return res, nil
}

// runEndToEnd is the untraced run: set-up, warm-up, one timed window.
func runEndToEnd(w *workload, seed uint64, seconds int) (*result, error) {
	h := newHeader(w, seed, seconds, 0)
	kernelMallocs, kernelBytes := kernelCost()
	st, q, setups, setupCalib, err := setUp(w, seed, setupReps, true)
	if err != nil {
		return nil, err
	}
	defer st.close()
	var next atomic.Int64
	_, warm := warmUp(st, h.Clients, &next)
	win := timedWindow(st, h.Clients, &next, func(_ int, elapsed time.Duration) bool {
		return elapsed >= time.Duration(seconds)*time.Second
	})
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	log := win.log
	var t tally
	t.count(warm)
	t.count(log)
	ops := len(log.durs)
	if ops == 0 {
		return nil, fmt.Errorf("no op completed correctly in the window (first error: %v)", log.firstErr)
	}
	durs := millisOf(log.durs)
	tail, tailValid := pinnedTail(durs, w.tailPct)
	h.Ops, h.WindowS, h.WarmupOps, h.SetupReps, h.TailValid = ops, win.elapsed.Seconds(), warm.attempted, len(setups), tailValid
	h.WindowCPUS, h.StealS = win.cpu.Seconds(), win.steal.Seconds()
	// The machine's own speed is divided out of the wall-clock metrics; see
	// calib.go.
	slow, setupSlow := log.calib.slowdown(), setupCalib.slowdown()
	h.Slowdown, h.SetupSlowdown = slow, setupSlow
	if !tailValid {
		fmt.Fprintf(os.Stderr, "bench: p%g of %d ops has fewer than %d samples beyond it: op_ms_tail is under-sampled\n",
			w.tailPct, ops, minBeyond)
	}
	kernels := float64(len(log.calib.samples)) // the kernel's own allocations are left out
	v := values{
		"setup_s":            median(setups) / setupSlow,
		"op_ms_p50":          median(durs) / slow,
		"op_ms_tail":         tail / slow,
		"ops_per_s":          float64(ops) / win.elapsed.Seconds() * slow,
		"alloc_mb_per_op":    (float64(win.after.TotalAlloc-win.before.TotalAlloc) - kernels*kernelBytes) / 1e6 / float64(ops),
		"allocs_per_op":      (float64(win.after.Mallocs-win.before.Mallocs) - kernels*kernelMallocs) / float64(ops),
		"peak_rss_mb":        rss,
		"plan_mb":            q.planMB,
		"plan_samples_per_s": q.planSPS,
		"run_samples_per_s":  q.runSPS,
		"plan_peak_mem_gb":   q.peakGB,
		"fidelity_err_pct":   q.fidelityPct,
	}
	return finish(h, w, v, endToEnd, false, &t)
}
