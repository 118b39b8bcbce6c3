// Package tuner implements Mario's automatic schedule tuner (§5.3): a grid
// search over Equation 1's parameters — checkpointing on/off, pipeline
// scheme, PP dimension, DP dimension, micro-batch size — maximising the
// simulator-estimated training throughput under the device-memory
// constraint. Configurations that the simulator predicts to exceed device
// memory score zero (the paper's OOM penalty), and a data-parallel
// efficiency coefficient (0.97 per doubling) models DP scaling.
//
// There is one search driver (Tuner.search): it probes every grid point
// cheaply, orders the feasible ones (best-first by admissible bound, or in
// canonical grid order), and merges their outcomes in that order — pruning
// against the incumbent, keeping the stats, the spans and the trace. Where an
// outcome comes from is an orthogonal choice: an inline evaluation or a
// bounded pool of speculative workers (Tuner.Workers). Every decision is taken
// by the merge against its own incumbent, never by a source, so the best
// candidate, the trace and the SearchStats are identical for every worker
// count. The probe pass builds no schedule: schedules are built on expansion
// only. Each evaluating goroutine keeps the schedules it built (worker), and
// the pool hands all points of one shape to one goroutine, so a grid point's
// checkpoint and placement siblings share one build at any worker count.
package tuner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mario/internal/cost"
	"mario/internal/graph"
	"mario/internal/pipeline"
	"mario/internal/place"
	"mario/internal/profile"
	"mario/internal/scheme"
	"mario/internal/sim"
	"mario/internal/telemetry"
)

// Space is the search space of Equation 1.
type Space struct {
	// Devices is the total accelerator count D.
	Devices int
	// GlobalBatch is the fixed global batch size (samples per iteration).
	GlobalBatch int
	// Schemes lists the candidate pipeline schemes b; nil means {V, X, W}.
	Schemes []pipeline.Scheme
	// Checkpoint lists the candidate values of a; nil means {false, true}.
	Checkpoint []bool
	// MinPP and MaxPP bound the pipeline-parallel dimension; zero values
	// default to the paper's 4 ≤ pp ≤ D.
	MinPP, MaxPP int
	// MicroBatches lists candidate micro-batch sizes; nil means powers of
	// two up to 32.
	MicroBatches []int
	// TP is the fixed tensor-parallel degree (Equation 1 keeps it
	// constant); 0 means 1. TP devices are in addition to Devices.
	TP int
	// DeviceMem is the per-device memory budget dmem in bytes; zero
	// disables the OOM penalty.
	DeviceMem float64
	// SplitBackward additionally tries the ZB-H1-style split-backward
	// transformation on each checkpointed candidate, keeping it when the
	// simulator confirms an improvement within the memory budget.
	SplitBackward bool
	// MaxRounds bounds the prepose search inside graph.Optimize; 0 means
	// graph.DefaultMaxRounds.
	MaxRounds int
	// NoPrune gives every point an infinite throughput bound and no memory
	// verdict, so nothing is pruned: every structurally feasible point is
	// simulated, in canonical grid order, and the trace contains the full
	// Fig. 11 curve. Benchmarks also use it to compare equal amounts of work
	// across worker counts.
	NoPrune bool
	// NoBnB expands the points in canonical grid order — the order the
	// paper's sequential search walks — instead of best-first by bound. The
	// same bounds prune against the same incumbent rule either way and the
	// best candidate is identical; best-first finds a strong incumbent early
	// and typically simulates far fewer points.
	NoBnB bool
	// DeviceSpeeds declares the relative compute speed of each physical
	// device (1 = nominal); nil or all-ones means a homogeneous cluster and
	// keeps the search byte-identical to one without the field. Entries map
	// to devices in data-parallel-replica-major order: replica k runs on
	// devices [k·pp, (k+1)·pp). Lists shorter than the device count treat
	// missing entries as nominal.
	DeviceSpeeds []float64
	// Placement selects the partitioning/placement axis (see place.Mode):
	// ModeAuto (the default) explores the co-optimized assignment alongside
	// the uniform baseline on heterogeneous clusters and collapses to the
	// legacy behaviour on homogeneous ones; ModeUniform forces the even
	// split with identity placement; ModeCoOpt forces the co-optimized
	// assignment (useful even on homogeneous clusters, where the DP shifts
	// layers off the embedding- and LM-head-heavy boundary stages).
	Placement place.Mode
}

// The default axes. WithDefaults hands out these slices themselves — a resolved
// Space is read, never written (enumerate ranges over its axes) — so resolving
// a request allocates none of them.
var (
	defaultSchemes      = []pipeline.Scheme{pipeline.Scheme1F1B, pipeline.SchemeChimera, pipeline.SchemeInterleave}
	defaultCheckpoint   = []bool{false, true}
	defaultMicroBatches = []int{1, 2, 4, 8, 16, 32}
)

// WithDefaults resolves every spelling of a default to the default: the space
// it returns is the one the search walks, and two spaces that enumerate the
// same grid under the same budget come back equal — which is what lets
// mario.Resolve hash the result as a workload's identity. It is idempotent.
// How many goroutines evaluate the grid is the running search's business
// (Tuner.Workers), not the space's.
func (s Space) WithDefaults() Space {
	if s.Schemes == nil {
		s.Schemes = defaultSchemes
	}
	if s.Checkpoint == nil {
		s.Checkpoint = defaultCheckpoint
	}
	if s.MinPP <= 0 {
		s.MinPP = 4
		if s.MinPP > s.Devices {
			s.MinPP = s.Devices
		}
	}
	if s.MaxPP <= 0 || s.MaxPP > s.Devices {
		s.MaxPP = s.Devices
	}
	if s.MicroBatches == nil {
		s.MicroBatches = defaultMicroBatches
	}
	if s.TP <= 0 {
		s.TP = 1
	}
	if s.MaxRounds <= 0 {
		s.MaxRounds = graph.DefaultMaxRounds
	}
	if place.Homogeneous(s.DeviceSpeeds) {
		// All-nominal speed lists normalize to nil so a "1,1,…,1" spec is
		// byte-identical to no spec at all.
		s.DeviceSpeeds = nil
	}
	if s.Placement == "" || (s.Placement == place.ModeUniform && s.DeviceSpeeds == nil) {
		// On a homogeneous cluster the uniform split is what auto explores
		// (placementModes gives both the one axis-free point).
		s.Placement = place.ModeAuto
	}
	return s
}

// placementModes lists the placement-axis values enumerate appends to each
// grid coordinate. The empty mode is the legacy axis-free point: homogeneous
// clusters under ModeAuto (or ModeUniform, which is the legacy behaviour
// there) produce exactly that, keeping the grid — and with it every key,
// span and stat — byte-identical to a search without the subsystem.
func placementModes(space Space) []place.Mode {
	hetero := !place.Homogeneous(space.DeviceSpeeds)
	switch space.Placement {
	case place.ModeUniform:
		if hetero {
			return []place.Mode{place.ModeUniform}
		}
		return []place.Mode{""}
	case place.ModeCoOpt:
		return []place.Mode{place.ModeCoOpt}
	default:
		if hetero {
			return []place.Mode{place.ModeUniform, place.ModeCoOpt}
		}
		return []place.Mode{""}
	}
}

// Candidate is one evaluated configuration. The paper labels candidates
// x-y-z = scheme-PP-mbs.
type Candidate struct {
	Scheme     pipeline.Scheme
	Ckpt       bool
	PP, DP     int
	MicroBatch int
	Micros     int
	// Throughput is the estimated end-to-end samples/sec (0 when the
	// simulator predicts OOM).
	Throughput float64
	// OOM reports the memory penalty.
	OOM bool
	// Result is the simulation result the candidate was scored with: its
	// totals — makespan, per-device peak memory and compute-busy time,
	// throughput, OOM verdict — and never a per-instruction Timeline, which
	// Resimulate derives on demand.
	Result *sim.Result
	// Schedule is the schedule the candidate ran. A search's winner carries it
	// and nothing else does — not a trace entry, in a fresh plan exactly as in
	// a decoded one (version-1 and -2 plan bodies keep the trace schedules
	// they decoded): a candidate's schedule is a pure function of its
	// coordinates and the searched Space, and Resimulate rebuilds it on
	// demand. Progress sees the schedule of every candidate this process
	// evaluated.
	Schedule *pipeline.Schedule `json:",omitempty"`
	// PlaceMode records which placement-axis value produced the candidate;
	// empty for legacy axis-free points. The omitempty tags keep the plan
	// JSON of axis-free candidates byte-identical to the version-1 body.
	PlaceMode place.Mode `json:",omitempty"`
	// Place is the partitioning/placement assignment the candidate was
	// scored with; nil for legacy axis-free points (even split, identity
	// placement, homogeneous speeds).
	Place *place.Assignment `json:",omitempty"`
}

// Label renders the paper's x-y-z naming plus the Mario flag, suffixed with
// the placement mode when the candidate carries one.
func (c Candidate) Label() string {
	return label(c.Scheme, c.PP, c.MicroBatch, c.Ckpt, c.PlaceMode)
}

// label is the one spelling of a candidate's coordinates, shared by
// Candidate.Label and the span key of its grid point.
func label(sch pipeline.Scheme, pp, mbs int, ckpt bool, pmode place.Mode) string {
	tag := "(base)"
	if ckpt {
		tag = "(mario)"
	}
	if pmode != "" {
		tag += "+" + string(pmode)
	}
	return sch.Shape() + "-" + strconv.Itoa(pp) + "-" + strconv.Itoa(mbs) + tag
}

// SearchStats counts what one Search call explored — the tuner's own
// observability: how much of the grid was simulated, how much the memory
// penalty rejected, and how much was skipped before simulation. All counters
// are accumulated in canonical grid order, so they are identical for every
// Tuner.Workers value.
type SearchStats struct {
	// Explored counts candidates that reached the simulator (they appear
	// in the trace).
	Explored int
	// OOMRejected counts explored candidates zeroed by the memory penalty.
	OOMRejected int
	// Pruned counts grid points skipped as structurally impossible before
	// any simulation (indivisible batch, scheme constraints, too few
	// layers).
	Pruned int
	// BoundPruned counts feasible grid points whose admissible throughput
	// upper bound could not beat the best already found, so their
	// simulation was skipped. Zero when Space.NoPrune is set.
	BoundPruned int
	// MemPruned counts feasible grid points whose admissible memory lower
	// bound already exceeds Space.DeviceMem while the incumbent throughput
	// is positive: their simulated throughput is provably zero (Equation
	// 1's OOM penalty), so their simulation is skipped. Zero when
	// Space.NoPrune is set.
	MemPruned int
	// Improved counts how many times the best-so-far advanced. It depends on
	// the expansion order (best-first or Space.NoBnB's canonical order); the
	// final best does not.
	Improved int
}

// invariant reports the expansion-order-invariant digest of the stats: the
// structural-prune count and the total number of feasible points, which every
// expansion order partitions between explored and pruned. Equivalence tests
// compare this across orders.
func (s SearchStats) invariant() (pruned, feasible int) {
	return s.Pruned, s.Explored + s.BoundPruned + s.MemPruned
}

// Tuner runs the grid search using a profiler as the estimator source E and
// the simulator as the performance model F. Everything that shapes the plan is
// in the Space it searches; the other fields only say how a search runs and
// what it reports.
type Tuner struct {
	Prof *profile.Profiler
	// Workers bounds the number of concurrent grid-point evaluations;
	// 0 means GOMAXPROCS, 1 evaluates inline with no goroutines. Results
	// are identical for every worker count.
	Workers int
	// Progress, when non-nil, is invoked after every explored candidate
	// with that candidate and the best found so far (Fig. 11's curve,
	// streamed). It runs on the merging goroutine in expansion order,
	// regardless of Workers.
	Progress func(c Candidate, best Candidate)
	// Span, when live, parents the telemetry of every Search call: each
	// SearchContext records a PhaseSearch subtree under it — one PhasePoint
	// child per grid point (build and graph or sim children when the point
	// was evaluated, none when it was pruned) and one PhaseBound child for
	// the probe pass. Workers record spans speculatively, but only the merge
	// loop attaches them — a speculative evaluation the merge prunes is
	// dropped whole — so the canonical trace exports are byte-identical for
	// every Workers value. The zero Span disables tracing at zero cost.
	Span telemetry.Span
	// Metrics, when non-nil, receives the search counters as registry
	// series when a search ends, completed or not: the grid-outcome counters
	// are the deltas of SearchStats (so the registry and Stats always agree);
	// each evaluating goroutine adds its build reuse and simulation counts
	// when it is done (worker.report). Those are deterministic at Workers 1,
	// where schedules are built on expansion only, so the build misses are
	// the distinct shapes the search explored. A pool builds each shape at
	// most once as well (poolSource hands all of a shape's points to one
	// worker), but it also evaluates points speculatively, so how many
	// shapes it builds depends on scheduling.
	Metrics *telemetry.SearchMetrics

	// Stats describes the most recent Search call. It is written once, when
	// the search returns — completed, failed or cancelled — and is not read
	// or written while a search runs.
	Stats SearchStats
}

// worker is what one evaluating goroutine owns: its simulator engine bundle,
// its schedule Builder and the base schedules it built, by shape. The search
// goroutine (inline evaluation, the merge loop's re-evaluation) holds one and
// every pool worker its own, so nothing in it is shared and nothing is
// locked; the probe pass needs none. A build serves the goroutine's later
// points of the same shape — a grid point's checkpoint and placement siblings
// — which read it and never edit it.
//
// A goroutine done with its worker releases it to the free list (idle), and
// a later search's newWorker takes it from there: what carries over is the
// engines' and the Builder's capacity, never a schedule, a count or a
// simulation (release), so a recycled worker searches exactly like a fresh
// one.
type worker struct {
	eng          *graph.Engines
	b            scheme.Builder
	builds       map[buildKey]*pipeline.Schedule
	hits, misses int64
}

// idle is the free list of released workers, at most GOMAXPROCS + 1 of them:
// a pooled search at the default Workers = GOMAXPROCS holds one per pool
// goroutine and the search goroutine's own, and the next search finds them
// all here. It is a list, not a sync.Pool: a pool drops its contents on garbage
// collection, so whether a search started warm, and what it allocated, would
// depend on when the collector last ran.
var idle struct {
	sync.Mutex
	workers []*worker
}

// buildKey identifies one scheme.Build output. mbs is deliberately absent:
// schedule expansion depends only on the scheme, the pipeline depth and the
// micro-batch count (Interleave always builds scheme.Config's default two
// chunks), so a point's checkpoint and placement siblings share one build.
type buildKey struct {
	scheme  pipeline.Scheme
	devices int
	micros  int
}

// shape is the build a node's evaluation asks its worker for.
func (n bnbNode) shape() buildKey {
	return buildKey{scheme: n.p.scheme, devices: n.p.pp, micros: n.micros}
}

// newWorker takes a released worker off the free list, or makes one.
func newWorker() *worker {
	idle.Lock()
	defer idle.Unlock()
	if n := len(idle.workers); n > 0 {
		w := idle.workers[n-1]
		idle.workers[n-1] = nil
		idle.workers = idle.workers[:n-1]
		return w
	}
	return &worker{eng: graph.NewEngines(), builds: make(map[buildKey]*pipeline.Schedule)}
}

// release empties w — its builds, its build counts, its engines' counts and
// their hold on the last schedule simulated — and puts it on the free list
// unless the list is full. It is the owner's last use of w; an owner that
// reports w does so first.
func (w *worker) release() {
	clear(w.builds)
	w.hits, w.misses = 0, 0
	w.eng.Reset()
	idle.Lock()
	defer idle.Unlock()
	if len(idle.workers) < runtime.GOMAXPROCS(0)+1 {
		idle.workers = append(idle.workers, w)
	}
}

// build returns the base schedule of a (scheme, depth, micro-batch count)
// shape, building it the first time the goroutine asks; materialize is its
// one caller. The schedule is read-only: the graph passes leave their input as
// it was, and an unchecked candidate keeps the build itself.
func (w *worker) build(sch pipeline.Scheme, pp, micros int) (*pipeline.Schedule, error) {
	bk := buildKey{scheme: sch, devices: pp, micros: micros}
	if s, ok := w.builds[bk]; ok {
		w.hits++
		return s, nil
	}
	w.misses++
	s, err := w.b.Build(sch, scheme.Config{Devices: pp, Micros: micros})
	if err != nil {
		return nil, err
	}
	w.builds[bk] = s
	return s, nil
}

// report adds the goroutine's build reuse and simulation counts to the
// registry; the goroutine that owns w calls it once, when done with it.
func (w *worker) report(m *telemetry.SearchMetrics) {
	w.eng.Report(m)
	m.AddBuilds(w.hits, w.misses)
}

// dpEfficiency is the per-doubling data-parallel scaling coefficient.
const dpEfficiency = 0.97

// dpEff is the data-parallel scaling factor of dp replicas at per-doubling
// efficiency eff: eff^log2(dp), exactly 1 for a single replica.
func dpEff(eff float64, dp int) float64 {
	if dp <= 1 {
		return 1
	}
	return math.Pow(eff, math.Log2(float64(dp)))
}

// gridPoint is one canonical grid coordinate of Equation 1. pmode is the
// placement-axis value; the zero value is the legacy axis-free point.
type gridPoint struct {
	scheme pipeline.Scheme
	ckpt   bool
	pp, dp int
	mbs    int
	pmode  place.Mode
}

// pointResult is what an outcome source reports for one probed node: a
// (possibly speculative) evaluation, or none.
type pointResult struct {
	// cand is the simulated candidate; nil when the source did not evaluate
	// the node (the zero pointResult) or its evaluation failed.
	cand *Candidate
	// failed marks a full evaluation that failed although the probe passed (a
	// graph-pass or simulator error): the merge counts that as a structural
	// prune.
	failed bool
	// err carries a context cancellation observed while evaluating the
	// point. Ordinary evaluation failures (scheme constraints, estimator
	// limits) are never reported here — they stay structural
	// infeasibilities.
	err error
	// span is the detached point span a local evaluation recorded into; the
	// merge loop attaches or discards it.
	span telemetry.Span
}

// mergedBest publishes the throughput of the best candidate merged so far to
// the pool workers (poolSource), as float64 bits. It starts at -Inf, which
// dominates nothing, only ever grows and never exceeds the merge loop's
// incumbent, so a node it dominates (bnbNode.dominatedBy) is one the merge
// loop's own decision is guaranteed to prune — which is what makes a worker's
// skip exact.
type mergedBest struct{ bits atomic.Uint64 }

func (m *mergedBest) store(v float64) { m.bits.Store(math.Float64bits(v)) }

func (m *mergedBest) load() float64 { return math.Float64frombits(m.bits.Load()) }

// enumerate lists the grid in canonical iteration order: scheme-major, then
// checkpointing, then PP (ascending, divisors of D only), then micro-batch
// size — the order the sequential search of the paper walks.
func enumerate(space Space) []gridPoint {
	modes := placementModes(space)
	var points []gridPoint
	for _, b := range space.Schemes {
		for _, a := range space.Checkpoint {
			for pp := space.MinPP; pp <= space.MaxPP; pp++ {
				if space.Devices%pp != 0 {
					continue
				}
				dp := space.Devices / pp
				for _, mbs := range space.MicroBatches {
					for _, pm := range modes {
						points = append(points, gridPoint{scheme: b, ckpt: a, pp: pp, dp: dp, mbs: mbs, pmode: pm})
					}
				}
			}
		}
	}
	return points
}

// gridOf resolves space's defaults and enumerates its grid. The check is the
// tuner's own door — internal/experiments and the tests search Spaces built
// by hand; a mario.Config's were checked by mario.Resolve before it gets here.
func gridOf(space Space) (Space, []gridPoint, error) {
	space = space.WithDefaults()
	if space.Devices <= 0 || space.GlobalBatch <= 0 {
		return space, nil, fmt.Errorf("tuner: devices (%d) and global batch (%d) must be positive", space.Devices, space.GlobalBatch)
	}
	return space, enumerate(space), nil
}

// Search enumerates the space and returns the best candidate plus the
// evaluation trace in canonical grid order (the throughput curve of Fig. 11).
// Whatever evaluates the points — this goroutine or Tuner.Workers goroutines —
// the merge (best tracking, stats, Progress callbacks) is the one loop of
// Tuner.search, so the output is identical for every worker count.
//
// Search never aborts early; use SearchContext to bound or cancel a search.
func (t *Tuner) Search(space Space) (*Candidate, []Candidate, error) {
	return t.SearchContext(context.Background(), space)
}

// SearchContext is Search with cancellation: when ctx is cancelled or its
// deadline passes, the outcome sources stop evaluating grid points, the merge
// loop unwinds, and the call returns ctx's error with no candidate and no
// trace. A completed SearchContext is byte-identical to Search for every
// worker count; a cancelled one leaves in Stats whatever had accumulated at
// the abort point (they describe a prefix of the expansion order).
func (t *Tuner) SearchContext(ctx context.Context, space Space) (*Candidate, []Candidate, error) {
	space, points, err := gridOf(space)
	if err != nil {
		return nil, nil, err
	}
	workers := t.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var stats SearchStats

	tracer := t.Span.Tracer()
	search := t.Span.Child(telemetry.PhaseSearch, "")
	search.SetInt("points", int64(len(points)))
	if space.NoPrune || space.NoBnB {
		search.SetStr("strategy", "grid")
	} else {
		search.SetStr("strategy", "bnb")
	}
	searchStart := time.Now()
	if m := t.Metrics; m != nil {
		m.Searches.Inc()
	}
	// w is the search goroutine's own: the inline evaluations and the merge
	// loop's forced re-evaluations run on it (pool workers hold
	// one each; a worker is not goroutine-safe).
	w := newWorker()
	// The one exit: whatever the search merged before it completed, failed or
	// was cancelled is published here, to Stats and to the registry alike, so
	// the two can never disagree; then w is released.
	defer func() {
		defer w.release()
		search.End()
		t.Stats = stats
		m := t.Metrics
		if m == nil {
			return
		}
		m.SearchSeconds.ObserveDuration(time.Since(searchStart))
		w.report(m)
		m.PointsExplored.Add(int64(stats.Explored))
		m.PointsOOM.Add(int64(stats.OOMRejected))
		m.PointsPruned.Add(int64(stats.Pruned))
		m.PointsBoundPruned.Add(int64(stats.BoundPruned))
		m.PointsMemPruned.Add(int64(stats.MemPruned))
		m.PointsImproved.Add(int64(stats.Improved))
	}()

	best, trace, err := t.search(ctx, space, workers, points, w, tracer, search, &stats)
	if err != nil {
		return nil, nil, err
	}
	if best == nil {
		return nil, nil, fmt.Errorf("tuner: no feasible configuration in the search space")
	}
	// Every point was scored without a timeline and only the incumbent kept its
	// schedule, which the winner keeps with its scoring result. The graph
	// passes do not re-validate the points they explore; the one schedule the
	// search hands out is validated here.
	if err := pipeline.Validate(best.Schedule); err != nil {
		return nil, nil, fmt.Errorf("tuner: winner %s: %w", best.Label(), err)
	}
	return best, trace, nil
}

// admits checks that c's coordinates are ones a search of s enumerates: PP·DP
// is its device count and MicroBatch·Micros·DP its global batch (by division,
// so huge coordinates cannot overflow into agreement). Resimulate runs it
// before anything is sized from the coordinates — they may come from untrusted
// bytes.
func (s Space) admits(c *Candidate) error {
	if c.PP < 1 || c.DP < 1 || c.MicroBatch < 1 || c.Micros < 1 {
		return fmt.Errorf("pp %d, dp %d, micro-batch %d and micro-batch count %d must be positive", c.PP, c.DP, c.MicroBatch, c.Micros)
	}
	if s.Devices%c.PP != 0 || s.Devices/c.PP != c.DP {
		return fmt.Errorf("pp %d × dp %d is not the plan's %d devices", c.PP, c.DP, s.Devices)
	}
	if perReplica := s.GlobalBatch / c.DP; s.GlobalBatch%c.DP != 0 || perReplica%c.MicroBatch != 0 || perReplica/c.MicroBatch != c.Micros {
		return fmt.Errorf("micro-batch %d × %d micro-batches × dp %d is not the plan's global batch %d", c.MicroBatch, c.Micros, c.DP, s.GlobalBatch)
	}
	return nil
}

// Resimulate re-derives a candidate's schedule and its full simulation result,
// per-instruction timeline included, from what the candidate records and the
// space the search walked. The schedule is the one the candidate carries, or —
// for every candidate but a search's winner — the one materialize rebuilds
// from its coordinates, exactly as the search built it. The estimator is
// resolved from the stage count, the micro-batch size and the placement
// assignment, and the schedule is simulated once under the candidate's DP
// degree and the space's memory budget. The search scores every grid point
// without a timeline and stores none; a plan's reader calls this for the
// timeline of any candidate — the winner, which carries its schedule, or a
// trace candidate, fresh or decoded, which carries none and is rebuilt here,
// on demand.
//
// Everything involved is deterministic, so the result must reproduce the
// stored one bit for bit: a candidate whose coordinates are not the space's
// (Space.admits), whose scheme is not registered, whose placement assignment
// is not sized for its shape, or whose stored Total, PeakMem, ComputeBusy,
// SamplesPerSec or OOM disagree — a hand-edited plan, a profiler that is not
// the one the plan was tuned with — is refused. c is not modified.
//
// It builds and simulates on a worker of its own. t contributes its profiler
// and metrics; the knobs come from space, with its defaults applied.
func (t *Tuner) Resimulate(ctx context.Context, c *Candidate, space Space) (*pipeline.Schedule, *sim.Result, error) {
	if t.Prof == nil || c == nil || c.Result == nil {
		return nil, nil, fmt.Errorf("tuner: re-simulation needs a profiler and a simulated candidate")
	}
	fail := func(err error) (*pipeline.Schedule, *sim.Result, error) {
		return nil, nil, fmt.Errorf("tuner: re-simulating %s: %w", c.Label(), err)
	}
	space = space.WithDefaults()
	if err := space.admits(c); err != nil {
		return fail(err)
	}
	sched := c.Schedule
	var stages int
	if sched != nil {
		stages = sched.NumStages()
	} else {
		sh, err := scheme.ShapeOf(c.Scheme, scheme.Config{Devices: c.PP, Micros: c.Micros})
		if err != nil {
			return fail(err)
		}
		stages = sh.Placement.NumStages()
	}
	if a := c.Place; a != nil && (len(a.LayersPerStage) != stages || len(a.DeviceOf) != c.PP ||
		(a.RankSpeed != nil && len(a.RankSpeed) != c.PP)) {
		return fail(fmt.Errorf("placement assignment (%d stages, %d ranks, %d speeds) is not sized for %d stages on %d ranks",
			len(a.LayersPerStage), len(a.DeviceOf), len(a.RankSpeed), stages, c.PP))
	}
	est, err := assignedEstimator(t.Prof, c.Place, stages, c.MicroBatch, space.TP)
	if err != nil {
		return fail(err)
	}
	w := newWorker()
	defer w.release()
	if sched == nil {
		rebuilt := *c
		if err := t.materialize(ctx, space, &rebuilt, est, w, telemetry.Span{}); err != nil {
			return fail(err)
		}
		sched = rebuilt.Schedule
	}
	res, err := w.eng.Main.Simulate(sched, est, sim.Options{DP: c.DP, MemLimit: space.DeviceMem})
	if err != nil {
		return fail(err)
	}
	was := c.Result
	if res.Total != was.Total || res.SamplesPerSec != was.SamplesPerSec || res.OOM != was.OOM ||
		!slices.Equal(res.PeakMem, was.PeakMem) || !slices.Equal(res.ComputeBusy, was.ComputeBusy) {
		return fail(fmt.Errorf("result differs from the stored one (makespan %v vs %v)", res.Total, was.Total))
	}
	return sched, res, nil
}

// Merge-time verdicts on a probed node.
const (
	exploreNode = iota
	memPruneNode
	boundPruneNode
)

// search is the one search driver. The probe pass (probeAll) bounds every
// grid point and orders the feasible nodes; an outcome source, chosen by the
// resolved worker count, evaluates them; and the loop below merges the
// outcomes in node order. The merge owns every decision: a node is
// explored or pruned by decide against the merge's own incumbent, never
// because of what a source did or when it did it — a source may only save
// work by not evaluating a node the incumbent provably dooms — so the best
// candidate, the trace, the stats, the spans and the Progress sequence are
// the same for every source.
//
// The sources: an inline evaluation of exactly the nodes decide explores
// (Workers ≤ 1: never speculates) and the speculative worker pool (poolSource,
// Workers > 1).
func (t *Tuner) search(ctx context.Context, space Space, workers int, points []gridPoint, w *worker, tracer *telemetry.Tracer, search telemetry.Span, stats *SearchStats) (*Candidate, []Candidate, error) {
	nodes, err := t.probeAll(ctx, space, points, tracer, search, stats)
	if err != nil {
		return nil, nil, err
	}

	var best *Candidate
	bestIdx := -1
	mb := &mergedBest{}
	mb.store(math.Inf(-1))
	type traceEnt struct {
		idx int
		c   Candidate
	}
	var ents []traceEnt

	// decide classifies a node against the incumbent.
	decide := func(nd bnbNode) int {
		if best == nil {
			return exploreNode
		}
		if nd.doomed && best.Throughput > 0 {
			return memPruneNode
		}
		// A node whose bound cannot beat the incumbent — or can at most tie
		// it from a later canonical index, losing the tie-break — never
		// changes the result.
		if nd.ub < best.Throughput || (nd.ub == best.Throughput && nd.idx > bestIdx) {
			return boundPruneNode
		}
		return exploreNode
	}

	var next func(j int) pointResult
	if workers > 1 && len(nodes) > 1 {
		var wait func()
		next, wait = t.poolSource(ctx, space, workers, nodes, mb, tracer)
		defer wait()
	} else {
		next = func(j int) pointResult {
			if decide(nodes[j]) != exploreNode {
				return pointResult{}
			}
			return t.evalTraced(ctx, space, nodes[j], w, tracer)
		}
	}

	for j, nd := range nodes {
		pr := next(j)
		sp := pr.span
		// Checked here and not left to the sources: one that skipped every
		// remaining node never observes a cancellation, and a cancelled
		// search must abort, not complete.
		if err := ctx.Err(); err != nil {
			sp.Discard()
			return nil, nil, err
		}
		if verdict := decide(nd); verdict != exploreNode {
			// A speculative evaluation the incumbent overtook is dropped whole
			// and the prune span synthesized, so the canonical telemetry never
			// depends on scheduling.
			sp.Discard()
			ps := pointSpan(tracer, nd.idx, nd.p)
			if verdict == memPruneNode {
				stats.MemPruned++
				ps.SetStr("result", "memory_pruned")
				ps.SetFloat("mem_lb", nd.memLB)
			} else {
				stats.BoundPruned++
				ps.SetStr("result", "bound_pruned")
				ps.SetFloat("ub", nd.ub)
			}
			ps.End()
			ps.AttachTo(search)
			continue
		}
		if pr.cand == nil && !pr.failed {
			// The node must be explored and the pool skipped it: a skip the
			// incumbent cannot justify (workers only skip nodes mergedBest
			// dominates, so this is insurance). Evaluate it here so the
			// result stays exact.
			sp.Discard()
			pr = t.evalTraced(ctx, space, nd, w, tracer)
			sp = pr.span
			if pr.err != nil {
				sp.Discard()
				return nil, nil, pr.err
			}
		}
		c := pr.cand
		if c == nil {
			// The probe's structural prefix passed but the full evaluation
			// failed: a structural prune after all.
			sp.Discard()
			t.pruneInfeasible(nd.idx, nd.p, tracer, search, stats)
			continue
		}
		stats.Explored++
		if c.OOM {
			stats.OOMRejected++
		}
		// The trace keeps the candidate's coordinates and totals, not its
		// schedule: only the incumbent holds one.
		ent := *c
		ent.Schedule = nil
		ents = append(ents, traceEnt{idx: nd.idx, c: ent})
		improved := best == nil || c.Throughput > best.Throughput ||
			(c.Throughput == best.Throughput && nd.idx < bestIdx)
		if improved {
			cc := *c
			best, bestIdx = &cc, nd.idx
			stats.Improved++
			mb.store(best.Throughput)
		}
		if c.OOM {
			sp.SetStr("result", "oom")
		} else {
			sp.SetStr("result", "explored")
		}
		sp.SetFloat("throughput", c.Throughput)
		sp.SetFloat("ub", nd.ub)
		if improved {
			sp.SetBool("improved", true)
		}
		sp.AttachTo(search)
		if t.Progress != nil {
			t.Progress(*c, *best)
		}
	}

	// The trace is reported in canonical grid order whatever order the nodes
	// were expanded in.
	sort.Slice(ents, func(a, b int) bool { return ents[a].idx < ents[b].idx })
	var trace []Candidate
	if len(ents) > 0 {
		trace = make([]Candidate, len(ents))
		for i := range ents {
			trace[i] = ents[i].c
		}
	}
	return best, trace, nil
}

// poolSource is the speculative outcome source: up to workers goroutines
// evaluate the nodes, each skipping a node the merged best already dominates,
// and next(j) blocks until node j's result is in. The merge loop discards
// whatever speculation its own decision does not confirm. wait returns once
// every worker has exited; they stop evaluating when ctx is cancelled.
//
// The goroutines claim shapes, not nodes: a claim is every node of one
// buildKey, handed out in the order of the shape's first node. A goroutine
// evaluates its claimed nodes in node order, each before the first node of
// any later claim it takes, so a point's siblings share one build under a
// pool as they do inline. A claim is its shape's first node index and carries
// no schedule: the goroutine builds the shape itself, and no schedule is
// shared between goroutines.
func (t *Tuner) poolSource(ctx context.Context, space Space, workers int, nodes []bnbNode, mb *mergedBest, tracer *telemetry.Tracer) (next func(j int) pointResult, wait func()) {
	results := make([]pointResult, len(nodes))
	ready := make([]chan struct{}, len(nodes))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	sib, firsts := shapeChains(nodes)
	jobs := make(chan int, len(firsts))
	for _, f := range firsts {
		jobs <- f
	}
	close(jobs)
	var wg sync.WaitGroup
	for n := min(workers, len(firsts)); n > 0; n-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pw := newWorker()
			run := func(j int) {
				nd := nodes[j]
				// A cancelled worker skips too: the merge loop checks ctx
				// itself, and it must never block on a node — every claimed
				// node closes its ready channel.
				if ctx.Err() != nil || nd.dominatedBy(mb.load()) {
					results[j] = pointResult{}
				} else {
					results[j] = t.evalTraced(ctx, space, nd, pw, tracer)
				}
				close(ready[j])
				// Yield, so that the merge loop the close may have woken runs
				// now and publishes its incumbent before this worker picks
				// its next node. A worker that keeps the processor starves
				// the merge, and every node the stale incumbent fails to
				// skip is evaluated for nothing.
				runtime.Gosched()
			}
			var own []int // claimed nodes not yet evaluated, ascending
			for first := range jobs {
				for len(own) > 0 && own[0] < first {
					run(own[0])
					own = own[1:]
				}
				run(first)
				for j := sib[first]; j > 0; j = sib[j] {
					own = append(own, j)
				}
				slices.Sort(own)
			}
			for _, j := range own {
				run(j)
			}
			pw.report(t.Metrics)
			pw.release()
		}()
	}
	return func(j int) pointResult {
		<-ready[j]
		return results[j]
	}, wg.Wait
}

// shapeChains links the nodes of each shape in node order: sib[j] is the
// next node of node j's shape (0 after its last), and firsts lists each
// shape's first node, ascending.
func shapeChains(nodes []bnbNode) (sib, firsts []int) {
	sib = make([]int, len(nodes))
	last := make(map[buildKey]int, len(nodes))
	for j, nd := range nodes {
		bk := nd.shape()
		if i, ok := last[bk]; ok {
			sib[i] = j
		} else {
			firsts = append(firsts, j)
		}
		last[bk] = j
	}
	return sib, firsts
}

// pointKey renders a grid point's canonical span key: the zero-padded
// canonical grid index plus the paper's x-y-z candidate label. The key is a
// pure function of the enumeration, so span identities never depend on
// which worker evaluated the point.
func pointKey(i int, p gridPoint) string {
	return fmt.Sprintf("%04d %s", i, label(p.scheme, p.pp, p.mbs, p.ckpt, p.pmode))
}

// pointSpan starts the detached span of grid point i — the one place point
// spans are made. With tracing off it returns the zero Span without
// formatting the key.
func pointSpan(tracer *telemetry.Tracer, i int, p gridPoint) telemetry.Span {
	if tracer == nil {
		return telemetry.Span{}
	}
	return tracer.Detached(telemetry.PhasePoint, pointKey(i, p))
}

// assignmentFor computes a grid point's partitioning/placement assignment
// over the scheme's shape. Legacy axis-free points (pmode "") get nil;
// ModeUniform gets the even split with identity placement carrying the
// per-rank speeds; ModeCoOpt runs the place.CoOptimize fixpoint over the
// per-layer cost model (an estimator fit with one stage per layer, so the
// embedding and LM-head extras land on the first and last layer), with a
// memory cap that multiplies each stage's stash by its in-flight depth, read
// off the shape (stageDepths). It builds no schedule. The result is a pure
// function of the point's checkpoint-free coordinate and the space.
func (t *Tuner) assignmentFor(space Space, p gridPoint, sh scheme.Shape) (*place.Assignment, error) {
	if p.pmode == "" {
		return nil, nil
	}
	pl := sh.Placement
	rankSpeed := place.RankSpeeds(space.DeviceSpeeds, pl.NumDevices(), p.dp)
	if p.pmode == place.ModeUniform {
		return place.Uniform(t.Prof.Model.Layers, pl, rankSpeed), nil
	}
	layers := t.Prof.Model.Layers
	perLayer := make([]int, layers)
	for i := range perLayer {
		perLayer[i] = 1
	}
	layerEst, err := t.Prof.EstimatorForPartition(perLayer, p.mbs, space.TP)
	if err != nil {
		return nil, err
	}
	return place.CoOptimize(place.NewLayerModel(layerEst), pl, rankSpeed, place.Options{
		MemCap:       space.DeviceMem,
		FrameworkMem: layerEst.FrameworkMem,
		InFlight:     stageDepths(sh),
		BufBytes:     layerEst.ActP2PBytes + layerEst.GradP2PBytes,
	})
}

// stageDepths reads co-opt's per-stage in-flight vector off the shape: per
// stage, the deepest of its resident cells (scheme.Group.InFlight), and at
// least 1. A cell with no closed-form depth (DualPipe-D's, whose depth the
// list scheduler's merge decides) counts its injection window
// min(N_p, S−s): addInjectionWindows starts no forward of a partition's
// (k+S−s)-th micro-batch at stage s before the k-th one's anchor, so no cell
// runs deeper, and per stage the deepest cell reaches it (DESIGN §5).
func stageDepths(sh scheme.Shape) []int {
	S := sh.Placement.NumStages()
	depths := make([]int, S)
	var groups []scheme.Group
	for d := 0; d < sh.Placement.NumDevices(); d++ {
		groups = sh.AppendGroups(groups[:0], d)
		for _, g := range groups {
			k := g.InFlight
			if k == 0 {
				k = min(g.Micros, S-g.Stage)
			}
			depths[g.Stage] = max(depths[g.Stage], k)
		}
	}
	for st, n := range depths {
		depths[st] = max(n, 1)
	}
	return depths
}

// assignedEstimator is the estimator a (stage count, micro-batch size, TP)
// configuration is simulated with under a placement assignment: nil keeps the
// uniform-split estimator, otherwise the stage costs follow the assignment's
// layer split and the per-rank speeds ride along.
func assignedEstimator(prof *profile.Profiler, asg *place.Assignment, stages, mbs, tp int) (*cost.Estimator, error) {
	if asg == nil {
		return prof.EstimatorFor(stages, mbs, tp)
	}
	est, err := prof.EstimatorForPartition(asg.LayersPerStage, mbs, tp)
	if err != nil {
		return nil, err
	}
	est.DeviceSpeed = asg.RankSpeed
	return est, nil
}

// resolution is the structural prefix every consumer of a grid point starts
// with: the micro-batch count, the scheme's order-free shape and the
// estimator (plus assignment) the point is scored with. ok is false for
// structurally impossible points — indivisible batch, scheme constraints
// (odd Chimera, indivisible Interleave, …), too few layers, estimator limits.
type resolution struct {
	micros int
	sh     scheme.Shape
	est    *cost.Estimator
	asg    *place.Assignment
	ok     bool
}

// pointShape resolves a grid point: the micro-batch count, the shape, the
// assignment (assignmentFor) and the estimator scored under it
// (assignedEstimator). It builds no schedule. Nothing it reads depends on
// p.ckpt, so both checkpoint values of a coordinate resolve alike.
func (t *Tuner) pointShape(space Space, p gridPoint) resolution {
	// By division, as Space.admits does: a huge micro-batch size would wrap
	// the product mbs·dp, even to zero.
	perReplica := space.GlobalBatch / p.dp
	if space.GlobalBatch%p.dp != 0 || perReplica%p.mbs != 0 {
		return resolution{}
	}
	micros := perReplica / p.mbs
	if micros < 1 {
		return resolution{}
	}
	sh, err := scheme.ShapeOf(p.scheme, scheme.Config{Devices: p.pp, Micros: micros})
	if err != nil || t.Prof.Model.Layers < sh.Placement.NumStages() {
		return resolution{}
	}
	asg, err := t.assignmentFor(space, p, sh)
	if err != nil {
		return resolution{}
	}
	est, err := assignedEstimator(t.Prof, asg, sh.Placement.NumStages(), p.mbs, space.TP)
	if err != nil {
		return resolution{}
	}
	return resolution{micros: micros, sh: sh, est: est, asg: asg, ok: true}
}

// evalTraced wraps evalPoint with a detached point span that the merge loop
// later attaches or discards.
func (t *Tuner) evalTraced(ctx context.Context, space Space, nd bnbNode, w *worker, tracer *telemetry.Tracer) pointResult {
	sp := pointSpan(tracer, nd.idx, nd.p)
	pr := t.evalPoint(ctx, space, nd, w, sp)
	sp.End()
	pr.span = sp
	return pr
}

// evalPoint scores a single node of the probe pass: it hands the node's
// coordinates and resolution — micro-batch count, estimator and assignment,
// resolved once by the probe — to materialize, returning the candidate —
// zero-throughput for OOM points. It takes no bound and makes no prune
// decision; whoever calls it has decided to evaluate the point. A point whose
// evaluation still fails (a build, graph-pass or simulator error) comes back
// infeasible.
//
// w is the calling goroutine's worker (engines and builds). ctx bounds
// the slow part of the evaluation (the graph-tuner run); a cancelled context
// comes back as pointResult.err, never as a fake infeasibility. sp is the
// point's telemetry span (the zero Span when tracing is off).
func (t *Tuner) evalPoint(ctx context.Context, space Space, nd bnbNode, w *worker, sp telemetry.Span) pointResult {
	if err := ctx.Err(); err != nil {
		return pointResult{err: err}
	}
	p := nd.p
	cand := &Candidate{Scheme: p.scheme, Ckpt: p.ckpt, PP: p.pp, DP: p.dp, MicroBatch: p.mbs, Micros: nd.micros,
		PlaceMode: p.pmode, Place: nd.asg}
	if err := t.materialize(ctx, space, cand, nd.est, w, sp); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return pointResult{err: err}
		}
		return pointResult{failed: true}
	}
	if cand.Result.OOM {
		cand.OOM = true
		cand.Throughput = 0 // Equation 1's memory penalty
	} else {
		cand.Throughput = cand.Result.SamplesPerSec * dpEff(dpEfficiency, p.dp)
	}
	return pointResult{cand: cand}
}

// materialize is the one path from a candidate's coordinates and a space to
// its scored schedule: the scheme build (w's, when w built the shape before),
// then either the checkpoint passes and prepose rounds — plus the
// split-backward attempt when the space asks for it — or the plain schedule,
// scored on w's engines. It fills c.Schedule and
// c.Result. evalPoint calls it for every grid point a search explores and
// Resimulate for every candidate that does not carry its schedule, so a
// rebuilt schedule is the scored one by construction. space has its defaults
// applied; est is the estimator of c's shape and assignment.
//
// The score carries no timeline — the merge reads totals, peaks and the
// schedule only, and graph.OptimizeContext/SplitBackward skip their closing
// re-simulation under the same option; Resimulate simulates once more with
// the timeline on.
//
// Under a live sp it records build/graph/sim child spans.
func (t *Tuner) materialize(ctx context.Context, space Space, c *Candidate, est *cost.Estimator, w *worker, sp telemetry.Span) error {
	bs := sp.Child(telemetry.PhaseBuild, "")
	sched, err := w.build(c.Scheme, c.PP, c.Micros)
	bs.End()
	if err != nil {
		return err
	}
	simOpts := sim.Options{DP: c.DP, MemLimit: space.DeviceMem, NoTimeline: true}
	if !c.Ckpt {
		ss := sp.Child(telemetry.PhaseSim, "")
		res, err := w.eng.Main.Simulate(sched, est, simOpts)
		ss.End()
		if err != nil {
			return err
		}
		c.Schedule, c.Result = sched, res
		return nil
	}
	gs := sp.Child(telemetry.PhaseGraph, "")
	defer gs.End()
	gopts := graph.Options{Estimator: est, Sim: simOpts, MaxRounds: space.MaxRounds,
		Engines: w.eng, Span: gs}
	opt, res, err := graph.OptimizeContext(ctx, sched, gopts)
	if err != nil {
		return err
	}
	if space.SplitBackward {
		if split, sr, err := graph.SplitBackward(opt, gopts); err == nil &&
			sr.Total < res.Total && !(space.DeviceMem > 0 && sr.OOM) {
			opt, res = split, sr
		}
	}
	c.Schedule, c.Result = opt, res
	return nil
}

// Rank returns the trace sorted by descending throughput (stable on labels
// for determinism).
func Rank(trace []Candidate) []Candidate {
	out := append([]Candidate(nil), trace...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Throughput != out[j].Throughput {
			return out[i].Throughput > out[j].Throughput
		}
		return out[i].Label() < out[j].Label()
	})
	return out
}
