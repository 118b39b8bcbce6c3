package tuner

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"mario/internal/fault"
	"mario/internal/place"
	"mario/internal/profile"
	"mario/internal/telemetry"
)

// PlanOutcome is one schedule's measured behaviour under one fault plan.
type PlanOutcome struct {
	// Plan is the fault plan's name.
	Plan string
	// Throughput and IterTime are the measured values under the plan.
	Throughput, IterTime float64
	// Retention is the faulted throughput as a fraction of the schedule's
	// healthy measured throughput (1 = the plan cost nothing).
	Retention float64
	// FaultSlowed, FaultDrops and FaultStall echo the run's fault summary.
	FaultSlowed, FaultDrops int
	FaultStall              float64
	// Err is non-empty when the faulted run failed outright (e.g. a link
	// exhausted its retry budget); Throughput and Retention are then zero.
	Err string
}

// RobustnessRow re-scores one candidate schedule under the fault ensemble.
type RobustnessRow struct {
	// Cand is the schedule being stressed (as ranked by the tuner).
	Cand Candidate
	// Healthy and HealthyIter are the measured throughput and iteration time
	// of the fault-free run the retentions are normalised against.
	Healthy, HealthyIter float64
	// Slack is the schedule's mean per-device bubble ratio in the healthy
	// prediction — the idle fraction Mario hides recomputation in. Schedules
	// with less slack have less room to absorb degradation.
	Slack float64
	// Outcomes holds one entry per ensemble plan, in ensemble order.
	Outcomes []PlanOutcome
	// MeanRetention and WorstRetention aggregate Outcomes (failed runs count
	// as zero retention).
	MeanRetention, WorstRetention float64
}

// GainSurvival pairs a checkpointed (mario) candidate with its base
// counterpart — same scheme, PP and micro-batch — and reports how much of the
// checkpointing gain survives the fault ensemble.
type GainSurvival struct {
	// Config labels the paired configuration (scheme-pp-mbs).
	Config string
	// HealthyGain is ckpt/base − 1 on the healthy measured runs.
	HealthyGain float64
	// FaultedGain is the same ratio averaged over the ensemble's faulted
	// measured runs.
	FaultedGain float64
	// Survival is FaultedGain / HealthyGain (1 = the gain is fault-proof;
	// values can exceed 1 when faults hurt the base schedule more). It is 0
	// when the healthy gain itself is ≤ 0.
	Survival float64
}

// RobustnessReport is the result of re-scoring the tuner's top-K schedules
// under a fault ensemble.
type RobustnessReport struct {
	// Plans names the ensemble, in evaluation order.
	Plans []string
	// Rows holds one entry per evaluated candidate, in rank order.
	Rows []RobustnessRow
	// Gains holds the checkpoint-gain survival for every (base, mario) pair
	// present among the evaluated candidates.
	Gains []GainSurvival
}

// RobustnessOpts configures Robustness.
type RobustnessOpts struct {
	// TopK bounds how many trace candidates (by Rank order) are re-scored;
	// 0 means 4.
	TopK int
	// Iters is the measured iteration count per run; 0 means 2.
	Iters int
	// Recipe is the recipe of the search the trace came from. Its TP (0
	// means 1) sizes the emulated machines; the rest is what rebuilds the
	// schedule of a selected candidate that does not carry one — every entry
	// of a search trace. Candidates that carry their schedule need only TP.
	Recipe Recipe
	// Ensemble is the fault-plan ensemble; nil uses fault.DefaultEnsemble
	// with Seed.
	Ensemble []fault.Plan
	// Seed seeds the default ensemble when Ensemble is nil.
	Seed uint64
	// Span, when live, parents the re-scoring's telemetry: one PhaseRobust
	// span with a PhaseCandidate child per evaluated schedule and a
	// PhaseFault grandchild per ensemble plan. The re-scoring is
	// sequential, so these spans need no canonical reordering. The zero
	// Span disables tracing at zero cost.
	Span telemetry.Span
	// Metrics, when non-nil, counts the measured runs (healthy and
	// faulted).
	Metrics *telemetry.SearchMetrics
}

// Robustness executes the top-K schedules of a tuning trace on the emulated
// cluster — once healthy, then once per ensemble fault plan — and reports how
// much measured throughput each schedule retains under degradation, plus how
// much of Mario's checkpointing gain survives for every (base, mario) pair in
// the selection. Runs are deterministic: the same profiler, trace and ensemble
// produce an identical report.
//
// Robustness never aborts early; use RobustnessContext to bound or cancel
// the re-scoring.
func Robustness(prof *profile.Profiler, trace []Candidate, opts RobustnessOpts) (*RobustnessReport, error) {
	return RobustnessContext(context.Background(), prof, trace, opts)
}

// RobustnessContext is Robustness with cancellation: ctx is checked before
// every measured run (each candidate's healthy run and each ensemble plan),
// and a cancelled context aborts the call with ctx's error instead of a
// partial report.
func RobustnessContext(ctx context.Context, prof *profile.Profiler, trace []Candidate, opts RobustnessOpts) (*RobustnessReport, error) {
	if prof == nil {
		return nil, fmt.Errorf("tuner: robustness needs a profiler")
	}
	topK := opts.TopK
	if topK <= 0 {
		topK = 4
	}
	iters := opts.Iters
	if iters <= 0 {
		iters = 2
	}
	tp := opts.Recipe.withDefaults().TP

	// A candidate that carries its schedule is re-scored as it is; one selected
	// from a search trace gets the schedule the search scored, rebuilt and
	// checked against its stored totals by Resimulate.
	var cands []Candidate
	rebuilder := &Tuner{Prof: prof}
	for _, c := range Rank(trace) {
		if c.OOM || c.Throughput <= 0 {
			continue
		}
		if c.Schedule == nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sched, _, err := rebuilder.Resimulate(ctx, nil, &c, opts.Recipe)
			if err != nil {
				return nil, err
			}
			c.Schedule = sched
		}
		cands = append(cands, c)
		if len(cands) >= topK {
			break
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("tuner: no feasible candidates to re-score")
	}

	ensemble := opts.Ensemble
	if ensemble == nil {
		ensemble = fault.DefaultEnsemble(cands[0].Schedule.NumDevices(), opts.Seed)
	}

	rep := &RobustnessReport{}
	for i := range ensemble {
		name := ensemble[i].Name
		if name == "" {
			name = fmt.Sprintf("plan-%d", i)
		}
		rep.Plans = append(rep.Plans, name)
	}

	rb := opts.Span.Child(telemetry.PhaseRobust, "")
	rb.SetInt("candidates", int64(len(cands)))
	rb.SetInt("plans", int64(len(ensemble)))
	defer rb.End()

	for ci, c := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cs := rb.Child(telemetry.PhaseCandidate, fmt.Sprintf("%02d %s", ci, c.Label()))
		row := RobustnessRow{Cand: c}
		if r := c.Result; r != nil && r.Total > 0 {
			for d := range r.ComputeBusy {
				row.Slack += r.BubbleRatio(d)
			}
			row.Slack /= float64(len(r.ComputeBusy))
		}
		// Candidates tuned with a partitioning/placement assignment are
		// re-scored on a machine that mirrors it: the emulator's truth
		// estimator carries the same layer split and the machine applies the
		// same per-rank speed factors the simulator scored with.
		mach, err := prof.NewMachine(prof.Model, c.Schedule.NumStages(), c.MicroBatch, tp, c.Place)
		if err != nil {
			return nil, err
		}
		mach.DP = c.DP
		healthy, err := mach.Run(c.Schedule, iters)
		opts.Metrics.AddRobustRuns(1)
		if err != nil {
			return nil, fmt.Errorf("tuner: healthy run of %s: %w", c.Label(), err)
		}
		row.Healthy, row.HealthyIter = healthy.SamplesPerSec, healthy.IterTime
		cs.SetFloat("healthy", row.Healthy)

		worst := 1.0
		for i := range ensemble {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			plan := ensemble[i]
			mach.Faults = &plan
			out := PlanOutcome{Plan: rep.Plans[i]}
			fs := cs.Child(telemetry.PhaseFault, fmt.Sprintf("%02d %s", i, rep.Plans[i]))
			faulted, err := mach.Run(c.Schedule, iters)
			opts.Metrics.AddRobustRuns(1)
			if err != nil {
				out.Err = err.Error()
			} else {
				out.Throughput, out.IterTime = faulted.SamplesPerSec, faulted.IterTime
				if row.Healthy > 0 {
					out.Retention = out.Throughput / row.Healthy
				}
				out.FaultSlowed = faulted.FaultSlowed
				out.FaultDrops = faulted.FaultDrops
				out.FaultStall = faulted.FaultStall
			}
			row.MeanRetention += out.Retention
			if out.Retention < worst {
				worst = out.Retention
			}
			fs.SetFloat("retention", out.Retention)
			fs.End()
			row.Outcomes = append(row.Outcomes, out)
		}
		mach.Faults = nil
		row.MeanRetention /= float64(len(ensemble))
		row.WorstRetention = worst
		cs.SetFloat("worst_retention", worst)
		cs.End()
		rep.Rows = append(rep.Rows, row)
	}

	rep.Gains = gainSurvival(rep.Rows)
	return rep, nil
}

// pairKey identifies a (scheme, pp, mbs, placement-mode) configuration
// regardless of the checkpointing flag.
type pairKey struct {
	shape string
	pp    int
	mbs   int
	mode  place.Mode
}

// gainSurvival pairs base and mario rows of the same configuration and
// measures the checkpointing gain healthy vs under faults.
func gainSurvival(rows []RobustnessRow) []GainSurvival {
	type pair struct{ base, ckpt *RobustnessRow }
	pairs := make(map[pairKey]*pair)
	var order []pairKey
	for i := range rows {
		c := rows[i].Cand
		k := pairKey{shape: c.Scheme.Shape(), pp: c.PP, mbs: c.MicroBatch, mode: c.PlaceMode}
		p := pairs[k]
		if p == nil {
			p = &pair{}
			pairs[k] = p
			order = append(order, k)
		}
		if c.Ckpt {
			if p.ckpt == nil {
				p.ckpt = &rows[i]
			}
		} else if p.base == nil {
			p.base = &rows[i]
		}
	}
	var out []GainSurvival
	for _, k := range order {
		p := pairs[k]
		if p.base == nil || p.ckpt == nil || p.base.Healthy <= 0 {
			continue
		}
		cfg := fmt.Sprintf("%s-%d-%d", k.shape, k.pp, k.mbs)
		if k.mode != "" {
			cfg += "+" + string(k.mode)
		}
		g := GainSurvival{Config: cfg}
		g.HealthyGain = p.ckpt.Healthy/p.base.Healthy - 1
		n := 0
		for i := range p.ckpt.Outcomes {
			co, bo := p.ckpt.Outcomes[i], p.base.Outcomes[i]
			if co.Err != "" || bo.Err != "" || bo.Throughput <= 0 {
				continue
			}
			g.FaultedGain += co.Throughput/bo.Throughput - 1
			n++
		}
		if n > 0 {
			g.FaultedGain /= float64(n)
		}
		if g.HealthyGain > 0 {
			g.Survival = g.FaultedGain / g.HealthyGain
		}
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Config < out[j].Config })
	return out
}

// Format renders the report as ASCII tables: retention per (schedule, plan),
// then checkpoint-gain survival for the paired configurations.
func (r *RobustnessReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "robustness: %d schedules x %d fault plans (measured)\n", len(r.Rows), len(r.Plans))
	fmt.Fprintf(&b, "%-18s %10s %7s", "schedule", "healthy/s", "slack%")
	for _, p := range r.Plans {
		fmt.Fprintf(&b, " %12s", p)
	}
	fmt.Fprintf(&b, " %6s %6s\n", "mean%", "worst%")
	for i := range r.Rows {
		row := &r.Rows[i]
		fmt.Fprintf(&b, "%-18s %10.2f %7.1f", row.Cand.Label(), row.Healthy, 100*row.Slack)
		for _, o := range row.Outcomes {
			if o.Err != "" {
				fmt.Fprintf(&b, " %12s", "FAILED")
			} else {
				fmt.Fprintf(&b, " %11.1f%%", 100*o.Retention)
			}
		}
		fmt.Fprintf(&b, " %6.1f %6.1f\n", 100*row.MeanRetention, 100*row.WorstRetention)
	}
	if len(r.Gains) > 0 {
		b.WriteString("checkpoint-gain survival (mario vs base, same scheme-pp-mbs):\n")
		for _, g := range r.Gains {
			fmt.Fprintf(&b, "  %-12s healthy gain %+6.2f%%  faulted gain %+6.2f%%  survival %5.1f%%\n",
				g.Config, 100*g.HealthyGain, 100*g.FaultedGain, 100*g.Survival)
		}
	}
	return b.String()
}

// Print writes the formatted report to w.
func (r *RobustnessReport) Print(w io.Writer) { io.WriteString(w, r.Format()) }
