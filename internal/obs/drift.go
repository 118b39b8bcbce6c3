package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mario/internal/pipeline"
	"mario/internal/regress"
	"mario/internal/sim"
)

// KindDrift is the per-kind latency drift between the simulator's predicted
// spans and the measured events.
type KindDrift struct {
	Kind pipeline.Kind
	// Pairs counts the aligned (device, instruction) sites.
	Pairs int
	// PredMean and MeasMean are the mean span durations in seconds.
	PredMean, MeasMean float64
	// MAPE is the mean absolute percentage error of the predicted durations
	// against the measured ones (relative to measured, like §6.6).
	MAPE float64
}

// DriftItem is one worst-offending instruction site.
type DriftItem struct {
	Device int
	Instr  pipeline.Instr
	// Pred and Meas are span durations in seconds (measured averaged over
	// iterations).
	Pred, Meas float64
	// AbsErr is |Meas − Pred| in seconds; RelErr is AbsErr / Meas.
	AbsErr, RelErr float64
}

// DriftReport quantifies where and how much the simulator's prediction
// diverged from a measured run — the Fig. 10 accuracy evaluation extended to
// instruction granularity.
type DriftReport struct {
	// Kinds holds per-kind latency drift, sorted by kind.
	Kinds []KindDrift
	// Worst lists the aligned sites with the largest absolute error.
	Worst []DriftItem
	// Unmatched counts measured sites with no predicted span (and vice
	// versa); nonzero values mean the schedules diverged, not just the
	// timings.
	UnmatchedMeasured, UnmatchedPredicted int
	// TotalPred and TotalMeas are the per-iteration makespans, and TotalErr
	// their relative error against the measured value.
	TotalPred, TotalMeas, TotalErr float64
	// MemMAPE is the MAPE of predicted vs measured per-device peak memory
	// (zero when no measured peaks were supplied).
	MemMAPE float64
	// MemPred and MemMeas are the per-device peak-memory vectors compared.
	MemPred, MemMeas []float64
}

// siteKey identifies an instruction site across the predicted timeline and
// the measured event stream.
type siteKey struct {
	dev int
	key pipeline.Key
}

// ComputeDrift aligns measured events with the predicted timeline by
// (device, kind, micro, part, stage) and reports per-kind latency MAPE, the
// worst-offending sites, makespan drift and (when measPeakMem is non-nil)
// peak-memory MAPE against pred.PeakMem. Measured durations are averaged
// over iterations before alignment.
func ComputeDrift(events []Event, pred *sim.Result, measPeakMem []float64) *DriftReport {
	r := &DriftReport{}

	predDur := make(map[siteKey]float64)
	for d, spans := range pred.Timeline {
		for _, sp := range spans {
			predDur[siteKey{d, sp.Instr.Key()}] = sp.End - sp.Start
		}
	}

	type acc struct {
		sum float64
		n   int
	}
	meas := make(map[siteKey]*acc)
	iters := 0
	measEnd := 0.0
	for _, e := range events {
		k := siteKey{e.Device, e.Key()}
		a := meas[k]
		if a == nil {
			a = &acc{}
			meas[k] = a
		}
		a.sum += e.Dur()
		a.n++
		if e.Iter+1 > iters {
			iters = e.Iter + 1
		}
		if e.End > measEnd {
			measEnd = e.End
		}
	}

	type kindAcc struct {
		pairs            int
		predSum, measSum float64
		apeSum           float64
	}
	kinds := make(map[pipeline.Kind]*kindAcc)
	var items []DriftItem
	for k, a := range meas {
		p, ok := predDur[k]
		if !ok {
			r.UnmatchedMeasured++
			continue
		}
		m := a.sum / float64(a.n)
		ka := kinds[k.key.Kind]
		if ka == nil {
			ka = &kindAcc{}
			kinds[k.key.Kind] = ka
		}
		ka.pairs++
		ka.predSum += p
		ka.measSum += m
		if m != 0 {
			ka.apeSum += math.Abs(p-m) / math.Abs(m)
		}
		items = append(items, DriftItem{
			Device: k.dev,
			Instr:  pipeline.Instr{Kind: k.key.Kind, Micro: k.key.Micro, Part: k.key.Part, Stage: k.key.Stage},
			Pred:   p, Meas: m,
			AbsErr: math.Abs(m - p),
			RelErr: relErr(p, m),
		})
	}
	for k := range predDur {
		if meas[k] == nil {
			r.UnmatchedPredicted++
		}
	}

	for kind, ka := range kinds {
		r.Kinds = append(r.Kinds, KindDrift{
			Kind:     kind,
			Pairs:    ka.pairs,
			PredMean: ka.predSum / float64(ka.pairs),
			MeasMean: ka.measSum / float64(ka.pairs),
			MAPE:     ka.apeSum / float64(ka.pairs),
		})
	}
	sort.Slice(r.Kinds, func(i, j int) bool { return r.Kinds[i].Kind < r.Kinds[j].Kind })

	sort.Slice(items, func(i, j int) bool {
		if items[i].AbsErr != items[j].AbsErr {
			return items[i].AbsErr > items[j].AbsErr
		}
		if items[i].Device != items[j].Device {
			return items[i].Device < items[j].Device
		}
		return items[i].Instr.String() < items[j].Instr.String()
	})
	const worstN = 8
	if len(items) > worstN {
		items = items[:worstN]
	}
	r.Worst = items

	r.TotalPred = pred.Total
	if iters > 0 {
		r.TotalMeas = measEnd / float64(iters)
	}
	r.TotalErr = relErr(r.TotalPred, r.TotalMeas)

	if measPeakMem != nil {
		r.MemPred = append([]float64(nil), pred.PeakMem...)
		r.MemMeas = append([]float64(nil), measPeakMem...)
		if len(r.MemPred) == len(r.MemMeas) {
			r.MemMAPE = regress.MAPE(r.MemMeas, r.MemPred)
		}
	}
	return r
}

// relErr is |pred − meas| relative to the measured truth.
func relErr(pred, meas float64) float64 {
	if meas == 0 {
		return 0
	}
	return math.Abs(pred-meas) / math.Abs(meas)
}

// Format renders the drift report as an ASCII table.
func (r *DriftReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "drift report: predicted iter %.4g s vs measured %.4g s (%.1f%% error)\n",
		r.TotalPred, r.TotalMeas, 100*r.TotalErr)
	fmt.Fprintf(&b, "%-5s %6s %12s %12s %7s\n", "kind", "pairs", "pred-mean(s)", "meas-mean(s)", "MAPE%")
	for _, k := range r.Kinds {
		fmt.Fprintf(&b, "%-5s %6d %12.4g %12.4g %7.1f\n", k.Kind, k.Pairs, k.PredMean, k.MeasMean, 100*k.MAPE)
	}
	if len(r.MemMeas) > 0 {
		fmt.Fprintf(&b, "peak memory MAPE: %.1f%% over %d devices\n", 100*r.MemMAPE, len(r.MemMeas))
	}
	if r.UnmatchedMeasured+r.UnmatchedPredicted > 0 {
		fmt.Fprintf(&b, "unmatched sites: %d measured, %d predicted (schedules diverged)\n",
			r.UnmatchedMeasured, r.UnmatchedPredicted)
	}
	if len(r.Worst) > 0 {
		b.WriteString("worst offenders (by absolute error):\n")
		for _, it := range r.Worst {
			fmt.Fprintf(&b, "  dev%-2d %-8s pred %.4g s  meas %.4g s  (+%.4g s, %.1f%%)\n",
				it.Device, it.Instr, it.Pred, it.Meas, it.AbsErr, 100*it.RelErr)
		}
	}
	return b.String()
}
