package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"mario/internal/pipeline"
	"mario/internal/regress"
)

// KindDrift is the per-kind latency drift between the simulator's predicted
// records and the measured ones.
type KindDrift struct {
	Kind pipeline.Kind
	// Pairs counts the aligned (device, instruction) sites.
	Pairs int
	// PredMean and MeasMean are the mean record durations in seconds.
	PredMean, MeasMean float64
	// MAPE is the mean absolute percentage error of the predicted durations
	// against the measured ones (relative to measured, like §6.6).
	MAPE float64
}

// DriftItem is one worst-offending instruction site.
type DriftItem struct {
	Device int
	Instr  pipeline.Instr
	// Pred and Meas are record durations in seconds (measured averaged over
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
	// Unmatched counts measured sites (counted on iteration 0) with no
	// predicted record of the same instruction at their position, and
	// predicted records no measured one joined; nonzero values mean the
	// schedules diverged, not just the timings.
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

// ComputeDrift joins a measured event stream with a predicted one by
// (device, list position) and reports per-kind latency MAPE, the
// worst-offending sites, makespan drift and (when measPeak is non-nil)
// peak-memory MAPE against predPeak. Both streams are device-major in
// execution order, as sim.Result.Timeline and cluster.Execute return them:
// the prediction is one pass of every device's list, the measurement any
// number of iterations of the same lists. A measured record joins the
// predicted record at its position in its device's iteration when the two
// are the same instruction; measured durations are averaged over iterations.
// Sums run in list order, so the report is the same bits on every call.
func ComputeDrift(meas, pred []Event, predPeak, measPeak []float64) *DriftReport {
	r := &DriftReport{}

	// lo[d]:hi[d] is device d's run of pred.
	var lo, hi []int
	for i, e := range pred {
		for len(lo) <= e.Device {
			lo, hi = append(lo, i), append(hi, i)
		}
		hi[e.Device] = i + 1
	}

	// sum[i] and n[i] accumulate the measured durations joined to pred[i].
	sum := make([]float64, len(pred))
	n := make([]int, len(pred))
	iters, measEnd, pos := 0, 0.0, 0
	for j, e := range meas {
		if j == 0 || e.Device != meas[j-1].Device || e.Iter != meas[j-1].Iter {
			pos = 0
		}
		i := -1
		if e.Device < len(lo) && lo[e.Device]+pos < hi[e.Device] {
			i = lo[e.Device] + pos
		}
		if i >= 0 && pred[i].Instr == e.Instr {
			sum[i] += e.Dur()
			n[i]++
		} else if e.Iter == 0 {
			r.UnmatchedMeasured++
		}
		pos++
		iters = max(iters, e.Iter+1)
		measEnd = max(measEnd, e.End)
	}

	type kindAcc struct {
		pairs            int
		predSum, measSum float64
		apeSum           float64
	}
	kinds := make(map[pipeline.Kind]*kindAcc)
	var items []DriftItem
	for i, e := range pred {
		r.TotalPred = max(r.TotalPred, e.End)
		if n[i] == 0 {
			r.UnmatchedPredicted++
			continue
		}
		p, m := e.Dur(), sum[i]/float64(n[i])
		ka := kinds[e.Kind]
		if ka == nil {
			ka = &kindAcc{}
			kinds[e.Kind] = ka
		}
		ka.pairs++
		ka.predSum += p
		ka.measSum += m
		if m != 0 {
			ka.apeSum += math.Abs(p-m) / math.Abs(m)
		}
		items = append(items, DriftItem{
			Device: e.Device,
			Instr:  e.Instr,
			Pred:   p, Meas: m,
			AbsErr: math.Abs(m - p),
			RelErr: relErr(p, m),
		})
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

	sort.SliceStable(items, func(i, j int) bool {
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

	if iters > 0 {
		r.TotalMeas = measEnd / float64(iters)
	}
	r.TotalErr = relErr(r.TotalPred, r.TotalMeas)

	if measPeak != nil {
		r.MemPred = append([]float64(nil), predPeak...)
		r.MemMeas = append([]float64(nil), measPeak...)
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
