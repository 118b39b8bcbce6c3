package cost

// Uniform returns an idealised estimator with identical per-stage costs and
// free communication: forward (and recompute) time fw, backward time bw,
// zero launch overhead and zero p2p latency. It reproduces the grid-world
// setting of the paper's illustrations (Fig. 2: F = t, B = 2t) and is used
// by tests and the Figure 2 experiment.
//
// Memory is expressed in abstract units: one full activation replica per
// stage costs 1, a checkpoint stash costs stash (Mθ-relative), weights cost
// nothing. The transient working set is folded into the full activation.
func Uniform(stages int, fw, bw, stash float64) *Estimator {
	e := &Estimator{
		Stages:        stages,
		MicroBatch:    1,
		TP:            1,
		FwTime:        make([]float64, stages),
		BwTime:        make([]float64, stages),
		ActFull:       make([]float64, stages),
		ActStash:      make([]float64, stages),
		ActWork:       make([]float64, stages),
		WeightBytes:   make([]float64, stages),
		LinkBandwidth: 1,
	}
	for i := 0; i < stages; i++ {
		e.FwTime[i] = fw
		e.BwTime[i] = bw
		e.ActFull[i] = 1
		e.ActStash[i] = stash
	}
	return e
}
