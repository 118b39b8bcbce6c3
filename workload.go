package mario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"mario/internal/cost"
	"mario/internal/pipeline"
	"mario/internal/place"
	"mario/internal/profile"
	"mario/internal/tuner"
)

// Workload is a Config and a model resolved: everything the search reads, with
// every default applied, and nothing else. Two requests that resolve to equal
// Workloads are one search with one plan, however they were spelled — an absent
// field and its default written out, "Auto" and " auto ", a memory budget given
// as "40G" or as the hardware's MemBytes — and what belongs to a run rather
// than to the workload (Workers, Progress, Tracer, Metrics, a service's
// timeout) has no field here to get into. Resolve is the only way to
// make one; treat it as read-only (its slices may be the Config's, or shared
// defaults).
type Workload struct {
	Model ModelConfig
	// Hardware is the device description with the memory budget folded in:
	// MemBytes is the budget.
	Hardware cost.Hardware
	// Machine is the emulated machine the profiler probes; never the zero
	// value, which Resolve reads as profile.DefaultMachine.
	Machine profile.MachineSpec
	// Space is the search space as the tuner walks it (tuner.Space.WithDefaults
	// applied): every input that shapes the plan, Config.SplitBackward
	// included. The pool size is not in it; it comes with the run.
	Space tuner.Space

	fingerprint string
}

// Fingerprint is the workload's identity: the hex SHA-256 of json.Marshal of
// the exported fields above. A field that reaches the search is in the hash
// because it is in the value, and every spelling of a default is the default
// because the value holds the resolution, not the spelling.
func (w *Workload) Fingerprint() string { return w.fingerprint }

// The largest cluster and the largest global batch Resolve accepts. Both are
// far above any workload the planner is meant for (the largest in the
// repository is 1,024 devices with a global batch of 2,048), and low enough
// that what the search sizes from them — the pipeline-depth divisor scan, a
// schedule's micro-batch slices — stays small.
const (
	maxDevices     = 1 << 14
	maxGlobalBatch = 1 << 16
)

// maxMicroBatches bounds the micro-batch size list. No global batch up to
// maxGlobalBatch has more divisors (55,440 has 120), so a longer list names
// sizes no grid point can use, and the search would still enumerate and probe
// every one of them.
const maxMicroBatches = 120

// Resolve validates a Config and a model and applies every default, once: it
// is the one check in front of the search, for the library (Optimize)
// and for the planning service alike. An error names the field
// that is wrong; nothing is searched, or built, from a workload that does not
// resolve.
func Resolve(conf Config, model ModelConfig) (*Workload, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if conf.NumDevices <= 0 || conf.GlobalBatchSize <= 0 {
		return nil, fmt.Errorf("mario: devices (%d) and global batch (%d) must be positive", conf.NumDevices, conf.GlobalBatchSize)
	}
	if conf.NumDevices > maxDevices {
		return nil, fmt.Errorf("mario: devices (%d) must be at most %d", conf.NumDevices, maxDevices)
	}
	if conf.GlobalBatchSize > maxGlobalBatch {
		return nil, fmt.Errorf("mario: global batch (%d) must be at most %d", conf.GlobalBatchSize, maxGlobalBatch)
	}
	if conf.TP < 0 {
		return nil, fmt.Errorf("mario: tp must not be negative (got %d)", conf.TP)
	}
	if n := len(conf.MicroBatchSizes); n > maxMicroBatches {
		return nil, fmt.Errorf("mario: micro-batch sizes (%d listed) must be at most %d", n, maxMicroBatches)
	}
	for i, m := range conf.MicroBatchSizes {
		if m <= 0 {
			return nil, fmt.Errorf("mario: micro-batch sizes must be positive (got %d)", m)
		}
		if slices.Contains(conf.MicroBatchSizes[:i], m) {
			return nil, fmt.Errorf("mario: micro-batch sizes must be distinct (%d is listed twice)", m)
		}
	}
	if len(conf.DeviceSpeeds) != 0 && len(conf.DeviceSpeeds) != conf.NumDevices {
		return nil, fmt.Errorf("mario: %d device speeds for %d devices", len(conf.DeviceSpeeds), conf.NumDevices)
	}
	for d, v := range conf.DeviceSpeeds {
		if err := place.CheckSpeed(v); err != nil {
			return nil, fmt.Errorf("mario: device %d %w", d, err)
		}
	}
	w := &Workload{Model: model, Hardware: cost.A100_40G, Machine: conf.Machine}
	if conf.Hardware != nil {
		w.Hardware = *conf.Hardware
	}
	if conf.MemoryPerDevice != "" {
		v, err := ParseMemory(conf.MemoryPerDevice)
		if err != nil {
			return nil, err
		}
		w.Hardware.MemBytes = v
	}
	if err := w.Hardware.Validate(); err != nil {
		return nil, err
	}
	if w.Machine == (profile.MachineSpec{}) {
		w.Machine = profile.DefaultMachine
	}
	if err := w.Machine.Validate(); err != nil {
		return nil, err
	}
	pmode, err := place.ParseMode(conf.Placement)
	if err != nil {
		return nil, err
	}
	space := tuner.Space{
		Devices:       conf.NumDevices,
		GlobalBatch:   conf.GlobalBatchSize,
		MicroBatches:  conf.MicroBatchSizes,
		MinPP:         conf.MinPP,
		MaxPP:         conf.MaxPP,
		TP:            conf.TP,
		DeviceMem:     w.Hardware.MemBytes,
		SplitBackward: conf.SplitBackward,
		NoBnB:         conf.NoBnB,
		DeviceSpeeds:  conf.DeviceSpeeds,
		Placement:     pmode,
	}
	if name := strings.TrimSpace(conf.PipelineScheme); name != "" && !strings.EqualFold(name, "auto") {
		s, err := pipeline.ParseScheme(name)
		if err != nil {
			return nil, err
		}
		space.Schemes = []pipeline.Scheme{s}
	}
	if conf.Checkpoint != nil {
		space.Checkpoint = []bool{*conf.Checkpoint}
	}
	if len(space.MicroBatches) == 0 {
		space.MicroBatches = nil // an empty list restricts nothing: the default sizes
	}
	w.Space = space.WithDefaults()
	divides := false
	for pp := w.Space.MinPP; pp <= w.Space.MaxPP && !divides; pp++ {
		divides = w.Space.Devices%pp == 0
	}
	if !divides {
		return nil, fmt.Errorf("mario: no pipeline depth in min_pp..max_pp [%d, %d] divides %d devices", w.Space.MinPP, w.Space.MaxPP, w.Space.Devices)
	}

	data, err := json.Marshal(w)
	if err != nil {
		// Every field is a plain value and every float was checked finite.
		return nil, fmt.Errorf("mario: fingerprinting the workload: %w", err)
	}
	sum := sha256.Sum256(data)
	w.fingerprint = hex.EncodeToString(sum[:])
	return w, nil
}

// tuner is the profiler-backed tuner that searches w.
func (w *Workload) tuner() *tuner.Tuner {
	prof := &profile.Profiler{Model: w.Model, HW: w.Hardware, Spec: w.Machine, Devices: 4, Iters: 10}
	return &tuner.Tuner{Prof: prof}
}
