package mario_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"mario"
	"mario/internal/obs"
	"mario/internal/profile"
	"mario/internal/serve/api"
	"mario/internal/telemetry"
)

var updateCorpus = flag.Bool("update", false, "rewrite the plan corpus under testdata/corpus/")

// corpusCase is one planner input of the corpus.
type corpusCase struct {
	name, model string
	conf        mario.Config
}

// corpusCases are the inputs whose outputs the corpus pins: the five specs of
// the benchmark's search workloads (bench/workloads.go) on
// profile.DefaultMachine, the serve-cold request at seed 1, and the pinned
// heterogeneous (TestHeteroCoOptBeatsUniform) and split-backward
// (TestTraceTimelinesRecomputable) scenarios.
func corpusCases(t *testing.T) []corpusCase {
	ckpt := true
	speeds := []float64{1, 1, 1, 0.8, 1, 1, 1, 1}
	cold := profile.DefaultMachine
	cold.Seed = 1*1_000_003 + 0 // bench's machine(seed 1, instance 0)
	coldReq := api.PlanRequest{Model: "GPT3-1.6B", Devices: 8, GlobalBatch: 64, Memory: "40G", Scheme: "Auto", Machine: &cold}
	coldModel, err := coldReq.Validate()
	if err != nil {
		t.Fatal(err)
	}
	cases := []corpusCase{
		{name: "gpt13b-64", model: "GPT3-13B", conf: mario.Config{
			PipelineScheme: "Auto", NumDevices: 64, GlobalBatchSize: 256, MemoryPerDevice: "40G"}},
		{name: "llama3b-4", model: "LLaMA2-3B", conf: mario.Config{
			PipelineScheme: "Auto", NumDevices: 4, GlobalBatchSize: 16, MemoryPerDevice: "40G"}},
		{name: "hetero-8", model: "GPT3-13B", conf: mario.Config{
			PipelineScheme: "V", NumDevices: 8, GlobalBatchSize: 32, MemoryPerDevice: "72G",
			DeviceSpeeds: speeds, Placement: "auto"}},
		{name: "zbh1-16", model: "GPT3-13B", conf: mario.Config{
			PipelineScheme: "Z", NumDevices: 16, GlobalBatchSize: 64, MemoryPerDevice: "40G"}},
		{name: "dualpipe-8", model: "GPT3-1.6B", conf: mario.Config{
			PipelineScheme: "D", NumDevices: 8, GlobalBatchSize: 32, MemoryPerDevice: "80G"}},
		{name: "serve-cold-seed1", model: coldModel.Name, conf: coldReq.Config(0)},
		{name: "hetero-coopt", model: "GPT3-13B", conf: heteroConf("coopt")},
		{name: "split-backward", model: "LLaMA2-3B", conf: mario.Config{
			PipelineScheme: "V", NumDevices: 4, GlobalBatchSize: 16, MemoryPerDevice: "40G",
			MicroBatchSizes: []int{1, 2}, Checkpoint: &ckpt, SplitBackward: true}},
	}
	return cases
}

// TestPlanCorpus pins what the planner and the emulator make of every corpus
// input, at Workers 1 and 3: the SHA-256 of the encoded plan, of its
// SearchStats JSON, of the search's canonical span JSONL and of a 10-iteration
// measured run with events (mario.RunWithOptions, the benchmark's quality
// path), with Best's label and the plan's byte count in clear text. A change
// that moves any of them on purpose re-pins the files with
// `go test -run TestPlanCorpus -update .` and says which rows moved and why.
func TestPlanCorpus(t *testing.T) {
	for _, tc := range corpusCases(t) {
		for _, workers := range []int{1, 3} {
			name := fmt.Sprintf("%s.w%d", tc.name, workers)
			t.Run(name, func(t *testing.T) {
				got := corpusRow(t, tc, workers)
				path := filepath.Join("testdata", "corpus", name+".txt")
				if *updateCorpus {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("reading the corpus (regenerate with go test -run TestPlanCorpus -update .): %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s moved:\n--- got ---\n%s--- want ---\n%s", path, got, want)
				}
			})
		}
	}
}

// corpusRow plans and runs one corpus input and renders its row.
func corpusRow(t *testing.T, tc corpusCase, workers int) []byte {
	t.Helper()
	conf := tc.conf
	conf.Workers = workers
	tracer := telemetry.New(tc.name)
	conf.Tracer = tracer
	plan, err := mario.Optimize(conf, mario.Model(tc.model))
	if err != nil {
		t.Fatal(err)
	}
	planJSON, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	statsJSON, err := json.Marshal(plan.SearchStats)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mario.RunWithOptions(plan, 10, mario.RunOptions{CollectEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	var run bytes.Buffer
	for _, v := range append([]float64{rep.Total, rep.IterTime, rep.SamplesPerSec, rep.PeakMemMin, rep.PeakMemMax}, rep.PeakMem...) {
		run.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		run.WriteByte('\n')
	}
	if err := obs.WriteJSONL(&run, rep.Events); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "best: %s\n", plan.Best.Label())
	fmt.Fprintf(&b, "plan_bytes: %d\n", len(planJSON))
	fmt.Fprintf(&b, "plan_sha256: %x\n", sha256.Sum256(planJSON))
	fmt.Fprintf(&b, "stats_sha256: %x\n", sha256.Sum256(statsJSON))
	fmt.Fprintf(&b, "spans_sha256: %x\n", sha256.Sum256(tracer.Snapshot().JSONL()))
	fmt.Fprintf(&b, "run_sha256: %x\n", sha256.Sum256(run.Bytes()))
	return b.Bytes()
}
