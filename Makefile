# Development entry points; CI (.github/workflows/ci.yml) runs `make check`.

GO ?= go

.PHONY: all build vet test race bench bench-json bench-gate bench-gate-allocs bench-serve-json bench-selftest check fmt fuzz

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 1x -benchmem .

# Machine-readable benchmark artifact for the simulator/tuner hot paths; CI
# runs this non-gatingly and uploads BENCH_sim.json. The microbenchmarks get
# BENCHTIME iterations to average out noise; the full grid search is seconds
# per op, so it runs once.
BENCHTIME ?= 100x
# ns/op is compared as a minimum of BENCHCOUNT repeats (cmd/benchjson folds
# repeated rows to the fastest): the micro and serve rows are recorded with the
# count bench-gate re-runs them with.
BENCHCOUNT ?= 5
BENCH_MICRO = BenchmarkSimulateReuse|BenchmarkSimulate1F1B|BenchmarkSimulateChimera|BenchmarkTelemetry
# The deterministic rows: single-threaded benchmarks (-cpu 1 also pins the
# searches' Workers = GOMAXPROCS default to the sequential walk), run with the
# collector on like everything else. Their B/op and allocs/op repeat from run
# to run because nothing under a search is held in a sync.Pool, which the
# collector empties when it likes: a search's worker (its simulator engines
# and schedule Builder) comes from the tuner's free list, a mutex and a slice
# the collector never touches, so in one process the same rows in the same
# order start warm or cold the same way every run; pipeline.Validate
# allocates its one index per call and profiling samples on one goroutine
# (BenchmarkTunerSearchBnB/bnb repeats to five digits; encoding/json's encoder
# pool accounts for 4 allocs of BenchmarkPlanCodec). bench-json records these rows and bench-gate-allocs
# gates them with the same invocations — iteration counts included, since
# the first iteration's one-time allocations are part of the average. The
# list-scheduled builds at 64 × 128 (BENCH_DET_BUILD) get an invocation of
# their own: a sub-benchmark level in BENCH_DET would filter BenchmarkPlanCodec's
# rows too. The pooled search, BenchmarkTunerSearchBnB/bnb at -cpu 2, is a row
# of its own (cmd/benchjson keys rows by name and procs); it reports only the
# SearchStats counts, since the pool's speculative evaluations make its
# simulation and build counts depend on timing, and it averages 40 searches.
BENCH_DET = BenchmarkGraphOptimize$$|BenchmarkOptimizeAPI|BenchmarkOptimizeHetero|BenchmarkPlanCodec|BenchmarkProfile$$
BENCH_DET_BUILD = BenchmarkScheduleBuild/64x128
BENCH_DET_SEARCH = BenchmarkTunerSearchBnB
bench-det = { $(GO) test -run '^$$' -cpu 1 -bench '$(BENCH_DET)' -benchtime $(BENCHTIME) -benchmem . ; \
	      $(GO) test -run '^$$' -cpu 1 -bench '$(BENCH_DET_BUILD)' -benchtime $(BENCHTIME) -benchmem . ; \
	      $(GO) test -run '^$$' -cpu 1 -bench '$(BENCH_DET_SEARCH)' -benchtime 1x -benchmem . ; \
	      $(GO) test -run '^$$' -cpu 2 -bench '$(BENCH_DET_SEARCH)/bnb' -benchtime 40x -benchmem . ; }
bench-json:
	{ $(GO) test -run '^$$' -bench '$(BENCH_MICRO)' \
		-benchtime $(BENCHTIME) -benchmem -count $(BENCHCOUNT) . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkTunerSearch$$' -benchtime 1x -benchmem . ; \
	  $(bench-det) ; } \
		| $(GO) run ./cmd/benchjson > BENCH_sim.json

# The gating half of the ledger: B/op and allocs/op of the deterministic rows
# may not exceed the committed BENCH_sim.json by more than ALLOCPCT percent, and
# the counts those rows report — sims/op (BenchmarkGraphOptimize,
# BenchmarkOptimizeHetero, BenchmarkTunerSearchBnB: simulations), builds
# (BenchmarkOptimizeHetero, BenchmarkTunerSearchBnB: schedules built), units/op
# (BenchmarkScheduleBuild: compute units list-scheduled), explored and oom
# (BenchmarkOptimizeHetero, BenchmarkTunerSearchBnB: grid points simulated, and
# those of them the memory penalty zeroed) and bytes (BenchmarkPlanCodec: plan
# bytes) — may not exceed it at all. Unlike ns/op none of this depends on the runner, so CI enforces it;
# after a deliberate change regenerate the baseline with `make bench-json`.
# The simulator and telemetry micro rows (BENCH_MICRO) repeat their B/op and
# allocs/op as well, so one run of them, at the BENCHTIME they were recorded
# with, rides the same gate.
ALLOCPCT ?= 5
bench-gate-allocs:
	{ $(bench-det) ; \
	  $(GO) test -run '^$$' -bench '$(BENCH_MICRO)' -benchtime $(BENCHTIME) -benchmem . ; } \
		| $(GO) run ./cmd/benchjson -gate-mem $(ALLOCPCT) -baseline BENCH_sim.json \
		-only BenchmarkGraphOptimize,BenchmarkOptimizeAPI,BenchmarkOptimizeHetero,BenchmarkPlanCodec,BenchmarkProfile,BenchmarkScheduleBuild,BenchmarkTunerSearchBnB,BenchmarkSimulate1F1B,BenchmarkSimulateChimera,BenchmarkSimulateReuse,BenchmarkTelemetry

# Regression gate over the committed artifacts: re-runs the hot-path
# microbenchmarks and the service's cache hit (as the server pays for it, and
# as a client that reads the answer does), BENCHCOUNT times each and each the
# way its row was recorded (BenchmarkGraphOptimize is a bench-det row), and
# fails if the fastest repeat of any is more than GATEPCT percent slower than
# the committed BENCH_sim.json / BENCH_serve.json row. CI runs this
# non-gatingly (runner noise); run it locally before regenerating a baseline.
GATEPCT ?= 15
bench-gate:
	{ $(GO) test -run '^$$' -bench 'BenchmarkSimulateReuse' \
		-benchtime $(BENCHTIME) -benchmem -count $(BENCHCOUNT) . ; \
	  $(GO) test -run '^$$' -cpu 1 -bench 'BenchmarkGraphOptimize$$' \
		-benchtime $(BENCHTIME) -benchmem -count $(BENCHCOUNT) . ; } \
		| $(GO) run ./cmd/benchjson -gate $(GATEPCT) -baseline BENCH_sim.json \
			-only BenchmarkGraphOptimize,BenchmarkSimulateReuse
	$(GO) test -run '^$$' -bench 'BenchmarkServePlanCacheHit$$|BenchmarkClientPlanHit$$' \
		-benchtime $(BENCHTIME) -benchmem -count $(BENCHCOUNT) ./internal/serve \
		| $(GO) run ./cmd/benchjson -gate $(GATEPCT) -baseline BENCH_serve.json \
			-only BenchmarkServePlanCacheHit,BenchmarkClientPlanHit

# The planner benchmark (bench/, BENCHMARK.json) is a module of its own, so
# `go test ./...` at the root never runs its tests — among them
# TestBenchmarkJSONMatchesHarness, which keeps BENCHMARK.json and the harness
# tables equal. Under a second.
bench-selftest:
	cd bench && $(GO) test ./...

# Service-layer latency artifact: the mariod request path (cache hit, fresh
# run, traced run, /metrics scrape) against a run stub that instantly returns
# a real LLaMA2-3B/4 plan's bytes, so the numbers isolate serve/telemetry
# overhead — moving the body included — from tuner work. The BenchmarkServe*
# rows post with net/http and discard the answer unread; what a caller pays to
# read it is BenchmarkClientPlanHit (client.Plan) and, through the peer hop,
# BenchmarkServePlanPeerHit. Latency under concurrent load and through a routed
# fleet is the planner benchmark's serve-hot workload (bench/), not a row here.
bench-serve-json:
	$(GO) test -run '^$$' -bench 'BenchmarkServe|BenchmarkClientPlanHit' -benchtime $(BENCHTIME) -benchmem -count $(BENCHCOUNT) ./internal/serve \
		| $(GO) run ./cmd/benchjson > BENCH_serve.json

# Short fuzz smoke: each target gets FUZZTIME of coverage-guided input
# generation on top of its checked-in seeds. This list is the only one: CI's
# fuzz step runs `make fuzz`. FuzzPlanDecode's inputs are 20–40 KB plan bodies:
# at the default -fuzzminimizetime (60 s per newly interesting input) a run
# spends its whole budget minimizing the first one it finds (7 execs a minute,
# against 5,000 a second with the minimizer capped). The two service fuzzers
# stall on it the same way (FuzzPlanResponseRead's seeds include bodies nested
# 10,000 deep; FuzzPlanRequestCanonical ran 48 k executions a minute with the
# default and 489 k capped).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSchemeBuild -fuzztime $(FUZZTIME) ./internal/scheme
	$(GO) test -run '^$$' -fuzz FuzzGraphPassInvariants -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzEngineReuseEquivalence -fuzztime $(FUZZTIME) ./internal/sim/difftest
	$(GO) test -run '^$$' -fuzz FuzzBnBArgmaxEquivalence -fuzztime $(FUZZTIME) ./internal/tuner
	$(GO) test -run '^$$' -fuzz FuzzPlanDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 1s .
	$(GO) test -run '^$$' -fuzz FuzzPlanResponseRead -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/serve/api
	$(GO) test -run '^$$' -fuzz FuzzPlanRequestCanonical -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzParseMemory -fuzztime $(FUZZTIME) -fuzzminimizetime 1s .
	$(GO) test -run '^$$' -fuzz FuzzParseSpeeds -fuzztime $(FUZZTIME) -fuzzminimizetime 1s ./internal/place

# The correctness gate. `go test ./...` holds every check of the program and
# its docs — the doc-comment lint, the surface ratchet, the markdown links,
# docs/TUNING.md against the flags, the golden snippets and the end-to-end
# runs of the commands and the daemon — so `test` and `race` run each of them
# once, without and with the race detector (allocation counts are asserted
# only without it). DESIGN.md §14 names the test that holds each contract.
check: vet build test race bench-selftest bench-gate-allocs fuzz

fmt:
	gofmt -l -w .
