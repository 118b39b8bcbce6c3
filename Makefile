# Development entry points; CI (.github/workflows/ci.yml) runs `make check`.

GO ?= go

.PHONY: all build vet test race bench bench-json bench-gate bench-gate-allocs bench-serve-json bench-selftest check fmt fuzz lint docs-check schemes-smoke serve-smoke fleet-smoke telemetry-smoke hetero-smoke

all: check

# go-test-named runs the named tests — $(1) go test flags, $(2) the names
# joined by |, $(3) the packages — and fails when any of the names ran no test:
# `go test -run <no match>` exits 0, so a renamed test would silently turn the
# gate that selects it into a no-op. Every target that selects tests by name
# goes through it.
define go-test-named
out=$$($(GO) test $(1) -v -run '$(2)' $(3) 2>&1) || { echo "$$out"; exit 1; }; \
for name in $$(echo '$(2)' | tr '|' ' '); do \
	echo "$$out" | grep -q "^=== RUN   $$name" || { echo "FAIL: no test named $$name ran in $(3)"; exit 1; }; \
done; \
echo "$$out" | grep '^ok'
endef

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

# Doc-comment lint for every package under internal/ (go list names them,
# so a new package is linted from its first commit): the contracts — what a
# simulator reuses and what it re-derives, the passes' options, who owns a
# schedule's lists, the generator registry, the planning service's
# surface, the nn layer interface — must live in the source.
# Dependency-free (cmd/exportlint, go/ast).
lint:
	$(GO) run ./cmd/exportlint $$($(GO) list ./internal/... | sed 's|^mario/|./|')

# End-to-end smoke of the mariod planning service, under the race detector:
# re-runs the test binary as mariod with a main and a debug listener, plans a
# small workload through the Go client (traced fresh run, then a byte-identical
# cache hit), reads pprof, the flight dump and fresh gauges off the debug port,
# dumps the flight recorder on SIGQUIT and walks the SIGTERM drain to exit 0.
serve-smoke:
	$(call go-test-named,-race,TestDaemonLifeCycle,./cmd/mariod)

# Fleet smoke, under the race detector: a routed plan byte-identical to an
# in-process Optimize and answered from the owner's cache on repeat, then a
# three-member loopback fleet that routes the base workload from every
# non-owner (a routed-ok count on each) and takes a loadgen burst (no errors,
# no 429/503, cache and peer hits) before it drains.
fleet-smoke:
	$(call go-test-named,-race,TestFleetEndToEndByteIdentity,./internal/serve)
	$(call go-test-named,-race,TestLoopbackFleetBurst,./internal/serve/loadgen)

# Telemetry smoke: the span-tree determinism tests under the race detector
# (canonical exports byte-identical for Workers ∈ {1,4,GOMAXPROCS}), the one
# record stream under it too (a noiseless measured run is the simulator's
# records; drift is deterministic; a decoded plan renders and drifts like a
# fresh one), the export golden files, and TestCLI: a traced cmd/mario search
# writing all three trace artifacts, and a measured cmd/mario run writing every
# timeline artifact — chart, SVG, predicted and measured Chrome traces, event
# JSONL — and its drift report.
telemetry-smoke:
	$(call go-test-named,-race,TestTraceWorkerIndependence|TestSelfTimeTelescopes,./internal/tuner)
	$(call go-test-named,-race,TestClusterMatchesSimulatorNoiseless,./internal/cluster)
	$(call go-test-named,-race,TestComputeDriftDeterministic|TestPlanJSONDecodedPlanRuns,.)
	$(call go-test-named,,TestGoldenExports|TestGoldenSpanChrome,./internal/telemetry)
	$(call go-test-named,,TestCLI,./cmd/mario)

# Heterogeneity smoke: the placement subsystem's acceptance contract (co-opt
# strictly beats the uniform baseline in predicted AND measured throughput on
# the pinned scenario), worker-count independence and bnb-vs-grid equivalence
# over the placement axis under the race detector, and one CLI run through
# -device-speeds/-placement (TestCLI/hetero).
hetero-smoke:
	$(call go-test-named,-race,TestHeteroCoOptBeatsUniform|TestHeteroAutoExploresBothModes,.)
	$(call go-test-named,-race,TestHeteroDeterministicAcrossWorkers|TestHeteroBnBMatchesGridArgmax|TestAllOnesSpeedsAreLegacy,./internal/tuner)
	$(call go-test-named,,TestCLI/hetero,./cmd/mario)

# Markdown link + heading-anchor check over the repo docs plus the golden
# snippets in EXPERIMENTS.md and docs/SCHEMES.md (TestGoldenDocs re-runs the
# fast-mode experiments and the scheme-catalogue renderer and byte-compares
# their output against the documented blocks).
#
# docs/TUNING.md is "every knob", checked both ways: a flag that `-h` of
# cmd/mario, cmd/mariod or cmd/loadgen prints needs a `-name mention there, and
# a `-name in a knob column (the first cell of a table row) has to be a flag of
# some cmd/ binary or of `go test` — a row for a flag that is gone fails.
flags-of = $(GO) run ./cmd/$(1) -h 2>&1 | sed -n 's/^  -\([a-z][a-z0-9-]*\).*/\1/p'
docs-check:
	$(GO) run ./cmd/docscheck README.md DESIGN.md EXPERIMENTS.md ROADMAP.md PAPER.md docs
	$(call go-test-named,,TestGoldenDocs|TestDocsCiteRealTests,./internal/experiments)
	@fail=0; known=" race cpu short bench benchtime benchmem count fuzz fuzztime "; \
	for c in $$(ls cmd); do \
		flags=$$($(call flags-of,$$c)); known="$$known$$(echo $$flags) "; \
		case $$c in mario|mariod|loadgen) for f in $$flags; do \
			grep -q -- "\`-$$f[^a-z0-9-]" docs/TUNING.md || { echo "docs/TUNING.md: no \`-$$f mention for the cmd/$$c flag"; fail=1; }; \
		done;; esac; \
	done; \
	for f in $$(awk -F'|' '/^\|/ {print $$2}' docs/TUNING.md | grep -o '`-[a-z][a-z0-9-]*' | cut -c3- | sort -u); do \
		case "$$known" in *" $$f "*) ;; *) echo "docs/TUNING.md: knob \`-$$f names no flag of a cmd/ binary or of go test"; fail=1;; esac; \
	done; \
	[ $$fail = 0 ] && echo "docs-check: docs/TUNING.md and the cmd/ flag sets agree"

# Scheme-family smoke: every registered generator (incl. the split-backward
# ZB-H1 and DualPipe-D) builds and validates on the demo grid and, with every
# graph pass on top, over all small shapes (Build does not validate), the list
# scheduler is deterministic under the race detector, the zero-bubble
# comparison runs end to end, and the docs/SCHEMES.md diagrams match the
# renderer byte-for-byte.
schemes-smoke:
	$(call go-test-named,-race,TestAllSchemesValidate|TestSplitSchemesValidate|TestSchemeBuildDeterministic,./internal/scheme)
	$(call go-test-named,-race,TestRegistryValidates,./internal/graph)
	$(GO) run ./cmd/experiments -fast -run zerobubble >/dev/null
	$(call go-test-named,,TestGoldenDocs|TestZeroBubbleFast,./internal/experiments)

check: vet build race bench-selftest bench-gate-allocs fuzz lint docs-check schemes-smoke hetero-smoke serve-smoke fleet-smoke telemetry-smoke

fmt:
	gofmt -l -w .
