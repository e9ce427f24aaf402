# causalfl — stdlib-only Go; no tool dependencies beyond the Go toolchain.

GO ?= go

.PHONY: all check build loc test test-short test-stream test-serve test-arena race vet perfbench-vet lint lint-json graph fmt fmt-check fuzz-smoke bench bench-micro demo-stream demo-serve demo-arena report tables figures clean

all: check

# The default verification path: compile, static checks (go vet plus the
# project's own causalfl-vet analyzers), full tests, the race detector
# over the library packages, and the end-to-end demos.
check: build vet lint test race demo-stream demo-serve demo-arena

build:
	$(GO) build ./...

# Non-test Go line count of the module, excluding the benchmark harness
# (_perfbench/), test fixtures (testdata/) and hidden build directories.
# Deletion changes quote it.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './.*' -not -path './_perfbench/*' -not -path '*/testdata/*' -print0 | xargs -0 cat | wc -l

test:
	$(GO) test ./...

# Skips the simulation campaigns; unit and property tests only.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./internal/...

# The batch↔stream conformance suite under the race detector: per-hop
# equivalence properties, the aggregator conformance, the golden verdict
# timeline, and the Drain ordering regression.
test-stream:
	$(GO) test -race ./internal/stream/ ./internal/telemetry/ ./internal/stats/

# The serving-layer suite under the race detector: crash-recovery
# conformance (kill + restore mid-stream, byte-identical timelines),
# backpressure accounting, the snapshot codec fuzz seeds, and concurrent
# multi-tenant ingest.
test-serve:
	$(GO) test -race ./internal/serve/ ./internal/stream/

# The baseline-arena suite under the race detector: the head-to-head
# harness (workers byte-identity, arena<->evaluate parity, envelope
# round-trip) plus the competitor implementations it measures.
test-arena:
	$(GO) test -race ./internal/arena/ ./internal/baselines/

vet:
	$(GO) vet ./...

# Type-checks and vets the benchmark harness, a separate module that calls
# the serve and stream APIs, so an API change that breaks it fails here.
# The harness resolves the main module through its replace directive and
# needs no go.sum.
perfbench-vet:
	cd _perfbench && GOFLAGS=-mod=mod GOWORK=off $(GO) vet ./...

# Project-invariant static analysis (determinism, statistical hygiene,
# topology validity) over the whole module, examples included. See
# docs/STATIC_ANALYSIS.md; suppressions live in vet-baseline.json.
lint:
	$(GO) run ./cmd/causalfl-vet -baseline vet-baseline.json

lint-json:
	$(GO) run ./cmd/causalfl-vet -baseline vet-baseline.json -json

# Dump the module call graph (the engine behind the interprocedural passes)
# as Graphviz DOT on stdout.
graph:
	$(GO) run ./cmd/causalfl-vet -graph

fmt:
	gofmt -l -w .

# Fails (and lists the offenders) if any file is not gofmt-clean; CI runs
# this, `make fmt` fixes it.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Short-budget run of every fuzz target (go test runs one -fuzz pattern per
# invocation, hence one line per target). Catches codec and parser
# regressions in CI without an open-ended fuzzing session; raise FUZZTIME
# locally for a deeper hunt. -run xxx skips the package's unit tests.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzIncrementalKS -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run xxx -fuzz FuzzKSDistanceUnsorted -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run xxx -fuzz FuzzSketchRankError -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run xxx -fuzz FuzzSortFloat64s -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run xxx -fuzz FuzzSanitize -fuzztime $(FUZZTIME) ./internal/metrics
	$(GO) test -run xxx -fuzz FuzzReadTrainingData -fuzztime $(FUZZTIME) ./internal/eval
	$(GO) test -run xxx -fuzz FuzzTopology -fuzztime $(FUZZTIME) ./internal/analysis
	$(GO) test -run xxx -fuzz FuzzCallGraph -fuzztime $(FUZZTIME) ./internal/analysis
	$(GO) test -run xxx -fuzz FuzzSnapshotRoundTrip -fuzztime $(FUZZTIME) ./internal/stream
	$(GO) test -run xxx -fuzz FuzzDetectorMatchesBatch -fuzztime $(FUZZTIME) ./internal/stream
	$(GO) test -run xxx -fuzz FuzzReadModel -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzReadReport -fuzztime $(FUZZTIME) ./internal/repair
	$(GO) test -run xxx -fuzz FuzzReadArenaReport -fuzztime $(FUZZTIME) ./internal/arena
	$(GO) test -run xxx -fuzz FuzzIngestHandler -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run xxx -fuzz FuzzCreateTenantHandler -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run xxx -fuzz FuzzLocalizeHandler -fuzztime $(FUZZTIME) ./internal/webui

# Every table, figure, ablation and extension, abbreviated windows.
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x .

# Short-budget run of the micro-benchmarks, with allocations: one guarded KS
# test of a window of 8 against a 384-value baseline read in place (a
# shifted and an overlapping window), the baseline sort (pdqsort against the
# radix kernel from 8 to 384 values, whose numbers set its crossover, and
# one 384-value KSBaselines.Add), the stream engine's fleet-scale ones
# (detector ingest + flush, and a whole Localizer.Step, on the 4096-service
# synthetic fleet) and its Pipeline.Tick on recorded robotshop ticks,
# serve's ingest decode and handler (a 64-tick, 12-service robotshop
# batch) and the simulator's throughput (one simulated
# second of each paper app at default load, in events per second). A smoke check:
# it fails only if a benchmark errors or panics; raise BENCHTIME locally for
# numbers to compare. The 4096-service fleet is measured end to end by
# _perfbench's stream-fleet workload; serial vs pooled campaign stages are
# the BenchmarkParallel_* benchmarks of bench_test.go.
BENCHTIME ?= 200x
bench-micro:
	$(GO) test -run xxx -bench '^Benchmark(KSBaselinesGuardedPValue|SortFloat64s|KSBaselinesAdd)$$' -benchmem -benchtime $(BENCHTIME) ./internal/stats
	$(GO) test -run xxx -bench '4096$$|^BenchmarkPipelineTick$$' -benchmem -benchtime $(BENCHTIME) ./internal/stream
	$(GO) test -run xxx -bench '^Benchmark(IngestDecode|HandleIngest)$$' -benchmem -benchtime $(BENCHTIME) ./internal/serve
	$(GO) test -run xxx -bench '^BenchmarkMicro_SimulatorThroughput$$' -benchmem -benchtime $(BENCHTIME) ./internal/sim

# End-to-end streaming demo: train, watch a live session, break a service,
# see the verdict timeline confirm it.
demo-stream:
	$(GO) run ./examples/streaming

# End-to-end serving demo: boot the multi-tenant service, feed a tenant over
# the HTTP API, crash it mid-stream, boot a second server from the same
# snapshot directory and verify the resumed timeline is byte-identical.
demo-serve:
	$(GO) run ./examples/serve

# Head-to-head arena demo: every technique on identical datasets, clean and
# degraded telemetry, with a serial-vs-pooled byte-identity proof.
demo-arena:
	$(GO) run ./examples/arena

# Paper-length regeneration of the full evaluation; `causalfl report
# -section` runs any subset of its sections by key.
report:
	$(GO) run ./cmd/causalfl report -out docs/EVALUATION.md

tables:
	$(GO) run ./cmd/causalfl report -section table1,table2

figures:
	$(GO) run ./cmd/causalfl report -section fig1,fig2,causal-sets,logging

clean:
	$(GO) clean ./...
