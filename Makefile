# causalfl — stdlib-only Go; no tool dependencies beyond the Go toolchain.

GO ?= go

.PHONY: all check build loc test test-short test-stream test-serve test-arena race vet lint lint-json graph fmt fmt-check fuzz-smoke bench bench-micro bench-parallel bench-stream bench-scale demo-stream demo-serve demo-arena report tables figures clean

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
	$(GO) test -run xxx -fuzz FuzzSketchRankError -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run xxx -fuzz FuzzSanitize -fuzztime $(FUZZTIME) ./internal/metrics
	$(GO) test -run xxx -fuzz FuzzReadTrainingData -fuzztime $(FUZZTIME) ./internal/eval
	$(GO) test -run xxx -fuzz FuzzTopology -fuzztime $(FUZZTIME) ./internal/analysis
	$(GO) test -run xxx -fuzz FuzzCallGraph -fuzztime $(FUZZTIME) ./internal/analysis
	$(GO) test -run xxx -fuzz FuzzSnapshotRoundTrip -fuzztime $(FUZZTIME) ./internal/stream
	$(GO) test -run xxx -fuzz FuzzReadModel -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run xxx -fuzz FuzzReadReport -fuzztime $(FUZZTIME) ./internal/repair
	$(GO) test -run xxx -fuzz FuzzReadArenaReport -fuzztime $(FUZZTIME) ./internal/arena

# Every table, figure, ablation and extension, abbreviated windows.
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x .

# Short-budget run of the stream engine's fleet-scale micro-benchmarks
# (detector ingest + flush, and a whole Localizer.Step, on the 4096-service
# synthetic fleet), with allocations. A smoke check: it fails only if a
# benchmark errors or panics; raise BENCHTIME locally for numbers to compare.
BENCHTIME ?= 200x
bench-micro:
	$(GO) test -run xxx -bench '4096$$' -benchmem -benchtime $(BENCHTIME) ./internal/stream

# Serial vs parallel wall-clock comparison of the causal-learning stages.
# The JSON artifact records learn/localize/campaign timings at workers=1 and
# workers=GOMAXPROCS; the outputs of both runs are identical by construction.
bench-parallel:
	$(GO) run ./cmd/causalfl bench -quick -out BENCH_parallel.json

# Incremental streaming engine vs naive batch-per-tick recomputation on the
# 64-service × 8-metric reference workload; both engines emit byte-identical
# verdicts, so the artifact is purely a wall-clock comparison.
bench-stream:
	$(GO) run ./cmd/causalfl bench -stream -out BENCH_stream.json

# Fleet-size sweep: the incremental streaming engine (exact and ECDF-sketch
# baselines) from 64 to 4096 services at a fixed reporting density. The
# headline number is per-hop latency staying flat as the fleet grows; the
# batch-per-tick comparison runs up to 512 services, where it is already
# orders of magnitude off the pace. See docs/SCALING.md.
bench-scale:
	$(GO) run ./cmd/causalfl bench -stream \
		-services 64,256,512,1024,2048,4096 -baseline 384 -sketch \
		-out BENCH_stream.json

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

# Paper-length regeneration of the full evaluation.
report:
	$(GO) run ./cmd/causalfl report -out docs/EVALUATION.md

tables:
	$(GO) run ./cmd/causalfl tables

figures:
	$(GO) run ./cmd/causalfl figures

clean:
	$(GO) clean ./...
