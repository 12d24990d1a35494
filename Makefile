# Developer entry points; CI (.github/workflows/ci.yml) runs `make check`.

GO ?= go

# bench knobs: BENCHTIME=1x gives a smoke pass, 30x a stable trajectory.
BENCHTIME ?= 1x
BENCHOUT  ?= BENCH_timed.json

# fuzz-smoke budget per target; CI's verify job uses the default.
FUZZTIME ?= 30s

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# fmt-check fails, listing the files, when any Go source needs gofmt.
GOFMT_DIRS = *.go cmd examples internal perfbench

fmt-check:
	@out=$$(gofmt -l $(GOFMT_DIRS)); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# bench-check vets and tests the benchmark harness. perfbench is a Go
# module of its own, so ./... above never compiles it; its tests also
# catch a change to the internal APIs it drives.
bench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The race runs include a pass with the statsguard build tag, which arms
# the stats.Run single-writer ownership assertion (internal/stats). The
# guard resolves the writing goroutine's id via runtime.Stack on every
# record, so the tagged pass is scoped to the engine packages that
# exercise shard ownership rather than the whole experiment suite, and to
# internal/memory, whose shared-mode word atomics the parallel engine's
# workers race on.
race:
	$(GO) test -race ./...
	$(GO) test -race -tags statsguard ./internal/stats/ ./internal/gpu/ ./internal/workloads/ ./internal/par/ ./internal/serve/ ./internal/memory/

.PHONY: build vet test fmt-check bench-check race check bench verify fuzz-smoke timeline-smoke sweep-smoke corpus examples-smoke results-check

check: build vet fmt-check test race bench-check examples-smoke results-check

# examples-smoke runs each example program and diffs its standard output
# against testdata/examples/<name>.golden. Every example is
# deterministic, so any drift is a behavior change of the public API or
# the simulator that the examples exercise.
EXAMPLES = quickstart raytrace bfs divergence-patterns asm-pipeline

examples-smoke:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	for e in $(EXAMPLES); do \
		$(GO) run ./examples/$$e > "$$out" || exit 1; \
		diff -u testdata/examples/$$e.golden "$$out" \
			|| { echo "examples-smoke: $$e output drifted from testdata/examples/$$e.golden"; exit 1; }; \
	done; \
	echo "examples-smoke: $(words $(EXAMPLES)) examples match their goldens"

# results-check reruns the full-scale experiment report and diffs it
# against docs/results-full.txt, so the checked-in report cannot go stale.
# Every experiment is deterministic at any worker count; a diff is a
# change in what the simulator reports.
results-check:
	$(GO) run ./cmd/simd-bench -all | diff -u docs/results-full.txt -

# verify runs the differential verification harness (DESIGN.md §10):
# every workload at quick sizes, each captured instruction checked
# against the independent oracle, and the serial, parallel, trace-replay
# and timed engines (all seven policies) cross-checked bit for bit.
verify:
	$(GO) run ./cmd/simd-verify -quick -timed

# fuzz-smoke gives each fuzz target a short adversarial run on top of
# its checked-in corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSCCSchedule -fuzztime $(FUZZTIME) ./internal/gpu/
	$(GO) test -run '^$$' -fuzz FuzzMetamorphicCycles -fuzztime $(FUZZTIME) ./internal/compaction/
	$(GO) test -run '^$$' -fuzz FuzzKernelGen -fuzztime $(FUZZTIME) ./internal/kgen/
	$(GO) test -run '^$$' -fuzz FuzzLaneLoop -fuzztime $(FUZZTIME) ./internal/eu/

# corpus runs the seeded kernel corpus through the full differential
# pipeline: every generated kernel checked against its straight-line
# evaluator on the serial engine, then cross-checked on the parallel,
# trace-replay, and timed engines under all seven compaction policies
# (docs/corpus.md). The pinned seed makes the run — including the
# printed digest over every encoded program and its expected outputs —
# byte-for-byte reproducible; CI pins a smaller count. On divergence
# the minimized paste-ready repro lands in $(CORPUS_REPRO).
CORPUS_SEED    ?= 20130624
CORPUS_COUNT   ?= 1000
CORPUS_PROFILE ?= all
CORPUS_REPRO   ?= corpus-repro.go.txt

corpus:
	$(GO) run ./cmd/simd-corpus -seed $(CORPUS_SEED) -count $(CORPUS_COUNT) \
		-profile $(CORPUS_PROFILE) -verify -emit-worst $(CORPUS_REPRO)

# timeline-smoke captures a Perfetto timeline from a divergent workload
# across all seven policies, validates it with timelint (required keys,
# monotonic per-track timestamps, paired async spans), and re-proves the
# zero-alloc contract with the probes compiled in but disabled. CI
# uploads the timeline as an artifact.
TIMELINE ?= timeline.json

timeline-smoke:
	$(GO) run ./cmd/simd-sim -workload bfs -n 256 -compare -timeline $(TIMELINE)
	$(GO) run ./cmd/timelint $(TIMELINE)
	$(GO) test -run TestTimedExecutionZeroAlloc -count 1 ./internal/eu/

# sweep-smoke exercises the trace-once sweep engine end to end on a
# small grid. Each (workload, width, size) group runs one functional
# execution, whose run serves all seven policy cells, and one check that
# a replay of its captured trace reproduces that run's accounting. The
# CLI pass oracle-checks every captured trace record (-verify) and
# asserts the tally line "14 cells from 2 executions over ...". The
# test pass proves one execution and one replay per group
# (probe-counted), cell costs identical to fresh per-policy executions,
# a capture check that rejects an altered trace, sweep option
# validation, and /v1/sweep cells byte-identical to freshly executed
# /v1/run responses on an independent httptest server.
sweep-smoke:
	@out=$$($(GO) run ./cmd/simd-bench -sweep bsearch,urng -sizes 512 -verify) || exit 1; \
	echo "$$out"; \
	echo "$$out" | tail -n 1 | grep -q '^14 cells from 2 executions over ' \
		|| { echo "sweep-smoke: tally line must start with '14 cells from 2 executions over'"; exit 1; }
	$(GO) test -count 1 -run 'TestSweepSingleExecutionPerWorkload|TestSweepReplayMatchesFreshExecution|TestSweepOracleVerify|TestSweepOptionValidation|TestCheckCaptureRejectsAlteredTrace' ./internal/experiments/
	$(GO) test -count 1 -run 'TestSweepCellsByteIdenticalToRun|TestSweepWidthAxisOverHTTP' ./internal/serve/

# bench runs every benchmark with allocation reporting, and no unit test
# (-run '^$'), and converts the output into $(BENCHOUT) (ns/op, B/op,
# allocs/op per benchmark) for the bench-trajectory artifact uploaded by
# CI's bench-smoke job. The checked-in BENCH_timed.json is the median of
# five samples per benchmark, from the same go test command with
# -benchtime 10x -count 5 piped into cmd/benchjson.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./... | $(GO) run ./cmd/benchjson -o $(BENCHOUT)
