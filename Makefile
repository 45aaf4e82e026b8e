# Build/check targets for the graph analytics study and its serving
# subsystem. `make check` is the gate for concurrency-heavy changes: it
# vets, lints (graphlint: the repo's own determinism/concurrency/tracing
# analyzers), verifies formatting, runs the full test suite, and
# race-checks the service and core packages.

GO ?= go

.PHONY: build test race test-parallel check vet perfbench-vet lint lint-stale \
	lint-fixtures fmt fuzz-smoke clean bench-fresh bench-gate bench-baseline

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the packages that own concurrency: the serving subsystem
# (queue/dedup/cache/worker pool), the run orchestrator, the dataset store
# (refcounted registry + LRU eviction), the per-P span recorder, the
# differential harness that drives traced runs from multiple goroutines,
# and the parallel kernel stack (blocked executors, GraphBLAS kernels, and
# the LAGraph-style apps that run on them).
RACE_PKGS = ./internal/service/... ./internal/core/... ./internal/store/... \
	./internal/trace/... ./internal/verify/... ./internal/galois/... \
	./internal/grb/... ./internal/fuse/... ./internal/lagraph/... \
	./internal/adapt/... ./internal/loadgen/...

race:
	$(GO) test -race $(RACE_PKGS)

# Focused gate for the parallel kernel backend: the equivalence, metamorphic,
# alias, and digest-stability suites under the race detector at a fixed
# worker count, plus a does-it-run pass over the SpMV scaling benchmark.
test-parallel:
	$(GO) test ./internal/grb ./internal/verify ./internal/fuse ./internal/adapt -race -grb.workers=4
	$(GO) test ./internal/grb -run '^$$' -bench SpMV -benchtime 1x

# Short fuzzing pass over every untrusted-input decoder, plus the
# differential targets (snapshot materialization against its map-based
# reference, fused and adaptive kernels against eager). Go allows one fuzz
# target per invocation, so each runs separately; 30s apiece keeps this
# CI-sized while still exercising the mutator beyond the seed corpus.
FUZZTIME ?= 30s

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzReadMatrixMarket$$' -fuzztime $(FUZZTIME) ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzReadEdgeList$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzReadGSG2$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzReadGraph$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzReadDeltaLog$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzMaterializeDeltas$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzDagEquivalence$$' -fuzztime $(FUZZTIME) ./internal/fuse/
	$(GO) test -run '^$$' -fuzz '^FuzzAdaptEquivalence$$' -fuzztime $(FUZZTIME) ./internal/adapt/
	$(GO) test -run '^$$' -fuzz '^FuzzIncrementalEquivalence$$' -fuzztime $(FUZZTIME) ./internal/verify/

# The vet gate is pinned to an explicit analyzer list so a toolchain
# change can never silently drop a check this repo relies on (copylocks
# and loopclosure guard the galois closures, atomic the counters).
VET_CHECKS = atomic bools buildtag copylocks errorsas loopclosure lostcancel \
	nilfunc printf shift stdmethods stringintconv structtag tests unmarshal \
	unreachable unusedresult

vet:
	$(GO) vet $(foreach c,$(VET_CHECKS),-$(c)) ./...

# The benchmark (_perfbench) is its own module, and `./...` skips
# directories starting with `_`, so the build above never compiles it.
# Vetting it here makes an exported-API break in core fail `check` instead
# of failing only when the benchmark runs.
perfbench-vet:
	$(GO) -C _perfbench vet ./...

# graphlint (cmd/graphlint) enforces the invariants go vet cannot see:
# deterministic map handling in kernels, disjoint writes in galois loop
# bodies, no stray goroutines, lease/arena/span release on every CFG
# path, context threading, semiring operand order, checked errors in
# the persistence layers. Zero findings is the bar; licensed exceptions
# carry //lint:ignore <rule> <reason> in the source. The content-keyed
# cache makes a re-lint of an unchanged tree near-instant; delete the
# file (or set LINT_CACHE=) to force a cold run.
LINT_CACHE ?= .graphlint.cache

lint:
	$(GO) run ./cmd/graphlint -cache "$(LINT_CACHE)" ./...

# Reports //lint:ignore directives that no longer suppress anything —
# run after fixing a finding to retire its suppression.
lint-stale:
	$(GO) run ./cmd/graphlint -stale ./...

# Asserts every analyzer in the suite has a firing golden fixture and
# that all fixtures (firing and clean) still match; CI runs this so a
# new rule cannot land untested.
lint-fixtures:
	$(GO) test ./internal/lint/ -run 'TestGolden|TestFixtureCoverage' -count=1

# Lint fixtures deliberately contain code gofmt and vet would object to;
# they live under testdata/, which the go tool skips, and are excluded
# from the formatting gate here.
check: build vet perfbench-vet lint
	@fmtout=$$(gofmt -l . | grep -v 'internal/lint/testdata/' || true); \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) test ./...
	$(GO) test -race $(RACE_PKGS)

# Perf gate. bench-fresh regenerates a full BENCH snapshot into
# $(BENCH_FRESH): the serving half from a seeded graphbench scenario
# against an in-process graphd, the kernel half from the traced
# `gentables -exp bench` cell set. bench-gate then compares it against the
# committed baseline $(BENCH_BASELINE) like a lint pass — one line per
# violated tolerance, nonzero exit on any finding. Deterministic columns
# (digests, rounds, bytes, request counts) gate exactly; Lonestar sssp's
# relaxation count depends on the schedule and is not gated; wall-clock
# columns get a 10x + 1s floor so CI noise cannot trip them.
# bench-baseline rewrites the committed baseline — run it (and commit the
# diff) when a change legitimately moves the numbers.
BENCH_BASELINE ?= BENCH_12.json
BENCH_FRESH ?= BENCH_fresh.json
BENCH_SCENARIO ?= smoke

bench-fresh:
	rm -f $(BENCH_FRESH)
	$(GO) run ./cmd/graphbench run -scenario $(BENCH_SCENARIO) -self -json $(BENCH_FRESH)
	$(GO) run ./cmd/gentables -exp bench -scale test -progress=false -bench-json $(BENCH_FRESH) > /dev/null

bench-gate: bench-fresh
	$(GO) run ./cmd/graphbench gate -baseline $(BENCH_BASELINE) -fresh $(BENCH_FRESH)

bench-baseline:
	rm -f $(BENCH_BASELINE)
	$(GO) run ./cmd/graphbench run -scenario $(BENCH_SCENARIO) -self -json $(BENCH_BASELINE)
	$(GO) run ./cmd/gentables -exp bench -scale test -progress=false -bench-json $(BENCH_BASELINE) > /dev/null

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
