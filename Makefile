# Targets mirror .github/workflows/ci.yml so contributors run exactly
# what CI runs.

GO ?= go
# bash + pipefail so `go test | tee` pipelines fail when go test fails.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

# Benchmarks under the CI regression gate (the Maintainer's spanner
# query + MAC medium + node-state tables + epidemic anti-entropy +
# beacon tick + the event-core scheduler + the sequential/parallel
# Runner sweep pair + the 1000-node world step with and without faults
# + the 10000-node world set-up + the calibration probe benchgate
# normalizes by, the only benchmark left in ./internal/geom). The
# gate covers ns/op (calibration-normalized) and, from -benchmem, B/op
# and allocs/op (raw).
BENCH_GATE_PATTERN := BenchmarkSpanner|BenchmarkMedium|BenchmarkNeighborTable|BenchmarkAntiEntropy|BenchmarkBeaconTick|BenchmarkScheduler|BenchmarkRunner|BenchmarkWorldStep|BenchmarkNewWorldGiant|BenchmarkCalibration
BENCH_GATE_PKGS := . ./internal/geom ./internal/ldt ./internal/mac ./internal/dtn ./internal/des ./internal/sim
BENCH_GATE_FLAGS := -benchmem -count 5 -benchtime 0.3s -run '^$$'

.PHONY: build test test-short fuzz-smoke bench bench-gate bench-baseline bench-check mem-gate api api-check doc-check dead-check atlas atlas-check atlas-golden fmt vet ci

build:
	$(GO) build ./...

## test runs the full suite, including the slow paper-artifact
## simulations (~30 s).
test:
	$(GO) test ./...

## test-short is the CI test job's first step: race detector on, slow
## suites skipped. The job then runs the full suite (make test).
test-short:
	$(GO) test -race -short ./...

## fuzz-smoke is the bounded fuzz step of CI's disruption-smoke job,
## which runs this target, so the list below is the only one: 15 s each
## for the fault-slug parser, the neighbor table, the buffer's summary
## vector, scripted trace mobility, the scenario options, the scenario
## matrix's validation, the MAC configuration, the MAC's retention rule
## against a never-pruning medium, the LDT spanner query, the atlas
## cache loader and the mobility models' cached segments against their
## former position lookup.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseFaults$$' -fuzztime 15s .
	$(GO) test -run '^$$' -fuzz '^FuzzNeighborTable$$' -fuzztime 15s ./internal/dtn
	$(GO) test -run '^$$' -fuzz '^FuzzBufferSummary$$' -fuzztime 15s ./internal/dtn
	$(GO) test -run '^$$' -fuzz '^FuzzTrace$$' -fuzztime 15s .
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioOptions$$' -fuzztime 15s .
	$(GO) test -run '^$$' -fuzz '^FuzzMatrix$$' -fuzztime 15s .
	$(GO) test -run '^$$' -fuzz '^FuzzMediumConfig$$' -fuzztime 15s ./internal/mac
	$(GO) test -run '^$$' -fuzz '^FuzzMediumRetention$$' -fuzztime 15s ./internal/mac
	$(GO) test -run '^$$' -fuzz '^FuzzSpannerNeighbors$$' -fuzztime 15s ./internal/ldt
	$(GO) test -run '^$$' -fuzz '^FuzzCellCache$$' -fuzztime 15s ./internal/matrix
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentPosition$$' -fuzztime 15s ./internal/mobility

## bench runs the gated benchmarks once, without the regression gate.
bench:
	$(GO) test -bench '$(BENCH_GATE_PATTERN)' -benchmem -run '^$$' $(BENCH_GATE_PKGS)

## bench-gate is the CI regression job: five repetitions per benchmark,
## median ns/op normalized by the calibration probe, fail on >15%
## regression vs ci/bench_baseline.json. Emits BENCH_spanner.json. The
## Runner and WorldStep macro-benchmarks gate on memory only
## (-skip-ns): their wall-clock depends on the host's core count and
## load, which the single-threaded calibration probe cannot normalize.
## So does NewWorldGiant, whose set-up time is mostly allocation and
## the concurrent collector's work on the other cores; its B/op is the
## check that no per-node table comes back.
bench-gate:
	$(GO) test -bench '$(BENCH_GATE_PATTERN)' $(BENCH_GATE_FLAGS) $(BENCH_GATE_PKGS) | tee bench.txt
	$(GO) run ./cmd/benchgate -in bench.txt -baseline ci/bench_baseline.json \
		-out BENCH_spanner.json -tolerance 0.15 -skip-ns '^(Runner|WorldStep|NewWorldGiant)'

## bench-baseline refreshes the committed baseline (run on an idle
## machine; commit the result together with the change that moved it).
bench-baseline:
	$(GO) test -bench '$(BENCH_GATE_PATTERN)' $(BENCH_GATE_FLAGS) $(BENCH_GATE_PKGS) | tee bench.txt
	$(GO) run ./cmd/benchgate -in bench.txt -write ci/bench_baseline.json

## bench-check is the CI bench-module job: vet and test the separate
## bench/ module (replace glr => ../), which `go test ./...` at the root
## never builds.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

## mem-gate is the CI memory-ceiling job: run each benchmark (bench/)
## workload that ci/mem_budget.json gives a ceiling — peak heap for the
## 10k-node giant10k-glr and the epidemic comparator paper50-epidemic,
## bytes allocated per world for paper50-glr — for 1 s, keep their
## output in mem-gate.txt, and check the JSON digest on the last stdout
## line of each run with ci/mem_gate.jq: the runs must be correct with
## none failed, and peak_heap_mib (ceilings_mib) and alloc_mib
## (alloc_ceilings_mib) must be numbers at or under the workload's
## ceilings.
mem-gate:
	@workloads=$$(jq -r '[.ceilings_mib, .alloc_ceilings_mib | keys[]?] | unique[]' ci/mem_budget.json) && [ -n "$$workloads" ] || { \
		echo "mem-gate: no workload ceilings in ci/mem_budget.json" >&2; exit 1; }; \
	: > mem-gate.txt; \
	for w in $$workloads; do \
		echo "bash bench/run.sh --workload $$w --seconds 1"; \
		bash bench/run.sh --workload $$w --seconds 1 | tee -a mem-gate.txt && \
		tail -n 1 mem-gate.txt | jq -nr --arg w $$w \
			--slurpfile budget ci/mem_budget.json -f ci/mem_gate.jq || exit 1; \
	done

## api regenerates the committed public-API surface (api/glr.txt). Run
## it — and commit the diff — whenever a public-API change is
## intentional.
api:
	$(GO) doc -all . > api/glr.txt

## api-check is the CI API-surface gate: any drift of `go doc -all`
## against the committed api/glr.txt fails, so public-API breaks are
## always explicit in review.
api-check:
	@$(GO) doc -all . > .api-current.txt || { \
		rm -f .api-current.txt; \
		echo "go doc failed; cannot check the API surface" >&2; exit 1; }
	@if ! diff -u api/glr.txt .api-current.txt; then \
		rm -f .api-current.txt; \
		echo "public API surface drifted from api/glr.txt;" >&2; \
		echo "run 'make api' and commit the diff if intentional" >&2; \
		exit 1; \
	fi; rm -f .api-current.txt

## doc-check is the godoc audit: every exported identifier in the root
## package and internal/matrix must carry a doc comment (vet-style
## diagnostics, non-zero exit on omissions).
doc-check:
	$(GO) run ./cmd/doccheck . internal/matrix

## dead-check is the reachability gate: every exported name in internal/
## must be used by a non-test file of the module or of the bench/
## module (a method that implements an interface counts as used), and
## only _test.go files may import internal/oracle, which holds the
## reference implementations tests compare against. Names that may stay
## unused are listed, each with its reason, in ci/deadcheck_allow.txt.
dead-check:
	$(GO) run ./cmd/deadcheck

## atlas (re)builds the committed regime-map atlas: executes the
## declared scenario matrix against the result cache in
## docs/atlas-cache/ (only cells without a valid cache entry compute),
## checks the paper-figure slice against ci/atlas_golden.json, and
## renders docs/ATLAS.md + docs/atlas.json. With a warm cache this is
## pure rendering and byte-identical to the run that computed the cells.
atlas:
	$(GO) run ./cmd/glratlas -v

## atlas-check is the CI job: regenerate the atlas from the committed
## cache and fail on any byte drift of the committed artifacts, then
## recompute the whole atlas into an empty cache and compare it with
## the committed cache and artifacts (~40 s on 2 vCPUs: results that
## move without a matrix.Version bump fail here), then compute a small
## slice end to end (the -short path) into another empty cache.
atlas-check:
	$(GO) run ./cmd/glratlas
	git diff --exit-code -- docs/ATLAS.md docs/atlas.json docs/atlas-cache ci/atlas_golden.json
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/cache" "$$tmp/out" && \
	$(GO) run ./cmd/glratlas -cache "$$tmp/cache" -out "$$tmp/out" && \
	diff -r "$$tmp/cache" docs/atlas-cache && \
	cmp "$$tmp/out/ATLAS.md" docs/ATLAS.md && \
	cmp "$$tmp/out/atlas.json" docs/atlas.json
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/cache" "$$tmp/out" && \
	$(GO) run ./cmd/glratlas -short -cache "$$tmp/cache" -out "$$tmp/out"

## atlas-golden re-pins ci/atlas_golden.json from the current atlas.
## Run it — and commit the diff — only when the paper-figure numbers
## move intentionally (bump internal/matrix.Version alongside semantic
## simulation changes so stale cache cells recompute).
atlas-golden:
	$(GO) run ./cmd/glratlas -write-golden

fmt:
	$(GO) fmt ./...

vet:
	$(GO) vet ./...

## ci is the whole pipeline: build, formatting gate, vet, API-surface
## gate, godoc audit, reachability gate, short tests with the race
## detector, the full test suite, the atlas gate, the
## benchmark-regression and memory gates, and the bench-module check.
ci: build
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(MAKE) api-check
	$(MAKE) doc-check
	$(MAKE) dead-check
	$(GO) test -race -short ./...
	$(GO) test ./...
	$(MAKE) atlas-check
	$(MAKE) bench-gate
	$(MAKE) mem-gate
	$(MAKE) bench-check
