# Tier-1 verification for the CEAFF reproduction. `make check` is the
# full gate: formatting, vet, build, the race-enabled test suite, and vet +
# tests of the ceaffbench module (its own go.mod, so `./...` skips it).
# `make bench` regenerates BENCH_PR9.json: table + kernel benchmarks plus
# an instrumented pipeline run, folded into one schema-stable file that
# cmd/benchdiff can compare across commits. `make fuzz-smoke` runs each
# native fuzz target briefly — the corruption-recovery and string-metric
# invariants hold under fresh random inputs, not just the checked-in seeds.

GOFILES := $(shell find . -name '*.go' -not -path './.git/*')

# 3 iterations per benchmark: single-shot timing is too noisy to gate a
# ±15% regression threshold on, and charges one-time pool/runtime setup to
# the lone iteration. The whole suite still runs in ~15s.
BENCHTIME ?= 3x
BENCHOUT  ?= BENCH_PR9.json

FUZZTIME ?= 15s

.PHONY: check fmt vet build test race bench-module bench serve-smoke replica-smoke loadtest loadtest-smoke fuzz-smoke cover

check: fmt vet build race bench-module

fmt:
	@unformatted=$$(gofmt -l $(GOFILES)); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The benchmark harness is a separate module that imports internal/serve;
# building and testing it here catches serving API changes that would
# break the benchmark.
bench-module:
	go -C ceaffbench vet ./...
	go -C ceaffbench test ./...

# Boot ceaffd on an ephemeral port, assert /readyz flips, run one align
# and one candidates query, SIGTERM, and require a clean (exit 0) drain.
serve-smoke:
	sh scripts/serve-smoke.sh

# Boot one router + three replica processes, kill -9 a replica, assert
# partial degraded answers (200 + Engine-Partial) and full recovery after
# a restart, then require clean drains everywhere.
replica-smoke:
	sh scripts/replica-smoke.sh

# Boot ceaffd and drive it with ceaffbench's hot-single workload: open-loop
# traffic, a latency report, and every answer compared byte for byte with
# an in-process reference engine (a mismatch, non-200 or shed fails it).
LOADTEST := bash ceaffbench/run.sh --workload hot-single --seed 1 --trace 0
LOADTEST_OUT := /tmp/ceaff-loadtest.txt

loadtest:
	$(LOADTEST)

# Short gated run for CI: the same run for 3 seconds, which must pass the
# byte oracle with nothing shed and a p95 of at most 250ms.
loadtest-smoke:
	bash -o pipefail -c '$(LOADTEST) --seconds 3 | tee $(LOADTEST_OUT)'
	awk '$$2 == "p95_ms" { p95 = $$3 } END { if (p95 == "" || p95 > 250) { print "loadtest-smoke: p95_ms " p95 ", want <= 250"; exit 1 } }' $(LOADTEST_OUT)

# Brief random-input runs of the native fuzz targets (go test -fuzz allows
# one target per invocation).
fuzz-smoke:
	go test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/wal
	go test -run '^$$' -fuzz FuzzStrsimRatio -fuzztime $(FUZZTIME) ./internal/strsim
	go test -run '^$$' -fuzz FuzzWireFrame -fuzztime $(FUZZTIME) ./internal/serve

# Per-package statement coverage summary.
cover:
	go test -cover ./...

bench:
	go test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) . | tee /tmp/ceaff-bench.txt
	go run ./cmd/ceaff -fast -scale 0.05 -metrics /tmp/ceaff-pipeline.json
	$(LOADTEST) --seconds 5 | tee $(LOADTEST_OUT)
	go run ./cmd/benchfold -bench /tmp/ceaff-bench.txt \
		-note "loadtest=$$(grep '^{' $(LOADTEST_OUT) | tail -1)" \
		-o $(BENCHOUT) /tmp/ceaff-pipeline.json
