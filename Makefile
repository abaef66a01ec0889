# Standard-library Go only; everything runs offline.

GO ?= go

.PHONY: build test vet race bench ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchmem

# Tier-1 gate: what must stay green on every change, including gofmt and
# the benchmark module's vet and tests (bench/ is its own module, so the
# root `go test ./...` never builds it, and its golden.json pins the
# simulated results of the layers it drives).
ci: build vet test
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "not gofmt-clean:"; echo "$$unformatted"; exit 1; fi
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Kernel microbenchmarks, both event-queue implementations side by side:
# push/pop, steady-state churn and the cancel/purge path on the calendar
# queue vs the retained heap, plus the allocation-free dispatch/handoff
# paths (-benchmem makes a pooling regression visible as allocs/op).
bench-kernel:
	$(GO) test -run '^$$' -bench 'HeapPushPop|QueueChurn|TimerCancelPurge|EventThroughput|QueueHandoff' -benchmem ./internal/sim/
.PHONY: bench-kernel

# Machine-readable benchmark results (BENCH_<exp>.json) under results/.
# cmd/cellpilot-bench's TestResultsRegenerate requires the committed files
# to regenerate byte-identically, so rerun this after an intended change
# to simulated behaviour.
bench-json:
	@mkdir -p results
	$(GO) run ./cmd/cellpilot-bench -exp pingpong -out results
	$(GO) run ./cmd/cellpilot-bench -exp sizesweep -out results
.PHONY: bench-json

# Extended gate: tier-1, the race detector, and every step that
# `go test ./...` does not already run: ten race-checked repeats of the
# tests that run simulations on concurrent goroutines, fuzz smokes
# of the format and scenario parsers, the scenarios/ library validated
# against its golden fingerprints, a profile-export smoke writing both
# formats, a kernel microbenchmark smoke, and staticcheck when the host
# has it installed.
ci-full: ci race
	$(GO) test -race -count=10 -run 'TestKiloscaleSeqParEquivalence|TestChaosKernelArmsDeterminism' ./internal/workload
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime=5s ./internal/fmtmsg
	$(GO) test -run '^$$' -fuzz=FuzzScenarioParse -fuzztime=5s ./internal/scenario/
	$(GO) run ./cmd/cellpilot-bench validate
	$(GO) run ./cmd/cellpilot-bench -exp profile -reps 5 -trace-type 2 \
		-folded /tmp/cellpilot-ci.folded -pprof /tmp/cellpilot-ci.pb.gz >/dev/null
	@rm -f /tmp/cellpilot-ci.folded /tmp/cellpilot-ci.pb.gz
	$(GO) test -run '^$$' -bench 'HeapPushPop|TimerCancelPurge|EventDispatch' -benchtime 100000x ./internal/sim/
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi
.PHONY: ci-full
