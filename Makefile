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
# push/pop, steady-state churn, timer arm+cancel and Try*-style
# deadline churn on the calendar queue vs the retained heap, plus the
# allocation-free dispatch/handoff paths (-benchmem makes a pooling
# regression visible as allocs/op; DeadlineChurn also reports the
# fractional mallocs/op that resizing churn costs).
bench-kernel:
	$(GO) test -run '^$$' -bench 'HeapPushPop|QueueChurn|TimerCancel|DeadlineChurn|EventThroughput|QueueHandoff' -benchmem ./internal/sim/
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
# tests that run simulations on concurrent goroutines (kiloscale replicas,
# and Apps sharing the call-site memo of diagnostics), fuzz smokes
# of the format and scenario parsers, of the paged simulated memory
# against a flat reference, and of the span log and timeline series
# encodings against whole-value references, the scenarios/ library validated
# against its golden fingerprints, the benchmark's four workloads at full
# length checked against bench/golden.json (the bench module's own tests
# in `ci` run shortened ones that never compare), a profile-export smoke
# writing both formats, a kernel microbenchmark smoke, and staticcheck
# when the host has it installed.
ci-full: ci race
	$(GO) test -race -count=10 -run 'TestKiloscaleSeqParEquivalence|TestChaosKernelArmsDeterminism|TestDiagnosticsConcurrentApps' ./internal/workload ./internal/core
	$(GO) test -run '^$$' -fuzz=FuzzParse -fuzztime=5s ./internal/fmtmsg
	$(GO) test -run '^$$' -fuzz=FuzzPagedStore -fuzztime=5s ./internal/cellbe
	$(GO) test -run '^$$' -fuzz=FuzzSpanLogRoundTrip -fuzztime=5s ./internal/trace
	$(GO) test -run '^$$' -fuzz=FuzzSeriesRoundTrip -fuzztime=5s ./internal/timeline
	$(GO) test -run '^$$' -fuzz=FuzzScenarioParse -fuzztime=5s ./internal/scenario/
	$(GO) run ./cmd/cellpilot-bench validate
	bash bench/run.sh -seconds 1 >/dev/null
	$(GO) run ./cmd/cellpilot-bench -exp profile -reps 5 -trace-type 2 \
		-folded /tmp/cellpilot-ci.folded -pprof /tmp/cellpilot-ci.pb.gz >/dev/null
	@rm -f /tmp/cellpilot-ci.folded /tmp/cellpilot-ci.pb.gz
	$(GO) test -run '^$$' -bench 'HeapPushPop|TimerCancel|DeadlineChurn|EventDispatch' -benchtime 100000x ./internal/sim/
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi
.PHONY: ci-full
