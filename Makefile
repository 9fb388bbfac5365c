GO ?= go

.PHONY: all check vet build test race faults diffcheck lint bench bench-micro bench-compare bench-parallel clean

all: check

# check runs everything CI runs.
check: vet build test race faults lint

vet:
	$(GO) vet ./...

# lint mirrors CI's lint job. staticcheck and govulncheck are not vendored
# and must not be auto-installed here (the build environment is offline);
# when a tool is absent the target says so and moves on rather than failing.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race exercises the concurrency-sensitive packages under the race
# detector: the sweep runner itself, the refactored experiment drivers,
# the simulator core they drive, the memo store and its two clients (the
# report cache and the shared stream cache).
race:
	$(GO) test -race ./internal/sweep ./internal/experiments ./internal/cpu ./internal/diffcheck ./internal/repcache ./internal/memo ./internal/workload

# faults runs the fault-injection suite — panic recovery, CollectAll error
# policy, cancellation attribution, and disk-cache integrity across
# interrupts — under the race detector.
faults:
	$(GO) test -race -run 'Fault|Panic|Retr|CollectAll|Cancel|Interrupt|Injector' \
		./internal/sweep ./internal/experiments ./cmd/paperbench .

# diffcheck runs the four-technique differential-equivalence harness
# (identical op scripts with THP collapse, COW, and reclaim must produce
# page-for-page identical end state under native/nested/shadow/agile)
# under the race detector.
diffcheck:
	$(GO) test -race -v ./internal/diffcheck

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-micro runs the per-layer hot-path microbenchmarks (entry reads,
# hardware walks, TLB probes, end-to-end accesses, stream generation and
# replay) over the same package list as CI's benchstat step.
bench-micro:
	$(GO) test -bench . -benchmem -run '^$$' -count 5 \
		./internal/memsim ./internal/walker ./internal/tlb ./internal/cpu ./internal/workload

# bench-compare diffs the current tree's microbenchmarks against the
# baseline recorded in BENCH_PR9.json (BENCH_PR7.json, BENCH_PR6.json,
# BENCH_PR4.json and BENCH_PR2.json stay in the tree as history; replay
# one with `go run ./cmd/benchbaseline -file BENCH_PR4.json`).
# Uses benchstat when installed; otherwise prints both result sets for
# eyeball comparison.
bench-compare:
	@$(GO) run ./cmd/benchbaseline > /tmp/bench_baseline.txt
	@$(GO) test -bench . -benchmem -run '^$$' -count 5 \
		./internal/memsim ./internal/walker ./internal/tlb ./internal/cpu ./internal/workload \
		> /tmp/bench_current.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat /tmp/bench_baseline.txt /tmp/bench_current.txt; \
	else \
		echo "benchstat not installed; baseline (BENCH_PR9.json) vs current:"; \
		echo "--- baseline ---"; grep -E '^Benchmark' /tmp/bench_baseline.txt; \
		echo "--- current ---"; grep -E '^Benchmark' /tmp/bench_current.txt; \
	fi

# bench-parallel compares the serial and parallel Figure 5 sweeps; on a
# multi-core machine the parallel run should be >= 2x faster.
bench-parallel:
	$(GO) test -bench 'BenchmarkFigure5(Serial|Parallel)$$' -benchtime 1x -run '^$$' .

clean:
	$(GO) clean ./...
