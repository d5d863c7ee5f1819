# Local mirror of .github/workflows/ci.yml: `make ci` runs the same jobs
# the CI pipeline runs (lint incl. staticcheck/govulncheck, build, race
# tests, coverage gate, benchmark self-test and paper-fidelity smoke,
# examples smoke), so local runs and CI cannot drift. Referenced from
# .claude/skills/verify/SKILL.md.
#
# Tools CI installs pinned (staticcheck, govulncheck) are optional locally:
# present they run, absent the step notes the skip.

GO ?= go

# Keep in sync with the COVERAGE_BASELINE env of .github/workflows/ci.yml.
COVERAGE_BASELINE ?= 75.0

.PHONY: ci lint fmt vet staticcheck govulncheck build test race coverage \
	bench bench-selftest profile chaos examples-smoke clean

# The nfbench line is the paper-fidelity smoke of CI's bench job.
ci: lint build race coverage bench-selftest chaos examples-smoke
	$(GO) run ./cmd/nfbench -table 1

lint: fmt vet staticcheck govulncheck

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# benchmarks/unbench is a nested module importing the root one, so the root
# `./...` does not reach it: vet it too, and an API break that would only
# surface in bench-selftest fails in seconds.
vet:
	$(GO) vet ./...
	cd benchmarks/unbench && $(GO) vet ./...

# staticcheck is optional locally: run it when installed, otherwise note
# the skip (CI always runs it, pinned).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it pinned)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (CI runs it)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

coverage:
	$(GO) test -covermode=atomic -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	echo "total coverage: $$total% (baseline $(COVERAGE_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVERAGE_BASELINE)" 'BEGIN { \
		if (t+0 < b+0) { print "coverage below baseline"; exit 1 } }'

# The one measurement entry point (README, "Build, test, bench"): unbench
# runs every end-to-end workload and the per-layer pass (compare two result
# sets with `bash benchmarks/run.sh -compare parent.json change.json`), then
# nfbench regenerates the paper's Table 1 and ablations, modelled columns
# labelled. The zero-alloc gate needs no target: it is a test of
# internal/vswitch and runs with `go test ./...`.
bench:
	bash benchmarks/run.sh
	$(GO) run ./cmd/nfbench

# Self-test of benchmarks/unbench, the end-to-end benchmark every PR is held
# against. It is a Go module of its own, so `go test ./...` at the root does
# not descend into it.
bench-selftest:
	cd benchmarks/unbench && $(GO) test .

# CPU and allocation profiles of the parallel and burst datapath
# benchmarks, for chasing hot-path regressions. CI uploads profile/ as an
# artifact of the bench job.
profile:
	@mkdir -p profile
	$(GO) test -run '^$$' -bench '^(BenchmarkPipelineParallel|BenchmarkPipelineBurst)$$' -benchtime=1s \
		-cpuprofile profile/cpu.pprof -memprofile profile/alloc.pprof \
		-o profile/bench.test ./internal/vswitch | tee profile/bench.txt
	@echo "wrote profile/cpu.pprof and profile/alloc.pprof (inspect with: $(GO) tool pprof profile/bench.test profile/cpu.pprof)"

# Availability gate: the chaos harness injects NF crashes, node kills,
# link cuts and REST control-plane faults under live stateful traffic,
# and fails when any scenario exceeds its packet-loss / state-loss /
# reconvergence budget. The scenario suite first runs under the race
# detector, then the CLI writes the chaos-report.json artifact.
chaos:
	$(GO) test -race ./internal/chaos/
	$(GO) run ./cmd/chaos -out chaos-report.json

examples-smoke:
	@for d in examples/*/; do \
		echo "building $$d"; \
		$(GO) build -o /dev/null "./$$d" || exit 1; \
	done
	@if command -v timeout >/dev/null 2>&1; then \
		timeout 120 $(GO) run ./examples/quickstart && \
		timeout 120 $(GO) run ./examples/multinode && \
		timeout 120 $(GO) run ./examples/scaleout; \
	else \
		$(GO) run ./examples/quickstart && $(GO) run ./examples/multinode && \
		$(GO) run ./examples/scaleout; \
	fi

clean:
	rm -rf coverage.out chaos-report.json profile
