# Local mirror of .github/workflows/ci.yml: `make ci` runs the same jobs
# the CI pipeline runs (lint incl. staticcheck/govulncheck, build, plain
# tier-1, race and checked-pool tests, coverage gate, benchmark self-test and
# paper-fidelity smoke, examples smoke), so local runs and CI cannot drift. Referenced from
# .claude/skills/verify/SKILL.md. On a pull request CI's bench job also runs
# `make layout BASE=<the pull request's base>`; `ci` has no base to compare
# with, so run `make layout BASE=<parent>` by hand before a change is sent.
#
# Tools CI installs pinned (staticcheck, govulncheck) are optional locally:
# present they run, absent the step notes the skip.

GO ?= go

# Keep in sync with the COVERAGE_BASELINE env of .github/workflows/ci.yml.
COVERAGE_BASELINE ?= 75.0

.PHONY: ci lint fmt vet staticcheck govulncheck build test tier1 race poolcheck coverage \
	bench bench-selftest profile layout chaos sim fuzz examples-smoke clean

# The nfbench line is the paper-fidelity smoke of CI's bench job.
ci: lint build tier1 race poolcheck coverage bench-selftest chaos examples-smoke
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

# The alloc gates are built with `//go:build !race`: the race run skips
# them, so tier-1 also runs plain.
tier1:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race -shuffle=on ./...

# Checked frame ownership: the packet-path suites, and the root one that
# drives whole nodes, over internal/pkt's checked pool (pool_check.go), a
# free list that panics on a second put of a buffer and on a write into a
# put one, and counts gets − puts (pkt.Outstanding).
poolcheck:
	$(GO) test -count=1 -tags poolcheck . ./internal/pkt ./internal/vswitch ./internal/netdev \
		./internal/nf ./internal/nnf ./internal/orchestrator

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
# benchmarks, for chasing hot-path regressions, and two profiles of the
# deploy path (TestDeployChurnHeapPlateaus: graph lifecycles over REST on a
# 3-replica control plane and a 3-node fleet): every allocation, where
# deploy-byte work starts, and CPU, from a run of its own, since sampling
# every allocation (-memprofilerate=1) would dominate it. A fourth is the
# in-use heap of TestTenantDensity's 200 tenants on one shared native
# firewall, taken while they are deployed: what each tenant retains. A fifth
# is every allocation of TestRESTLifecycleCost: deploy-churn's lifecycle
# through the global REST handler, which the in-process tests do not cross.
# CI uploads profile/ as an artifact of the bench job.
profile:
	@mkdir -p profile
	$(GO) test -run '^$$' -bench '^(BenchmarkPipelineParallel|BenchmarkPipelineBurst)$$' -benchtime=1s \
		-cpuprofile profile/cpu.pprof -memprofile profile/alloc.pprof \
		-o profile/bench.test ./internal/vswitch | tee profile/bench.txt
	$(GO) test -run '^TestDeployChurnHeapPlateaus$$' -memprofile profile/deploy-alloc.pprof -memprofilerate=1 \
		-o profile/deploy.test .
	$(GO) test -count=1 -run '^TestDeployChurnHeapPlateaus$$' -cpuprofile profile/deploy-cpu.pprof -o profile/deploy.test .
	$(GO) test -count=1 -run '^TestTenantDensity$$' -memprofilerate=1 -o profile/tenants.test . \
		-args -tenants.inuse=profile/tenants-inuse.pprof
	$(GO) test -count=1 -run '^TestRESTLifecycleCost$$' -memprofile profile/rest-alloc.pprof -memprofilerate=1 \
		-o profile/rest.test .
	@echo "wrote profile/cpu.pprof and profile/alloc.pprof (inspect with: $(GO) tool pprof profile/bench.test profile/cpu.pprof)"
	@echo "wrote profile/deploy-alloc.pprof (inspect with: $(GO) tool pprof -sample_index=alloc_space profile/deploy.test profile/deploy-alloc.pprof)"
	@echo "wrote profile/deploy-cpu.pprof (inspect with: $(GO) tool pprof profile/deploy.test profile/deploy-cpu.pprof)"
	@echo "wrote profile/tenants-inuse.pprof (inspect with: $(GO) tool pprof -sample_index=inuse_space profile/tenants.test profile/tenants-inuse.pprof)"
	@echo "wrote profile/rest-alloc.pprof (inspect with: $(GO) tool pprof -sample_index=alloc_space profile/rest.test profile/rest-alloc.pprof)"

# Where the datapath's code lands: Go aligns functions to 32 bytes, so a
# change ahead of the hot loops can move them by half a cache line and move
# fwd-flows with the packet path unchanged. Builds unbench at BASE and from
# the working tree, lists every internal/vswitch and internal/netdev text
# symbol whose address mod 64 differs, and fails if a datapath-core symbol
# (the lane, execute, matches, receive, output, the TX coalescer) moved.
BASE ?= HEAD
layout:
	bash scripts/layout.sh $(BASE)

# Availability gate: the chaos harness injects NF crashes, node kills,
# link cuts and REST control-plane faults under live stateful traffic,
# and fails when any scenario exceeds its packet-loss / state-loss /
# reconvergence budget. The scenario suite first runs under the race
# detector, then the CLI writes the chaos-report.json artifact.
chaos:
	$(GO) test -race ./internal/chaos/
	$(GO) run ./cmd/chaos -out chaos-report.json

# Consensus soak in virtual time: internal/cluster's simulator scenarios
# (random faults, the named lease regressions, failover) over seeds
# 1-10000, where go test runs 1-500. A failure names its seed; replay it
# and print its event trace with
#   go test -run '^TestSimSoak$$' -sim.seed N ./internal/cluster
sim:
	$(GO) test -count=1 -timeout 30m -run '^(TestSim|TestOneLinkCutKeepsLeader|TestNoTwoLeaseHolders|TestStalledFollowerKeepsLeaderLease|TestLateVoteAdoptsNoTerm|TestStraggledAppendIsNotOvertaken|TestCutFollowerCostsOneSnapshot|TestLostSnapshotReplySyncs)' \
		./internal/cluster -args -sim.seeds 10000

# Fuzzes every byte boundary for 30 s each, one target at a time (go test
# -fuzz takes one target per package run), minimising a new input for at
# most 5 s so that the time goes to fuzzing (the 60 s default once spent a
# whole run minimising one record). The seeds of these targets also
# run under plain `go test`; a failing input lands in the package's
# testdata/fuzz/ directory, which the nightly job uploads. Every fuzz target
# of the module needs its line here: TestMakeFuzzRunsEveryTarget fails
# otherwise.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzExtractKey$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/vswitch
	$(GO) test -run '^$$' -fuzz '^FuzzIPsecDecap$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/nf
	$(GO) test -run '^$$' -fuzz '^FuzzReadMessage$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/openflow
	$(GO) test -run '^$$' -fuzz '^FuzzNewPacket$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/pkt
	$(GO) test -run '^$$' -fuzz '^FuzzVLANTag$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/pkt
	$(GO) test -run '^$$' -fuzz '^FuzzVLANEdit$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/pkt
	$(GO) test -run '^$$' -fuzz '^FuzzGraphJSON$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/nffg
	$(GO) test -run '^$$' -fuzz '^FuzzDeploymentRecord$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/global
	$(GO) test -run '^$$' -fuzz '^FuzzWriterMatchesEncodingJSON$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/jsonw
	$(GO) test -run '^$$' -fuzz '^FuzzReaderMatchesEncodingJSON$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/jsonw
	$(GO) test -run '^$$' -fuzz '^FuzzClusterRPC$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzAppendWire$$' -fuzztime 30s -fuzzminimizetime 5s ./internal/cluster

# Runs every example to completion, so a new one cannot go unrun.
examples-smoke:
	@for d in examples/*/; do \
		echo "running $$d"; \
		if command -v timeout >/dev/null 2>&1; then \
			timeout 120 $(GO) run "./$$d" || exit 1; \
		else \
			$(GO) run "./$$d" || exit 1; \
		fi; \
	done

clean:
	rm -rf coverage.out chaos-report.json profile
