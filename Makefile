GO ?= go

.PHONY: build fmt vet deps test race check check-lp check-faults check-recovery check-chaos check-perf check-plansvc check-cluster check-store check-bench bench bench-json bench-plan-json bench-cluster-json

build:
	$(GO) build ./...

# fmt fails when gofmt would reformat any tracked Go file, listing them.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# deps fails when the planning service depends on the elastic-recovery
# simulator: recovery plans through core, never the other way round.
deps:
	@if $(GO) list -deps ./internal/plansvc/ | grep -qx 'mobius/internal/elastic'; then \
		echo "internal/plansvc depends on internal/elastic"; exit 1; fi

test:
	$(GO) test ./...

# The full grid under the race detector sits near go test's default 10m
# per-binary cap on a single-core box; the explicit timeout is headroom,
# not license for slower tests.
race:
	$(GO) test -race -timeout 30m ./...

# check-lp is the LP gate: internal/lp vetted for arm64, where the Go
# loop is the only column update (plain vet's asmdecl check covers the
# amd64 assembly), the lp and milp suites uncached, the milp and
# partition suites under the race detector (a MILP solves each node's
# two child LPs on two goroutines, and the sweep solves its candidates'
# root LPs two at a time before any branch and bound; about 50 s, most
# of it the root phase's differential against the inline roots and the
# tier-1 subset of the pricing identity test), the
# plan deadline and goroutine-leak tests under the race detector
# (deadlines that expire inside the root phase; about 5 s), then the
# dense-oracle differential over every LP a serial cold plan
# solves for each Table 3 model on Topo 2+2, 1+3 and 4+4 (the oracle runs
# without the breakdown guard: a checked solve's pivots must be a prefix
# of the oracle's, a guard stop must be on an LP the oracle does not
# solve to optimality, and every other solve must match its status and
# X/objective float bits; a solve whose phase 1 ends feasible must also
# match the oracle's whole tableau there), then the twelve cold-plan
# fingerprints against internal/lp/testdata/plans.golden and the search
# effort behind them against internal/lp/testdata/effort.golden, and
# last the full grid of the identity the MILP's rounding heuristic
# prices by: at fixed block counts the partition LP's optimum is the
# evaluator's step time, for every Table 3 model on Topo 2+2 and 4+4 at
# M = N and M = 8 and every candidate stage count (8-12 s). On a
# 2-vCPU host it takes
# about 4 minutes if the 3 s-limited 3B on 4+4 search stops before its
# two node LPs that break down, and 15-18 if it reaches them, as it
# does with the AVX2 column update: the guard stops each after
# 2,000-2,700 pivots, but unchecked the dense tableau pivots both on to
# the iteration limit (263,200 pivots; the 3B on 4+4 differential takes
# 11-13.5 minutes side by side).
check-lp:
	GOARCH=arm64 $(GO) vet ./internal/lp/
	$(GO) test -count=1 ./internal/lp/ ./internal/milp/
	$(GO) test -race -count=1 ./internal/milp/ ./internal/partition/
	$(GO) test -race -count=1 -run 'TestPlanCancellationLeaksNoGoroutines|TestDeadlineInterruptsRootLP' ./internal/core/
	MOBIUS_CHECK_LP=1 $(GO) test -count=1 -timeout 120m -run 'TestSparseKernelMatchesDenseOracle|TestColdPlanFingerprints' -v ./internal/lp/
	MOBIUS_CHECK_LP=1 $(GO) test -count=1 -run 'TestPricerMatchesFixedLP' -v ./internal/partition/

# check-faults is the fault-matrix smoke test: link degradation windows,
# alone and combined (an unbounded window beside a bounded one on
# another link), replayed end-to-end through core.Run for Mobius and
# GPipe under the race detector.
check-faults:
	$(GO) test -race -run 'TestFaultMatrix' -count=1 ./internal/fault/

# check-recovery is the elastic-recovery smoke test: every recovery
# policy against both permanent-failure classes end-to-end (accounting
# identity included), plus the bitwise checkpoint/resume property of the
# real trainer, under the race detector.
check-recovery:
	$(GO) test -race -run 'TestRecovery' -count=1 ./internal/elastic/
	$(GO) test -race -run 'TestResume|TestCheckpoint' -count=1 ./internal/train/

# check-chaos is the integrity gate: the deterministic chaos matrix
# (randomized corruption scenarios, invariants and replay determinism;
# internal/sim/chaos_test.go) plus the seeded rollback accounting
# identity (internal/elastic) under the race detector, followed by a
# short native-fuzz smoke of the spec parser and the chaos invariants.
check-chaos:
	$(GO) test -race -run 'TestChaos' -count=1 ./internal/sim/ ./internal/elastic/
	$(GO) test -run xxx -fuzz 'FuzzParseJSON' -fuzztime 10s ./internal/fault/
	$(GO) test -run xxx -fuzz 'FuzzChaosInvariants' -fuzztime 10s ./internal/sim/

# check-perf is the performance smoke gate: short in-process checks
# asserting the incremental flow scheduler still beats the retained
# global-recompute oracle, steady-state Reset+Run at 1024 flows stays
# allocation-free, slab-backed construction stays ≥5x leaner than the
# pre-slab builder, one core.Run step of DeepSpeed-hetero and of Mobius
# (greedy plan) on 15B, Topo 2+2, and of GPipe on 3B, Topo 2+2, stays
# under its allocation ceiling, and so does one benchmark-shaped fleet
# run with a cold step
# cache (relative checks and allocation counts, so they hold on any
# machine; see internal/sim/perf_test.go, internal/core/perf_test.go and
# internal/cluster/perf_test.go).
check-perf:
	MOBIUS_CHECK_PERF=1 $(GO) test -run 'TestIncrementalBeatsOracle|TestSteadyStateAllocFree|TestStreamConstructLean' -count=1 -timeout 30m -v ./internal/sim/
	MOBIUS_CHECK_PERF=1 $(GO) test -run 'TestStepAllocCeilings' -count=1 -v ./internal/core/
	MOBIUS_CHECK_PERF=1 $(GO) test -run 'TestFleetAllocCeiling' -count=1 -v ./internal/cluster/

# check-plansvc is the planning-service gate: the shared resilience
# primitives (internal/resil: the decision hash and backoff held to
# golden vectors, the breaker its ladder uses to its transition table),
# the deterministic concurrency suite (cache keys, single-flight
# coalescing and cancelled-leader handoff, corrupt-entry degradation,
# the deadline/breaker ladder on a virtual clock, HTTP surface, and the
# seed-derived deadline chaos matrix in chaos_test.go: serial bitwise
# replay and the concurrent fan-out), all under the race detector, then the
# deadline-stopped cross mapping search, alone and inside a plan, also
# under the race detector, and a short native-fuzz smoke of the /v1/plan
# handler over a greedy inner planner.
# -short skips the one MIP-heavy test (a plan independent of cache
# history); plain `make race` runs it.
check-plansvc:
	$(GO) test -race -count=1 ./internal/resil/
	$(GO) test -race -short -count=1 ./internal/plansvc/
	$(GO) test -race -run 'TestCross|TestPlanDeadline' -count=1 ./internal/mapping/ ./internal/core/
	$(GO) test -run xxx -fuzz 'FuzzPlanRequest' -fuzztime 10s ./internal/plansvc/

# check-cluster is the fleet gate: the shared resilience primitives its
# dispatch retries and per-server breakers are built on (internal/resil),
# the multi-tenant cluster suite (conservation and fairness identities,
# the admission/backpressure/degrade/shed ladder, server-loss recovery
# with zero-solve re-landing, the bitwise differential against
# single-job core.Run, and the seed-derived cluster chaos matrix in
# chaos_test.go: serial bitwise replay, concurrent fan-out over a shared
# step cache) plus the overload-sweep shape assertions, all under the
# race detector.
check-cluster:
	$(GO) test -race -count=1 ./internal/resil/
	$(GO) test -race -run 'TestCluster|TestJain|TestBucket' -count=1 ./internal/cluster/
	$(GO) test -race -run 'TestOverload' -count=1 ./internal/experiments/

# check-store is the persistence gate: the crash-safe plan store's full
# suite (record grammar, truncate-at-every-byte and bit-flip-at-every-
# byte properties, quarantine semantics, write-behind queue bounds, the
# I/O-error path, and the seed-derived store chaos matrix in
# chaos_test.go, whose harness tears records on disk and predicts the
# surviving set from the operation list), the server_fails/
# server_restarts clauses of the fault spec, the warm-restart recovery
# suite in plansvc (zero-solve restart, a validation drop deleting its
# record on disk) and the fleet restart suite — all under the race
# detector — then a short native-fuzz smoke of the record loader and the
# store chaos invariants.
check-store:
	$(GO) test -race -count=1 ./internal/planstore/
	$(GO) test -race -run 'TestServerFail|TestRestart|TestWithoutCluster' -count=1 ./internal/fault/
	$(GO) test -race -run 'TestWarmRestart|TestValidateDrop|TestCorruptStore|TestMetricsEndpoint' -count=1 ./internal/plansvc/
	$(GO) test -race -run 'TestClusterRestart|TestClusterWarmRestart|TestClusterColdRestart' -count=1 ./internal/cluster/
	$(GO) test -run xxx -fuzz 'FuzzStoreLoad' -fuzztime 10s ./internal/planstore/
	$(GO) test -run xxx -fuzz 'FuzzStoreChaosInvariants' -fuzztime 10s ./internal/planstore/

# check-bench vets and tests the benchmark module under bench/. It has
# its own go.mod, so the root `go test ./...` does not see it; an
# internal API change that breaks the benchmark's build fails here
# instead of in the benchmark pipeline.
check-bench:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...

# check is the tier-1 gate: everything must compile, be gofmt-clean, vet
# clean, keep the planning service free of the recovery simulator, pass the test suite under the race detector (the planning
# pipeline is concurrent, so plain `go test` alone is not enough), and
# survive the
# LP differential gate, the fault matrix, the recovery matrix, the chaos
# matrix, the performance smoke gate, the planning-service gate, the
# multi-tenant fleet gate, the persistence gate, and the benchmark
# module's own vet and tests.
check: build fmt vet deps race check-lp check-faults check-recovery check-chaos check-perf check-plansvc check-cluster check-store check-bench

bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/sim/ ./internal/mapping/ ./internal/partition/ ./internal/lp/

# bench-json regenerates BENCH_sim.json: the simulator, mapping,
# partition and LP column-update benchmarks parsed into a diffable JSON
# document (see cmd/bench2json). Run on an idle machine; EXPERIMENTS.md
# documents the methodology and the recorded pre-optimization baselines.
bench-json:
	$(GO) test -run xxx -bench . -benchmem ./internal/sim/ ./internal/mapping/ ./internal/partition/ ./internal/lp/ | $(GO) run ./cmd/bench2json -o BENCH_sim.json

# bench-plan-json regenerates BENCH_plan.json: the planning-service
# latency benchmarks (cache hit, key derivation, greedy floor) plus the
# plan-store persistence benchmarks (write-behind round trip, warm-
# restart directory replay) in the same diffable JSON format as
# BENCH_sim.json.
bench-plan-json:
	$(GO) test -run xxx -bench . -benchmem ./internal/plansvc/ ./internal/planstore/ | $(GO) run ./cmd/bench2json -o BENCH_plan.json

# bench-cluster-json regenerates BENCH_cluster.json: fleet-simulation
# throughput (jobs/s at a fixed 3-server fleet with a warm step cache)
# and the per-arrival admission-decision latency, in the same diffable
# JSON format as the other BENCH_*.json documents.
bench-cluster-json:
	$(GO) test -run xxx -bench . -benchmem ./internal/cluster/ | $(GO) run ./cmd/bench2json -o BENCH_cluster.json
