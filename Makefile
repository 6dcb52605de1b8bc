# gmsim — Fast NIC-Based Barrier over Myrinet/GM, reproduced in Go.
# Standard library only; requires Go >= 1.23.

GO ?= go

.PHONY: all build test vet race race-partition fuzz bench benchgate cover figures scenarios simd-smoke simd-restart-smoke examples clean

all: build vet test

# perfbench/ is a nested module (the repo benchmark) that the root ./...
# pattern skips; build and vet it too so an API change cannot break it
# unnoticed. -o /dev/null keeps the binary out of the source tree.
build:
	$(GO) build ./...
	$(GO) -C perfbench build -o /dev/null ./...

vet:
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-check the conservative parallel engine and everything that feeds it:
# the window scheduler (sim.Group), the worker pool, and the partitioned
# cluster determinism matrix. CI runs this on every push; the full `race`
# target above covers the rest of the tree.
race-partition:
	$(GO) test -race -count=1 -run 'Partition|TieBreak|Group|Pool' \
		./internal/sim ./internal/runner ./internal/cluster ./internal/network ./internal/topo

# Short fuzzing pass over the wire codec, the duplicate-suppression window,
# the fault-plan validator, the result-store entry codec and the algebraic
# router's spec space (go's fuzzer allows one target per invocation).
# Checked-in seed corpora live under each package's testdata/fuzz/.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run=^$$ -fuzz=^FuzzFrameDecode$$ -fuzztime=$(FUZZTIME) ./internal/mcp
	$(GO) test -run=^$$ -fuzz=^FuzzSeqWindow$$ -fuzztime=$(FUZZTIME) ./internal/mcp
	$(GO) test -run=^$$ -fuzz=^FuzzPlanValidate$$ -fuzztime=$(FUZZTIME) ./internal/fault
	$(GO) test -run=^$$ -fuzz=^FuzzStoreEntryDecode$$ -fuzztime=$(FUZZTIME) ./internal/service
	$(GO) test -run=^$$ -fuzz=^FuzzAlgRouteSpec$$ -fuzztime=$(FUZZTIME) ./internal/topo

# Coverage with per-package floors. The observability layer (internal/trace),
# the analytic model (internal/model), the fault injector (internal/fault)
# and the topology/routing layer (internal/topo, now carrying the algebraic
# router) are the packages most likely to rot silently — their statement
# coverage must stay at or above COVER_FLOOR.
COVER_FLOOR ?= 80.0
cover:
	$(GO) test -coverprofile=coverage.out -covermode=count ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@for pkg in gmsim/internal/trace gmsim/internal/model gmsim/internal/fault gmsim/internal/topo; do \
		pct="$$(awk -v p="$$pkg/" \
			'index($$1, p) == 1 { tot += $$2; if ($$3 > 0) cov += $$2 } \
			END { printf "%.1f", tot ? 100 * cov / tot : 0 }' coverage.out)"; \
		echo "$$pkg: $$pct% of statements (floor $(COVER_FLOOR)%)"; \
		ok="$$(awk -v a="$$pct" -v b="$(COVER_FLOOR)" 'BEGIN { print (a + 0 >= b + 0) ? 1 : 0 }')"; \
		if [ "$$ok" != "1" ]; then \
			echo "coverage for $$pkg below floor"; exit 1; fi; \
	done

# Regenerate every table/figure of the paper's evaluation plus extensions.
figures:
	$(GO) run ./cmd/barrierbench
	$(GO) run ./cmd/timing
	$(GO) run ./cmd/sweep
	$(GO) run ./cmd/gmping
	$(GO) run ./cmd/barrierbench -fig mpi
	$(GO) run ./cmd/barrierbench -fig mpibar
	$(GO) run ./cmd/barrierbench -fig coll
	$(GO) run ./cmd/barrierbench -fig scale
	$(GO) run ./cmd/barrierbench -fig grain
	$(GO) run ./cmd/barrierbench -fig topo
	$(GO) run ./cmd/barrierbench -fig contend

# bench_output.txt holds the human-readable Go benchmarks; BENCH_sim.json
# is the machine-readable perf trajectory (events/sec, ns/event, figures
# wall-clock serial vs parallel) that future PRs compare against.
bench:
	$(GO) test -run 'TestZeroAlloc' -count=1 -v ./internal/sim
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
	$(GO) run ./cmd/simbench -json BENCH_sim.json

# Compare a candidate BENCH_sim.json against a baseline and fail on >10%
# regression in the gated engine metrics. CI generates the two reports from
# the PR base and head; locally: make benchgate BASE=old.json HEAD=BENCH_sim.json
BASE ?= BENCH_sim.json
HEAD ?= BENCH_sim.json
benchgate:
	$(GO) run ./cmd/benchgate -base $(BASE) -head $(HEAD)

# Chaos scenario fleet: the crash-fault regression matrix (topology ×
# barrier kind × fault plan × seed), diffed against the golden summaries in
# internal/experiments/testdata/scenarios. On divergence each offending
# cell's got-summary is written to $$SCENARIO_DIFF_DIR (when set) for CI to
# upload. Regenerate intentionally changed goldens with
#   go test ./internal/experiments -run TestScenarioFleetGolden -update-scenarios
scenarios:
	$(GO) test -count=1 -v -timeout 10m \
		-run 'TestScenarioFleetGolden|TestZeroFaultScenariosMatchFigure5|TestGBBarrierSurvivesNodeCrash|TestScenarioSummariesDeterministic' \
		./internal/experiments

# Boot the simulation service, post the Figure 5 headline spec, pin its
# exact latency, prove the repeat is a cache hit, and check SIGTERM drain.
simd-smoke:
	sh scripts/simd_smoke.sh

# Restart chaos: SIGKILL simd mid-simulation, restart on the same state
# directory, and require byte-identical results from disk with zero
# re-simulation, journal replay of the interrupted job, corruption
# quarantine, and a nonzero exit when the drain timeout is exceeded.
simd-restart-smoke:
	sh scripts/simd_restart_smoke.sh

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/fuzzy
	$(GO) run ./examples/multibarrier
	$(GO) run ./examples/stencil
	$(GO) run ./examples/mpi

clean:
	rm -f test_output.txt bench_output.txt coverage.out coverage-summary.txt
