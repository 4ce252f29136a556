# Developer entry points. `make verify` is the tier-1 gate; the perf gate
# is `go run ./cmd/tokentm-bench` (BENCHMARK.json).

GO ?= go

# Small-scale sweep parameters for make breakdown: the full grid (8
# workloads x 5 variants) over 3 perturbation seeds.
BENCH_SCALE ?= 0.02
BENCH_SEEDS ?= 3
BENCH_PARALLEL ?= 0

# Host STM benchmark grid parameters (make stmbench): transactions per
# cell and interleaved repetitions per cell (best-of, see cmd/tokentm-store).
STM_OPS ?= 60000
STM_REPS ?= 9

.PHONY: verify simverify lint race breakdown explore profile simprofile stmbench

verify:
	$(GO) build ./...
	$(MAKE) lint
	$(GO) test ./...
	$(MAKE) simverify

# Simulator end-to-end checks (~3 s): seed invariance and cross-run
# identity of a small sweep, and the explorer catching a seeded protocol bug.
simverify:
	$(GO) run ./cmd/experiments -run verify -scale 0.01 -progress=false
	$(GO) run ./cmd/tokentm-explore -program incr-cross -mutation skip-log-credit -max-schedules 50 > /dev/null 2>&1; \
		if [ $$? -ne 1 ]; then echo "FAIL: seeded mutation skip-log-credit not detected"; exit 1; fi
	@echo "PASS: mutation smoke (seeded protocol bug detected by explorer)"

# Static gates: go vet, gofmt, and the tokentm analyzer suite (allocfree
# with its interprocedural closure, and exhaustive — see internal/lint).
# The determinism contract is checked by go test, not here.
lint:
	$(GO) vet ./...
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt needed:"; echo "$$fmt"; exit 1; fi
	$(GO) run ./cmd/tokentm-lint ./...

# Race-enabled proof that parallel sweeps share no mutable state between
# simulated machines (harness worker pool + scheduler contract), plus the
# host STM stress + serializability suite (stm/...). The explorer's chooser
# runs on simulated-thread coroutines, so its short suite runs here too.
# The goldens and the per-turn check pass the coroutine baton over every
# workload x variant, preemptive machines included, where internal/sim's
# unit tests and explore -short drive only small programs.
race:
	$(GO) test -race ./internal/harness ./internal/sim ./stm/...
	$(GO) test -race -short ./internal/explore
	$(GO) test -race -run 'SchedulerGoldens|PerTurnLoopMatchesEventEngine' .

# Cycle-attribution breakdown sweep (Figures 7-9). BENCH_breakdown.json is
# fully deterministic and CI `git diff --exit-code`s it after regeneration.
breakdown:
	$(GO) run ./cmd/experiments -run breakdown \
		-scale $(BENCH_SCALE) -seeds $(BENCH_SEEDS) -parallel $(BENCH_PARALLEL) \
		-progress=false -json BENCH_breakdown.json

# Schedule-exploration sweep (stateless model checking): every exploration
# program x variant enumerated exhaustively within the default budget, plus
# the seeded-mutation smoke checks. No wall-clock fields, so
# BENCH_explore.json is fully deterministic and CI diffs it after
# regeneration. Exit 1 on any violation/incomplete cell/missed mutation.
explore:
	$(GO) run ./cmd/tokentm-explore -sweep -json BENCH_explore.json

# CPU + heap profiles of the hottest protocol path (software-release
# commits). Inspect with `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkCommit/software' -benchtime 2s \
		-cpuprofile cpu.pprof -memprofile mem.pprof ./internal/core
	@echo "wrote cpu.pprof and mem.pprof (go tool pprof <file>)"

# CPU profile of the simulator's host speed: BenchmarkSimSweep, the grid of
# the benchmark's sim-sweep workload, at one P as that workload runs.
simprofile:
	$(GO) test -run '^$$' -bench '^BenchmarkSimSweep$$' -cpu 1 -benchtime 5s \
		-cpuprofile sim.pprof .
	@echo "wrote sim.pprof (go tool pprof sim.pprof)"

# Host STM benchmark grid: mixes x worker counts x five targets (the stm,
# rwmutex and tl2-occ backends unsharded, kvstore.Sharded, and a live
# stm/server over a loopback socket) on real goroutines, all replaying the
# one seeded blind-write stream of stm/loadgen. BENCH_stm.json holds the
# grid (schema tokentm-stm/v2); BENCH_stm.txt is benchstat-comparable. Reps
# interleave targets round-robin and keep each cell's best rep, so shared
# noise epochs cancel out of cross-target ratios (see cmd/tokentm-store). At
# workers=1 every target must agree on (checksum, read_fold) — one stream,
# five executions, one final state and one set of values read — checked at
# bench time and by `-check`, along with schema and grid coverage. Loopback
# numbers measure protocol overhead, not networks; read the cross-target
# ratios, not the absolute ops/s. Never performance-gated: the gated
# numbers are cmd/tokentm-bench's (BENCHMARK.json).
stmbench:
	$(GO) run ./cmd/tokentm-store -bench -ops $(STM_OPS) -reps $(STM_REPS) \
		-json BENCH_stm.json -text BENCH_stm.txt
	$(GO) run ./cmd/tokentm-store -check BENCH_stm.json
