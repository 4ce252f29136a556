# Developer entry points. `make verify` is the tier-1 gate; `make bench`
# records the harness sweep trajectory as BENCH_experiments.json.

GO ?= go

# Small-scale sweep parameters for make bench: the full grid (8 workloads x
# 5 variants) over 3 perturbation seeds. Simulated metrics are
# deterministic; wall-clock fields record this host.
BENCH_SCALE ?= 0.02
BENCH_SEEDS ?= 3
BENCH_PARALLEL ?= 0

# Host STM benchmark grid parameters (make stmbench): transactions per
# cell and interleaved repetitions per cell (best-of, see cmd/tokentm-store).
STM_OPS ?= 60000
STM_REPS ?= 9

.PHONY: verify lint race bench breakdown explore microbench benchgate profile stmbench clean-cache

verify:
	$(GO) build ./...
	$(MAKE) lint
	$(GO) test ./...
	$(GO) run ./cmd/experiments -run verify -scale 0.01 -progress=false
	$(GO) run ./cmd/tokentm-explore -program incr-cross -mutation skip-log-credit -max-schedules 50 > /dev/null 2>&1; \
		if [ $$? -ne 1 ]; then echo "FAIL: seeded mutation skip-log-credit not detected"; exit 1; fi
	@echo "PASS: mutation smoke (seeded protocol bug detected by explorer)"

# Static gates: go vet, gofmt, and the tokentm analyzer suite
# (maporder, wallclock, allocfree with its interprocedural closure,
# exhaustive, atomicfield, logorder — see internal/lint).
lint:
	$(GO) vet ./...
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt needed:"; echo "$$fmt"; exit 1; fi
	$(GO) run ./cmd/tokentm-lint ./...

# Race-enabled proof that parallel sweeps share no mutable state between
# simulated machines (harness worker pool + scheduler contract), plus the
# host STM stress + serializability suite (stm/...).
race:
	$(GO) test -race ./internal/harness ./internal/sim ./stm/...

bench:
	$(GO) run ./cmd/experiments -run verify,fig1,fig5 \
		-scale $(BENCH_SCALE) -seeds $(BENCH_SEEDS) -parallel $(BENCH_PARALLEL) \
		-json BENCH_experiments.json -json-timing

# Cycle-attribution breakdown sweep (Figures 7-9). Unlike bench, this omits
# -json-timing, so BENCH_breakdown.json is fully deterministic and CI can
# `git diff --exit-code` it after regeneration.
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

# Protocol-path microbenchmarks (probe, commit, abort) plus the end-to-end
# small sweep, with allocation counts. Output is benchstat-comparable: save
# BENCH_micro.txt before a change and feed both files to benchstat.
microbench:
	{ $(GO) test -run '^$$' -bench 'Probe|Commit|AbortUnroll' -benchmem -count 3 ./internal/core ; \
	  $(GO) test -run '^$$' -bench 'SmallSweep' -benchmem -count 3 . ; } | tee BENCH_micro.txt

# Units whose regressions fail the benchgate; override for cross-host runs
# (CI gates only the host-independent allocation metrics, at a strict
# tolerance — they are exact counts):
#   make benchgate BENCHGATE_UNITS=B/op,allocs/op BENCHGATE_TOL=0.20
# The local default gates wall clock too, so the tolerance must absorb
# shared-VM noise: nanosecond-scale benchmarks here swing ±40% between
# quiet and noisy windows with no code change.
BENCHGATE_UNITS ?= ns/op,B/op,allocs/op
BENCHGATE_TOL ?= 0.50

# Re-run the microbenchmarks and fail if any metric regressed beyond
# BENCHGATE_TOL against the committed BENCH_micro.txt baseline
# (cmd/benchgate, a dependency-free benchstat).
benchgate:
	{ $(GO) test -run '^$$' -bench 'Probe|Commit|AbortUnroll' -benchmem -count 3 ./internal/core ; \
	  $(GO) test -run '^$$' -bench 'SmallSweep' -benchmem -count 3 . ; } > /tmp/benchgate-new.txt
	$(GO) run ./cmd/benchgate -old BENCH_micro.txt -new /tmp/benchgate-new.txt \
		-tolerance $(BENCHGATE_TOL) -gate '$(BENCHGATE_UNITS)'

# CPU + heap profiles of the hottest protocol path (software-release
# commits). Inspect with `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) test -run '^$$' -bench 'BenchmarkCommit/software' -benchtime 2s \
		-cpuprofile cpu.pprof -memprofile mem.pprof ./internal/core
	@echo "wrote cpu.pprof and mem.pprof (go tool pprof <file>)"

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

clean-cache:
	rm -rf .expcache
