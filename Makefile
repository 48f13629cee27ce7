# Convenience wrapper; everything is plain dune underneath.

.PHONY: all build test check bench bench-mappers sat-smoke fuzz fuzz-smoke serve-smoke chaos-smoke explore-smoke map-designs-aig regen-golden clean

all: build

build:
	dune build @all

test:
	dune runtest

# The PR gate: full build, every test suite, and a smoke-mode profile run
# of BOTH router algorithms at the strictest inter-stage checking level;
# it exercises the telemetry pipeline end to end and fails on an illegal
# routing, a checker violation, or empty telemetry.
check: build test
	dune exec bench/main.exe -- --smoke --route-alg=both --check=full profile

bench:
	dune exec bench/main.exe

# FlowMap-vs-AIG mapper comparison (smoke sizes): prints the tables and
# splices the mapper_comparison section into BENCH_profile.json.
bench-mappers: build
	dune exec bench/main.exe -- --smoke mapper-comparison

# Exact-placement smoke: the pinned-seed defect-tolerance survival sweep
# (SA vs the embedded CDCL solver). Gated internally — a SAT placement
# that fails Check.Full, an Unsat certificate exhaustive enumeration
# disproves, a solver give-up, or an SA/SAT race whose winner differs
# between one and four workers all exit nonzero. SAT_JOBS feeds --jobs;
# CI runs 1 and 4, expecting identical tables either way.
SAT_JOBS ?= 1
sat-smoke: build
	dune exec bench/main.exe -- --smoke --jobs=$(SAT_JOBS) defect-tolerance

# Differential fuzzing: random designs through the whole flow, four
# evaluation levels cross-checked per cycle (rtl-sim, lut-network,
# fabric-emulator, bitstream-replay). Failures shrink to minimal
# reproducers under test/corpus/, which dune runtest replays forever.
# Override e.g. FUZZ_SEED=7 FUZZ_COUNT=500 to steer a long campaign.
# FUZZ_JOBS sets the worker-domain count (0 = auto); campaign output is
# byte-identical for every value, only the wall clock changes.
# FUZZ_MAPPER selects the technology mapper the fuzzed flow uses
# (tt = FlowMap over the gate netlist, aig = priority cuts over the AIG);
# the CI matrix runs the same campaigns under both.
FUZZ_SEED ?= 1
FUZZ_COUNT ?= 200
FUZZ_JOBS ?= 0
FUZZ_MAPPER ?= tt
fuzz: build
	dune exec bin/nanomap_cli.exe -- fuzz --seed $(FUZZ_SEED) --count $(FUZZ_COUNT) --jobs $(FUZZ_JOBS) --mapper $(FUZZ_MAPPER) --corpus $(CURDIR)/test/corpus

# CI gate: a fixed-seed campaign sized to stay well under a minute,
# sweeping the folding regimes and larger designs than the default.
# Run with FUZZ_JOBS=1 and FUZZ_JOBS=4 in the CI matrix: identical
# verdicts, ~the wall-clock ratio is the parallel speedup.
fuzz-smoke: build
	dune exec bin/nanomap_cli.exe -- fuzz --seed 42 --count 2000 --cycles 60 --jobs $(FUZZ_JOBS) --mapper $(FUZZ_MAPPER)
	dune exec bin/nanomap_cli.exe -- fuzz --seed 43 --count 1200 --folding none --jobs $(FUZZ_JOBS) --mapper $(FUZZ_MAPPER)
	dune exec bin/nanomap_cli.exe -- fuzz --seed 44 --count 1200 --folding 2 --jobs $(FUZZ_JOBS) --mapper $(FUZZ_MAPPER)
	dune exec bin/nanomap_cli.exe -- fuzz --seed 45 --count 600 --steps 48 --max-regs 6 --max-width 8 --jobs $(FUZZ_JOBS) --mapper $(FUZZ_MAPPER)

# Compile-as-a-service smoke: start a daemon on a unix socket, drive it
# with 200 generated jobs of which half repeat an earlier design, and
# fail unless the cache served every repeat (hit rate >= 0.5), the
# daemon acknowledged the shutdown, exited 0, and removed its socket.
# SERVE_JOBS sets the daemon's worker-domain count; CI runs 1 and 4 —
# the artifacts are identical either way, only the wall clock moves.
SERVE_JOBS ?= 1
serve-smoke: build
	rm -f .serve-smoke.sock
	dune exec bin/nanomap_cli.exe -- serve --socket .serve-smoke.sock --jobs $(SERVE_JOBS) & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -S .serve-smoke.sock ] && break; sleep 0.1; done; \
	[ -S .serve-smoke.sock ] || { kill $$pid 2>/dev/null; echo "daemon never bound its socket"; exit 1; }; \
	dune exec bin/nanomap_cli.exe -- submit --socket .serve-smoke.sock \
	  --gen 200 --dup 0.5 --min-hit-rate 0.5 --shutdown; \
	status=$$?; \
	wait $$pid || { echo "daemon exited nonzero"; status=1; }; \
	[ ! -e .serve-smoke.sock ] || { echo "socket file left behind"; status=1; }; \
	exit $$status

# Service-level chaos gate: a live daemon (bounded queue, default
# deadline, disk cache) under garbage frames, abrupt disconnects,
# hopeless deadlines, impossible designs and a 200-job overload burst.
# Fails unless every fault surfaces as its typed serve/* rejection, the
# required fraction of well-formed jobs completes (after overload
# retries), the post-chaos compile is byte-identical to the pre-chaos
# one, the disk cache verifies clean, and the daemon drains out on
# SIGTERM (exit 0, socket removed).
chaos-smoke: build
	rm -rf .chaos-smoke.sock .chaos-smoke-cache
	dune exec bin/nanomap_cli.exe -- serve --socket .chaos-smoke.sock \
	  --cache-dir .chaos-smoke-cache --max-queue 8 --deadline-ms 60000 \
	  --jobs $(SERVE_JOBS) & \
	pid=$$!; \
	for i in $$(seq 1 100); do [ -S .chaos-smoke.sock ] && break; sleep 0.1; done; \
	[ -S .chaos-smoke.sock ] || { kill $$pid 2>/dev/null; echo "daemon never bound its socket"; exit 1; }; \
	dune exec bin/nanomap_cli.exe -- chaos --socket .chaos-smoke.sock \
	  --total 200 --seed 42 --min-complete 0.95; \
	status=$$?; \
	dune exec bin/nanomap_cli.exe -- cache-check --cache-dir .chaos-smoke-cache || status=1; \
	kill -TERM $$pid 2>/dev/null; \
	wait $$pid || { echo "daemon did not drain cleanly on SIGTERM"; status=1; }; \
	[ ! -e .chaos-smoke.sock ] || { echo "socket file left behind"; status=1; }; \
	rm -rf .chaos-smoke-cache; \
	exit $$status

# Design-space exploration smoke gate: the pinned 2x2x2 mini-grid over
# two small designs, serial and then on EXPLORE_JOBS workers. Fails
# unless the Pareto frontier is non-empty and internally consistent (no
# frontier point dominates another; every feasible off-frontier point is
# dominated) and the serial/parallel JSON fingerprints are
# byte-identical. Splices the `explore` section into BENCH_explore.json.
EXPLORE_JOBS ?= 4
explore-smoke: build
	dune exec bench/main.exe -- --smoke --jobs=$(EXPLORE_JOBS) explore

# Every shipped VHDL design through the physical flow with the AIG mapper
# at the strictest checking level (includes the AIG-vs-gate spot check).
map-designs-aig: build
	for d in designs/*.vhd; do \
	  dune exec bin/nanomap_cli.exe -- map --vhdl $$d --mapper aig --check full || exit 1; \
	done

# Refresh the regression corpora in test/golden/ after an intentional
# placer, router or explorer change (the golden diff tests will tell you
# when): the annealer's paper-circuit placements, the routed-result corpus
# and the explore smoke-grid report.
regen-golden: build
	NANOMAP_REGEN_GOLDEN=$(CURDIR)/test/golden dune exec test/test_physical.exe -- test golden
	NANOMAP_REGEN_GOLDEN=$(CURDIR)/test/golden dune exec test/test_router.exe -- test golden
	NANOMAP_REGEN_GOLDEN=$(CURDIR)/test/golden dune exec test/test_explore.exe -- test sweep

clean:
	dune clean
	rm -f BENCH_profile.json
