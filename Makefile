# Convenience wrapper around dune. `make check` is the CI gate: build,
# formatting, the full test suite, then a fast end-to-end smoke of the
# experiment harness (fig3 takes well under a second).

.PHONY: all build fmt test lint lint-json lint-sarif lint-timed smoke obs-smoke faults-smoke reconcile-smoke throughput-smoke mesh-smoke load-smoke attest-smoke bench bench-json bench-compare check clean

all: build

build:
	dune build

fmt:
	dune build @fmt

test:
	dune runtest

# Static analysis: intraprocedural hot-path rules, the interprocedural
# hot-reach closure, domain-safety, determinism and dead-export checks
# over lib/ (rules in DESIGN.md §12, schemas in EXPERIMENTS.md). Every
# run parses the whole tree; a finding's only way out is a waiver with a
# reason at its site.
lint:
	dune build @lint

lint-json: build
	dune exec bin/tango_lint_main.exe -- --json --root lib

lint-sarif: build
	dune exec bin/tango_lint_main.exe -- --sarif _build/tango_lint.sarif --root lib
	@echo "SARIF written to _build/tango_lint.sarif"

# Timing guard: a cold lint of the whole tree (no cache exists) must
# finish in under 2 seconds (DESIGN.md §12).
lint-timed: build
	t0=$$(date +%s%N); \
	./_build/default/bin/tango_lint_main.exe --root lib > /dev/null; \
	t1=$$(date +%s%N); ms=$$(( (t1 - t0) / 1000000 )); \
	echo "cold lint: $${ms} ms"; \
	test $${ms} -lt 2000 || { echo "cold lint exceeded 2s budget"; exit 1; }

smoke:
	dune exec bench/main.exe -- --experiment fig3 --no-micro

bench:
	dune exec bench/main.exe

# Machine-readable microbench results (schema in EXPERIMENTS.md).
bench-json:
	dune exec bench/main.exe -- --experiment micro --json BENCH.json

# Regression gate: fail when a fast-path benchmark slowed by >25% or a
# zero-allocation op started touching the major heap.
bench-compare: bench-json
	dune exec bench/compare.exe -- BENCH_baseline.json BENCH.json

# End-to-end observability smoke: run an experiment with --metrics and
# validate the emitted JSON-lines snapshot against the schema, then the
# same for a driven pair run (probes, app traffic, faults, policy).
obs-smoke:
	dune exec bin/tango_cli.exe -- fig3 --metrics _build/obs_smoke.jsonl --prom _build/obs_smoke.prom > /dev/null
	dune exec test/validate_obs.exe -- _build/obs_smoke.jsonl
	dune exec bin/tango_cli.exe -- faults --scenario flap --seed 42 --metrics _build/obs_smoke_faults.jsonl > /dev/null
	dune exec test/validate_obs.exe -- _build/obs_smoke_faults.jsonl

# Fault-injection smoke: list the scenario library, then drive a short
# blackhole run end to end (lib/faults -> Sim.Engine -> Pop/Policy).
faults-smoke:
	dune exec bin/tango_cli.exe -- faults --list > /dev/null
	dune exec bin/tango_cli.exe -- faults --scenario blackhole --duration 12 > /dev/null

# Reconciliation smoke: BGP churn with the control-plane reconciler
# armed (lib/ctrl -> churn watch, budgeted re-discovery, pair channel).
reconcile-smoke:
	dune exec bin/tango_cli.exe -- reconcile --scenario bgp-flap --duration 12 > /dev/null

# Multicore dataplane smoke: a tiny E14 run on 2 domain lanes (the
# deterministic summary prints; wall-clock rows are the only noise).
throughput-smoke:
	dune exec bench/main.exe -- --experiment throughput-scaling --domains 2 --batch 64 > /dev/null
	dune exec bin/tango_cli.exe -- throughput --domains 2 --generations 200 --fingerprint > /dev/null

# Relay-mesh smoke: the E15 gates at the N=64 design point, plus a
# 16-PoP relay-kill run through the CLI (lib/mesh end to end).
mesh-smoke:
	dune exec bench/main.exe -- --experiment mesh-scaling --pops 64 --no-micro > _build/mesh_smoke.out
	grep -c "GATE: PASS" _build/mesh_smoke.out | grep -qx 4
	! grep -q "GATE: FAIL" _build/mesh_smoke.out
	dune exec bin/tango_cli.exe -- mesh --pops 16 --scenario relay-kill --fingerprint > /dev/null

# Load-engine smoke: the E16 gates at a narrowed 20k-flow point (ratio,
# ceiling, hit-rate, fingerprint determinism), plus a CLI run with a
# tight cache and an explicit tracker ceiling (lib/workload end to end).
load-smoke:
	dune exec bench/main.exe -- --experiment load-engine --flows 20000 --no-micro > _build/load_smoke.out
	grep -c "GATE: PASS" _build/load_smoke.out | grep -qx 5
	! grep -q "GATE: FAIL" _build/load_smoke.out
	dune exec bin/tango_cli.exe -- load --domains 2 --flows 20000 --cache 1024 --ceiling 65536 --fingerprint > /dev/null

# Verifiable-forwarding smoke: the E17 gates (detection within one
# confirm cadence, intended-verdict purity, clean-sweep zero false
# quarantines, fingerprint determinism) at the 16-PoP point, plus an
# attested Byzantine run through the CLI (lib/mesh/attest end to end).
attest-smoke:
	dune exec bench/main.exe -- --experiment verifiable-forwarding --pops 16 --no-micro > _build/attest_smoke.out
	grep -c "GATE: PASS" _build/attest_smoke.out | grep -qx 4
	! grep -q "GATE: FAIL" _build/attest_smoke.out
	dune exec bin/tango_cli.exe -- mesh --pops 16 --attest --scenario relay-tamper --fingerprint > /dev/null

check: build fmt test lint smoke obs-smoke faults-smoke reconcile-smoke throughput-smoke mesh-smoke load-smoke attest-smoke

clean:
	dune clean
