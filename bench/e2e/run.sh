#!/usr/bin/env bash
# Build the end-to-end benchmark from source, then run it.
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build output goes to stderr so that
# the benchmark's last stdout line stays its JSON result; a failed build
# exits non-zero without printing a result.
set -euo pipefail
DUNE_CACHE=disabled dune build --root . ./bench/e2e/tango_bench.exe 1>&2
exec ./_build/default/bench/e2e/tango_bench.exe "$@"
