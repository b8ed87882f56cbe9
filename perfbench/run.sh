#!/usr/bin/env bash
# Builds the PPD benchmark from source, then runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout. Build output goes to stderr, so the
# last line on stdout is the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
