#!/bin/sh
# Builds the benchmark from source and runs one workload:
#
#   sh e2ebench/run.sh --workload csv-poly --seed 1 --seconds 25 --trace 0
#
# Run from the root of the repository. Build output goes to stderr, so
# the last line on stdout is the run's JSON result.
set -eu
export DUNE_CACHE=disabled
dune build --root . --display quiet ./e2ebench/main.exe 1>&2
exec ./_build/default/e2ebench/main.exe "$@"
