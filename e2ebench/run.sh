#!/usr/bin/env bash
# Build the eppi CLI and the benchmark from source, then run one workload:
#   bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr; the last
# line of stdout is the result object.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./bin/eppi_cli.exe ./e2ebench/src/main.exe 1>&2
exec ./_build/default/e2ebench/src/main.exe "$@"
