#!/bin/sh
# Soak the tier-1 suites for latent flakes: run `dune runtest` RUNS times
# (default 10), each under a fresh random QCHECK_SEED.  Each run prints its
# seed first, so a failure replays with `QCHECK_SEED=<seed> dune runtest`.
#
#   scripts/soak.sh [RUNS]
set -eu
cd "$(dirname "$0")/.."
runs=${1:-10}
dune build @all
i=1
while [ "$i" -le "$runs" ]; do
  seed=$(od -An -N4 -tu4 /dev/urandom | tr -d ' ')
  echo "== soak run $i/$runs: QCHECK_SEED=$seed =="
  QCHECK_SEED=$seed dune runtest --force
  i=$((i + 1))
done
echo "soak: $runs runs passed"
