#!/usr/bin/env bash
# Entry point for automated runs: builds the benchmark and the CLI it
# drives from this checkout's sources, then runs one workload.
#
#   bash bench/e2e/run.sh --workload findgap-dp --seed 1 --seconds 20 --trace 0
#
# Build output and the run summary go to stderr; the last line of
# stdout is the result JSON. Fails (non-zero, no result) when the
# sources do not build, e.g. outside a full checkout.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . ./bench/e2e/e2e.exe ./bin/metaopt_cli.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe bench \
  --cli ./_build/default/bin/metaopt_cli.exe "$@"
