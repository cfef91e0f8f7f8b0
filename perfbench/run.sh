#!/usr/bin/env bash
# Builds the benchmark driver and the flowd daemon from source, then runs
# the driver from the repository root with the given arguments:
#
#   bash perfbench/run.sh --workload table3 --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke
#
# Build output goes to stderr; the driver's last stdout line is its JSON
# result.  Outside a full source tree the build fails and so does this.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build artefact inside the tree
export DUNE_CACHE=disabled
dune build --root . --display quiet \
  ./perfbench/perfbench.exe ./bin/flowd.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
