#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh regen [--write] | check | record [SECONDS]
# Build output goes to stderr; the result is the last line of stdout.
# The shared dune cache is off so that the build reads and writes only
# inside the checkout.
set -euo pipefail
dune build --root . --cache=disabled ./perfbench/main.exe ./perfbench/start.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
