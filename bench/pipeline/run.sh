#!/usr/bin/env bash
# Build ptbench from source, then run it with this script's arguments.
# Run from the root of a checkout:
#
#   bash bench/pipeline/run.sh --workload rubis_offline --seed 42 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of stdout stays ptbench's
# JSON result. The build uses no shared cache outside the checkout.
set -euo pipefail
dune build --root . --cache=disabled ./bench/pipeline/ptbench.exe 1>&2
exec ./_build/default/bench/pipeline/ptbench.exe "$@"
