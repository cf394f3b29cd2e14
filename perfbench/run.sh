#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given
# arguments (--workload, --seed, --seconds, --trace).  Run from the
# repository root.  Traces and per-run result files go to _perfbench/.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe --out _perfbench "$@"
