#!/usr/bin/env bash
# Build the benchmark from source and run it; the arguments are
# bmbench.exe's. Run from anywhere: benchmark/run.sh --workload guest_net
# Build outputs go to $CARGO_TARGET_DIR when it is set, else _build.
set -euo pipefail
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null && command -v opam >/dev/null; then
  eval "$(opam env)"
fi
# Keep every build artefact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
build_dir="${CARGO_TARGET_DIR:-_build}"
dune build --root . --build-dir "$build_dir" ./benchmark/bmbench.exe >&2
exec "$build_dir/default/benchmark/bmbench.exe" "$@"
