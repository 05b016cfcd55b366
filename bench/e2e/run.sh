#!/usr/bin/env bash
# Builds zt_bench from this checkout's sources, then runs one workload:
#
#   bash bench/e2e/run.sh --workload tune-grid --seed 1 --seconds 10 --trace 0
#
# Arguments are passed to zt_bench unchanged (see zt_bench.cc). Build output
# goes to stderr, so the last stdout line is zt_bench's JSON result. The
# build tree is $CARGO_TARGET_DIR when set, else .bench_build, under the
# checkout root; the first run configures and compiles it (about 45 s on
# 4 cores), later runs only check it is up to date.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "${root}"
build="${CARGO_TARGET_DIR:-.bench_build}"

if [[ ! -f "${build}/build.ninja" && ! -f "${build}/Makefile" ]]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  cmake -S bench/e2e -B "${build}" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "${build}" --target zt_bench -j 4 >&2
exec "${build}/zt_bench" "$@"
