#!/usr/bin/env bash
# Runs the micro-perf trajectory (encoder / message-passing / readout
# blocks plus end-to-end PredictBatch on the fp32 engine, each under the
# scalar and simd kernels) and writes bench/BENCH_micro_perf.json.
#
# Usage: scripts/bench_micro_perf.sh [build-dir]
#   scripts/bench_micro_perf.sh          # ./build
# Honors ZEROTUNE_BENCH_FAST=1 (fewer, shorter samples).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
out="${repo_root}/bench/BENCH_micro_perf.json"

cmake --build "${build_dir}" --target bench_micro_perf -j "$(nproc)" >&2
bin="${build_dir}/bench/bench_micro_perf"
[[ -x "${bin}" ]] || { echo "bench_micro_perf not found at ${bin}" >&2; exit 1; }

"${bin}" --trajectory > "${out}"
echo "wrote ${out}" >&2
python3 -m json.tool "${out}" > /dev/null
