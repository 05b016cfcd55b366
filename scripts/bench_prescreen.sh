#!/usr/bin/env bash
# Runs the two-tier scoring benchmark (analytical pre-screen vs
# exhaustive GNN scoring across the fig10 structures at 64/256/1024
# cores) and writes bench/BENCH_prescreen.json. Every column except the
# tune_ms_* timings is deterministic, so the script then lists on stderr
# each row whose other columns differ from the file it replaced: a change
# to training or inference numerics shows up there.
#
# Usage: scripts/bench_prescreen.sh [build-dir]
#   scripts/bench_prescreen.sh          # ./build
# Honors the usual bench scale knobs (ZEROTUNE_BENCH_FAST=1 /
# ZEROTUNE_BENCH_FULL=1).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
out="${repo_root}/bench/BENCH_prescreen.json"

cmake --build "${build_dir}" --target bench_prescreen -j "$(nproc)" >&2
bin="${build_dir}/bench/bench_prescreen"
[[ -x "${bin}" ]] || { echo "bench_prescreen not found at ${bin}" >&2; exit 1; }

previous="$(mktemp)"
trap 'rm -f "${previous}"' EXIT
if [[ -f "${out}" ]]; then cp "${out}" "${previous}"; fi

"${bin}" > "${out}"
echo "wrote ${out}" >&2
python3 -m json.tool "${out}" > /dev/null

python3 - "${previous}" "${out}" >&2 <<'PY'
import json
import sys


def quality_rows(path):
    try:
        with open(path) as f:
            rows = json.load(f)["rows"]
    except (OSError, ValueError, KeyError):
        return None
    return {(r["structure"], r["nodes"], r["cores"]):
            {k: v for k, v in r.items() if not k.startswith("tune_ms_")}
            for r in rows}


before, after = quality_rows(sys.argv[1]), quality_rows(sys.argv[2])
if before is None:
    print("no previous file to compare the quality columns with")
    sys.exit(0)
changed = sorted(k for k in before.keys() | after.keys()
                 if before.get(k) != after.get(k))
for key in changed:
    print("quality columns changed: %s @ %d cores" % (key[0], key[2]))
    for name in sorted((before.get(key) or {}).keys() |
                       (after.get(key) or {}).keys()):
        old = (before.get(key) or {}).get(name)
        new = (after.get(key) or {}).get(name)
        if old != new:
            print("    %s: %s -> %s" % (name, old, new))
print("%d of %d rows changed quality columns" % (len(changed), len(after)))
PY
