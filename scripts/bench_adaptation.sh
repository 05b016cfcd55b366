#!/usr/bin/env bash
# Benchmarks the online adaptation loop (serve-sim --adapt) across drift
# severities and writes bench/BENCH_adaptation.json: median q-error of
# the live model under drift before vs after the loop fine-tunes and
# promotes, the duration of the last rolling hot-swap, and availability
# through the whole drill (drift -> fine-tune -> shadow -> promote ->
# replica-by-replica rollout). Every drill runs inline (--threads 0) on
# a FakeClock, so `virtual_rps` and `last_rollout_ms` are virtual time.
#
# Usage: scripts/bench_adaptation.sh [build-dir] [requests]
#   scripts/bench_adaptation.sh          # ./build, 2000
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
requests="${2:-2000}"
out="${repo_root}/bench/BENCH_adaptation.json"

cmake --build "${build_dir}" --target zerotune_cli -j "$(nproc)" >&2
cli="${build_dir}/tools/zerotune_cli"
[[ -x "${cli}" ]] || { echo "zerotune_cli not found at ${cli}" >&2; exit 1; }

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT
printf 'source(rate=150000, schema=ddi)\n  | filter(sel=0.6)\n  | aggregate(fn=avg, key=int, window=count:tumbling:50, sel=0.2)\n  | sink\n' \
  > "${workdir}/q.dsl"
"${cli}" compile --dsl "${workdir}/q.dsl" --out "${workdir}/q.plan" >&2
"${cli}" collect --count 80 --seed 5 --out "${workdir}/corpus.txt" >&2
"${cli}" train --corpus "${workdir}/corpus.txt" \
  --model-out "${workdir}/model.txt" --epochs 6 --hidden 16 >&2
"${cli}" tune --model "${workdir}/model.txt" --query "${workdir}/q.plan" \
  --cluster m510:4 --out "${workdir}/deployed.plan" >&2

drift_after=$((requests / 4))
cat > "${workdir}/row.py" <<'PY'
import json, sys
factor = float(sys.argv[1])
d = json.load(sys.stdin)
a = d["adaptation"]
s = d["stats"]
print(json.dumps({
    "drift_factor": factor,
    "median_qerror_drifted": round(a["median_qerror_drifted"], 4),
    # 0 means no post-drift promotion happened (drift below the trip
    # threshold); report null rather than a fake-perfect q-error.
    "median_qerror_adapted": round(a["median_qerror_adapted"], 4) or None,
    "finetunes": a["finetunes"],
    "promotions": a["promotions"],
    "rejections": a["rejections"],
    "rollbacks": a["rollbacks"],
    "live_version": a["live_version"],
    "last_rollout_ms": round(a["last_rollout_ms"], 3),
    "primary_swaps": s["primary_swaps"],
    "availability": s["availability"],
    # --threads 0 replays on a FakeClock: the rate is virtual.
    "virtual_rps": round(d["virtual_rps"], 1),
}, indent=4))
PY
{
  printf '{\n'
  printf '  "benchmark": "adaptation",\n'
  printf '  "requests": %s,\n' "${requests}"
  printf '  "drift_after": %s,\n' "${drift_after}"
  printf '  "replicas": 4,\n'
  printf '  "adapt_every": 32,\n'
  printf '  "seed": 2024,\n'
  printf '  "runs": [\n'
  first=1
  for factor in 1.5 2 3 5; do
    rm -rf "${workdir}/registry"
    json="$("${cli}" serve-sim --plan "${workdir}/deployed.plan" \
      --model "${workdir}/model.txt" --adapt \
      --registry "${workdir}/registry" \
      --requests "${requests}" --threads 0 --replicas 4 --tenants 32 \
      --adapt-every 32 --drift-after "${drift_after}" \
      --drift-factor "${factor}" --seed 2024 --format json)"
    row="$(python3 "${workdir}/row.py" "${factor}" <<<"${json}")"
    [[ ${first} -eq 1 ]] || printf ',\n'
    first=0
    printf '%s' "${row}" | sed 's/^/    /'
  done
  printf '\n  ]\n}\n'
} > "${out}"
echo "wrote ${out}" >&2
python3 -m json.tool "${out}" > /dev/null
