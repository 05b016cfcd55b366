#!/usr/bin/env bash
# Benchmarks the sharded serving fleet (serve-sim fleet mode) across
# replica counts and writes bench/BENCH_serve_fleet.json: throughput,
# latency percentiles, availability (answered / received) and the fleet
# ledger per fleet size, under the same chaos schedule (5% primary
# failures, a replica killed every 20k requests, controller-driven
# restarts). Every replica serves a freshly trained ZeroTune GNN at the
# default hidden width. Exits non-zero, writing nothing, when a row's
# ledger does not account for every request:
#   answered + shed_fleet_capacity + shed_tenant_quota + shed_fair_share
#     + deadline_expired + failed == requests
#
# Usage: scripts/bench_serve_fleet.sh [build-dir] [requests] [tenants]
#   scripts/bench_serve_fleet.sh                # ./build, 200k, 1000
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
requests="${2:-200000}"
tenants="${3:-1000}"
out="${repo_root}/bench/BENCH_serve_fleet.json"

cmake --build "${build_dir}" --target zerotune_cli -j "$(nproc)" >&2
cli="${build_dir}/tools/zerotune_cli"
[[ -x "${cli}" ]] || { echo "zerotune_cli not found at ${cli}" >&2; exit 1; }

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT
printf 'source(rate=150000, schema=ddi)\n  | filter(sel=0.6)\n  | sink\n' \
  > "${workdir}/q.dsl"
"${cli}" compile --dsl "${workdir}/q.dsl" --out "${workdir}/q.plan" >&2
# Train the served model on a small corpus, then tune the deployed
# (parallel) plan serve-sim needs with it, as the CLI workflow tests do.
hidden=48
"${cli}" collect --count 40 --seed 5 --out "${workdir}/corpus.txt" >&2
"${cli}" train --corpus "${workdir}/corpus.txt" \
  --model-out "${workdir}/model.txt" --epochs 3 --hidden "${hidden}" >&2
"${cli}" tune --model "${workdir}/model.txt" --query "${workdir}/q.plan" \
  --cluster m510:4 --out "${workdir}/deployed.plan" >&2

threads=4
cat > "${workdir}/row.py" <<'PY'
import json, sys
replicas = int(sys.argv[1])
requests = int(sys.argv[2])
d = json.load(sys.stdin)
s = d["stats"]
lat = s["latency_ms"]
ledger = ["answered", "shed_fleet_capacity", "shed_tenant_quota",
          "shed_fair_share", "deadline_expired", "failed"]
accounted = sum(s[k] for k in ledger)
if accounted != requests:
    sys.exit("replicas=%d: %s = %d, not %d requests"
             % (replicas, " + ".join(ledger), accounted, requests))
print(json.dumps({
    "replicas": replicas,
    "rps": round(d["rps"], 1),
    "wall_s": round(d["wall_s"], 4),
    "availability": s["availability"],
    "p50_ms": round(lat.get("p50", 0.0), 4),
    "p99_ms": round(lat.get("p99", 0.0), 4),
    "received": s["received"],
    "answered": s["answered"],
    "shed_fleet_capacity": s["shed_fleet_capacity"],
    "shed_tenant_quota": s["shed_tenant_quota"],
    "shed_fair_share": s["shed_fair_share"],
    "deadline_expired": s["deadline_expired"],
    "failed": s["failed"],
    "failovers": s["failovers"],
    "kills": s["kills"],
    "restarts": s["restarts"],
}, indent=4))
PY
{
  printf '{\n'
  printf '  "benchmark": "serve_fleet",\n'
  printf '  "requests": %s,\n' "${requests}"
  printf '  "tenants": %s,\n' "${tenants}"
  printf '  "threads": %s,\n' "${threads}"
  printf '  "hidden": %s,\n' "${hidden}"
  printf '  "kill_replica_every": 20000,\n'
  printf '  "fail_rate": 0.05,\n'
  printf '  "seed": 2024,\n'
  printf '  "runs": [\n'
  first=1
  for replicas in 1 2 4 8; do
    json="$("${cli}" serve-sim --plan "${workdir}/deployed.plan" \
      --model "${workdir}/model.txt" \
      --requests "${requests}" --tenants "${tenants}" \
      --replicas "${replicas}" --threads "${threads}" \
      --kill-replica-every 20000 --fail-rate 0.05 --seed 2024 \
      --format json)"
    row="$(python3 "${workdir}/row.py" "${replicas}" "${requests}" \
      <<<"${json}")"
    [[ ${first} -eq 1 ]] || printf ',\n'
    first=0
    printf '%s' "${row}" | sed 's/^/    /'
  done
  printf '\n  ]\n}\n'
} > "${workdir}/out.json"
python3 -m json.tool "${workdir}/out.json" > /dev/null
mv "${workdir}/out.json" "${out}"
echo "wrote ${out}" >&2
