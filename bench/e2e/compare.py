#!/usr/bin/env python3
"""Collects and compares zt_bench result sets (standard library only).

A result set is a directory of files named <workload>.seed<N>.trace<T>.json,
each holding one zt_bench result object.

  compare.py run DIR [--seeds 1-10] [--workloads a,b] [--trace 0|1]
      Runs bench/e2e/run.sh once per (workload, seed) for BENCHMARK.json's
      run_seconds and stores each result in DIR.

  compare.py spread DIR
      Per (workload, end-to-end metric): median and spread, the distance
      between the first and third quartile over the median. Flags spreads
      of a third of the metric's bound or more (setup_s excepted), the
      steadiness the benchmark is held to. Exit 1 when any is flagged.

  compare.py diff BASE NEW
      Per (workload, metric): each side's median, the relative change and
      a verdict against the bounds in BENCHMARK.json:
        ok          not worse than BASE by more than the bound
        regression  worse by more than the bound
        unresolved  a side's spread exceeds the bound and not every NEW
                    run beats every BASE run
        changed     a deterministic metric (DETERMINISTIC below) differs
                    from BASE on a seed both sets ran
      Per-layer metrics have no bound and only print. Exit 1 on any
      regression, any change of a deterministic metric, or any run whose
      output checks failed.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^(?P<workload>.+)\.seed(?P<seed>\d+)\.trace(?P<trace>[01])\.json$")
# Metrics measured on inputs that do not depend on timing: a pure
# performance change leaves them unchanged bit for bit, so diff pairs them
# by seed and requires equality.
DETERMINISTIC = {"error_ratio"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def load_set(directory):
    """{(workload, trace): {seed: result}}."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        m = NAME.match(name)
        if not m:
            continue
        with open(os.path.join(directory, name)) as f:
            result = json.load(f)
        key = (m["workload"], int(m["trace"]))
        runs.setdefault(key, {})[int(m["seed"])] = result
    if not runs:
        sys.exit(f"compare.py: no results in {directory}")
    return runs


def values(results, metric):
    """{seed: value} of `metric` over {seed: result}."""
    return {seed: r["metrics"][metric]["value"]
            for seed, r in results.items() if metric in r["metrics"]}


def spread(xs):
    """(q3 - q1) / median, as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / abs(med) if med else 0.0


def cmd_run(args, spec):
    os.makedirs(args.dir, exist_ok=True)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = ["bash", os.path.join(HERE, "run.sh"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"compare.py: {' '.join(cmd)} exited "
                         f"{proc.returncode}")
            path = os.path.join(
                args.dir, f"{workload}.seed{seed}.trace{args.trace}.json")
            with open(path, "w") as f:
                f.write(lines[-1] + "\n")
            print(f"{workload} seed {seed}: {lines[-1]}", flush=True)
    return 0


def cmd_spread(args, spec):
    runs = load_set(args.dir)
    flagged = 0
    print(f"{'workload':16} {'metric':14} {'n':>3} {'median':>14} "
          f"{'spread':>8} {'bound':>6}")
    for (workload, trace), results in sorted(runs.items()):
        if trace != 0:
            continue
        for m in spec["end_to_end"]:
            xs = list(values(results, m["name"]).values())
            if not xs:
                continue
            s = spread(xs)
            steady = m["name"] == "setup_s" or s < m["bound"] / 3
            flagged += not steady
            print(f"{workload:16} {m['name']:14} {len(xs):3} "
                  f"{statistics.median(xs):14.6g} {s:8.2%} {m['bound']:6.1%}"
                  f"{'' if steady else '  <- spread >= bound/3'}")
    return 1 if flagged else 0


def verdict(base, new, better, bound):
    beats = (lambda x, y: x < y) if better == "lower" else (lambda x, y: x > y)
    mb, mn = statistics.median(base), statistics.median(new)
    change = (mn - mb) / abs(mb) if mb else 0.0
    worsening = change if better == "lower" else -change
    if max(spread(base), spread(new)) > bound:
        beats_all = all(beats(n, b) for n in new for b in base)
        return change, "ok" if beats_all else "unresolved"
    return change, "regression" if worsening > bound else "ok"


def deterministic_verdict(base, new):
    """'ok' when every seed both sides ran has the same value."""
    seeds = sorted(set(base) & set(new))
    differ = [s for s in seeds if base[s] != new[s]]
    if not seeds:
        return "unresolved (no common seed)"
    return f"changed on seeds {differ}" if differ else "ok"


def cmd_diff(args, spec):
    base, new = load_set(args.base), load_set(args.new)
    bad = 0
    for key in sorted(set(base) | set(new)):
        for side, runs in (("BASE", base), ("NEW", new)):
            for seed, r in sorted(runs.get(key, {}).items()):
                if not r["correct"] or r["failed"]:
                    print(f"{key[0]} seed {seed}: a {side} run failed its "
                          f"output checks ({r['failed']} of {r['attempted']} "
                          f"ops)")
                    bad += 1
    print(f"{'workload':16} {'metric':40} {'base':>12} {'new':>12} "
          f"{'change':>8}  verdict")
    for (workload, trace) in sorted(set(base) & set(new)):
        metrics = spec["end_to_end"] if trace == 0 else spec["per_layer"]
        for m in metrics:
            b = values(base[(workload, trace)], m["name"])
            n = values(new[(workload, trace)], m["name"])
            if not b or not n:
                continue
            mb, mn = statistics.median(b.values()), statistics.median(n.values())
            change = (mn - mb) / abs(mb) if mb else 0.0
            if m["name"] in DETERMINISTIC:
                v = deterministic_verdict(b, n)
                bad += v != "ok"
            elif "bound" in m:
                change, v = verdict(list(b.values()), list(n.values()),
                                    m["better"], m["bound"])
                bad += v == "regression"
            else:
                v = "-"
            print(f"{workload:16} {m['name']:40} {mb:12.6g} {mn:12.6g} "
                  f"{change:+8.2%}  {v}")
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("dir")
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--workloads", default="")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sp = sub.add_parser("spread")
    sp.add_argument("dir")
    diff = sub.add_parser("diff")
    diff.add_argument("base")
    diff.add_argument("new")
    args = parser.parse_args()
    spec = load_spec()
    return {"run": cmd_run, "spread": cmd_spread, "diff": cmd_diff}[args.cmd](
        args, spec)


if __name__ == "__main__":
    sys.exit(main())
