#!/usr/bin/env python3
"""Compare two checkouts on the benchmark, in alternating pairs of runs.

    python3 scripts/bench_pairs.py run PARENT CHANGE --out DIR \
        [--workload NAME ...] [--pairs 10] [--seconds 25] [--seed 1000]
    python3 scripts/bench_pairs.py report DIR [--benchmark BENCHMARK.json]

``run`` runs ``perfbench/run.py --trace 0`` in the PARENT and CHANGE
checkouts for each pair. Pair i gives both sides the seed SEED + i; the
parent runs first in even pairs and the change in odd ones. Every result
JSON is copied to DIR as ``WORKLOAD-pairNN-SIDE.json`` (a run that exits
non-zero or reports a failed check leaves ``WORKLOAD-pairNN-SIDE.failed``
instead). Then it prints the report.

``report`` reads those files back. For every workload and end-to-end
metric of ``BENCHMARK.json`` (by default the CHANGE checkout's, else the
one beside this script) it prints each side's median and quartiles, the
pairs the change won (ties count for neither side) and two verdicts:

- gain: the change won at least 9 of every 10 pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
- bound: ``unresolved`` when either side's interquartile range exceeds
  the metric's bound (a fraction of the parent's median), unless every
  change run beat every parent run; otherwise ``REGRESSED`` when the
  change's median is worse than the parent's by more than the bound, and
  ``ok`` when not.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np

SIDES = ("parent", "change")


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Both verdicts for one metric from paired runs: ``parent[i]`` and
    ``change[i]`` ran as pair i. ``better`` is "higher" or "lower";
    ``bound`` the worsening of the median allowed, as a fraction of the
    parent's."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"need as many change runs as parent runs, got {len(parent)} and {len(change)}")
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = np.percentile(parent, [25, 50, 75])
    c_q1, c_med, c_q3 = np.percentile(change, [25, 50, 75])
    gap = sign * (c_med - p_med)  # > 0 when the change's median is better
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = 10 * wins >= 9 * len(parent) and gap > p_q3 - p_q1
    if min(sign * c for c in change) > max(sign * p for p in parent):
        status = "ok"  # every change run beat every parent run
    elif max(p_q3 - p_q1, c_q3 - c_q1) > bound * abs(p_med):
        status = "unresolved"
    else:
        status = "REGRESSED" if gap < -bound * abs(p_med) else "ok"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3), "wins": wins,
            "pairs": len(parent), "gain": bool(gain), "bound": status}


def run_pairs(parent: str, change: str, workloads: list[str], pairs: int, seconds: float,
              seed: int, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    checkouts = dict(zip(SIDES, (parent, change)))
    for workload in workloads:
        for i in range(pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                root = checkouts[side]
                argv = [sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seed", str(seed + i), "--seconds", str(seconds), "--trace", "0"]
                stem = os.path.join(out, f"{workload}-pair{i:02d}-{side}")
                result = os.path.join(root, "perfbench", "out",
                                      f"result-{workload}-seed{seed + i}-trace0.json")
                if os.path.exists(result):  # an earlier run's, which a failed run would leave
                    os.remove(result)
                proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
                ok = proc.returncode == 0 and os.path.isfile(result)
                if ok:
                    with open(result, encoding="utf-8") as fh:
                        ok = json.load(fh)["error_rate"] == 0
                if ok:
                    shutil.copyfile(result, stem + ".json")
                else:
                    with open(stem + ".failed", "w", encoding="utf-8") as fh:
                        fh.write(proc.stdout + proc.stderr)
                print(f"{workload} pair {i} seed {seed + i} {side}: "
                      f"{'ok' if ok else 'FAILED (see ' + stem + '.failed)'}", flush=True)


def load_runs(out: str) -> dict:
    """workload -> pair index -> side -> metric -> value, over the result files in ``out``."""
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(out, "*-pair*-*.json"))):
        match = re.fullmatch(r"(.+)-pair(\d+)-(parent|change)\.json", os.path.basename(path))
        if match is None:
            continue
        with open(path, encoding="utf-8") as fh:
            metrics = json.load(fh)["metrics"]
        runs.setdefault(match[1], {}).setdefault(int(match[2]), {})[match[3]] = {
            name: m["value"] for name, m in metrics.items()}
    return runs


def report(out: str, benchmark: str) -> int:
    """Print both verdicts for every workload and end-to-end metric; return
    1 when a metric regressed or no complete pair was found, else 0."""
    with open(benchmark, encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    runs = load_runs(out)
    failed = sorted(os.path.basename(p) for p in glob.glob(os.path.join(out, "*.failed")))
    regressed, compared = False, False
    for workload, by_pair in sorted(runs.items()):
        complete = [by_pair[i] for i in sorted(by_pair) if set(by_pair[i]) == set(SIDES)]
        print(f"\n{workload}: {len(complete)} complete pairs")
        print(f"  {'metric':26s} {'parent q1/median/q3':>30s} {'change q1/median/q3':>30s} "
              f"{'won':>6s}  gain  bound")
        for metric in end_to_end:
            name = metric["name"]
            if not complete or any(name not in pair[side] for pair in complete for side in SIDES):
                continue
            v = verdict([pair["parent"][name] for pair in complete],
                        [pair["change"][name] for pair in complete],
                        metric["better"], metric["bound"])
            compared = True
            regressed |= v["bound"] == "REGRESSED"
            p, c = ("/".join(f"{x:.4g}" for x in v[side]) for side in SIDES)
            print(f"  {name:26s} {p:>30s} {c:>30s} {v['wins']:>2d}/{v['pairs']:<3d}"
                  f"  {'yes' if v['gain'] else 'no ':4s}  {v['bound']}")
    for name in failed:
        print(f"FAILED run: {name}")
    if not compared:
        print("no complete pair of results was found")
    return 1 if regressed or not compared else 0


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the pairs, then report")
    run.add_argument("parent", help="checkout of the parent commit")
    run.add_argument("change", help="checkout of the change")
    run.add_argument("--out", required=True, help="directory for every result JSON")
    run.add_argument("--workload", action="append", help="workload name (repeatable; default all)")
    run.add_argument("--pairs", type=int, default=10)
    run.add_argument("--seconds", type=float, default=25.0)
    run.add_argument("--seed", type=int, default=1000, help="seed of pair 0; pair i uses SEED + i")
    rep = sub.add_parser("report", help="report on result files already in DIR")
    rep.add_argument("out", help="directory that a run wrote")
    for p in (run, rep):
        p.add_argument("--benchmark", help="BENCHMARK.json naming the metrics and bounds")
    args = parser.parse_args(argv)
    if args.command == "run":
        benchmark = args.benchmark or os.path.join(args.change, "BENCHMARK.json")
        with open(benchmark, encoding="utf-8") as fh:
            workloads = args.workload or [w["name"] for w in json.load(fh)["workloads"]]
        run_pairs(os.path.abspath(args.parent), os.path.abspath(args.change), workloads,
                  args.pairs, args.seconds, args.seed, args.out)
        return report(args.out, benchmark)
    return report(args.out, args.benchmark or os.path.join(here, "BENCHMARK.json"))


if __name__ == "__main__":
    sys.exit(main())
