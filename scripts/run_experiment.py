#!/usr/bin/env python3
"""Run one experiment: the whole ``genpolicy`` stage chain on one INI config.

    python3 scripts/run_experiment.py scripts/experiments/bandit.ini --out runs/bandit \
        [--set section.key=value ...]

Stages, each written to OUT/LABEL: make-data, train-critic, pretrain,
train-gmpo, train-gmpg, then eval.behavior, eval.gmpo and eval.gmpg (4096
actions each) and export-trajectories.gmpo and export-trajectories.gmpg
(64 paths each). Every stage reads the config and then the --set
overrides. The run stops at the first stage that exits non-zero and
returns that exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from genpolicy import cli


def stages(out: str):
    """(label, argv) of every stage, in run order."""
    data = ["--dataset", os.path.join(out, "make-data", "dataset.gpds")]
    critic = ["--critic", os.path.join(out, "train-critic", "critic.ckpt")]
    ckpt = {"behavior": os.path.join(out, "pretrain", "behavior.ckpt"),
            "gmpo": os.path.join(out, "train-gmpo", "policy.ckpt"),
            "gmpg": os.path.join(out, "train-gmpg", "policy.ckpt")}
    yield "make-data", ["make-data"]
    yield "train-critic", ["train-critic", *data]
    yield "pretrain", ["pretrain", *data]
    yield "train-gmpo", ["train-gmpo", *data, *critic]
    yield "train-gmpg", ["train-gmpg", *data, *critic, "--behavior", ckpt["behavior"]]
    for name in ("behavior", "gmpo", "gmpg"):
        yield f"eval.{name}", ["eval", *data, "--checkpoint", ckpt[name], "--n", "4096"]
    for name in ("gmpo", "gmpg"):
        yield f"export-trajectories.{name}", ["export-trajectories", *data,
                                              "--checkpoint", ckpt[name], "--n", "64"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", help="experiment INI, e.g. scripts/experiments/bandit.ini")
    parser.add_argument("--out", required=True, help="directory that gets one folder per stage")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE")
    args = parser.parse_args(argv)
    out = os.path.abspath(args.out)
    settings = [arg for kv in args.overrides for arg in ("--set", kv)]
    start = time.perf_counter()
    for label, stage in stages(out):
        rc = cli.main([*stage, "--config", args.config, *settings,
                       "--set", f"output.dir={os.path.join(out, label)}"])
        print(f"[{time.perf_counter() - start:7.1f} s] {label} exited {rc}", flush=True)
        if rc:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
