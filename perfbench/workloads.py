"""Benchmark workloads: an INI config per workload and its chain of CLI stages.

Every workload runs the same ten stages, so that every end-to-end metric
exists on every workload. The workloads differ in task, network widths and
how much work each stage gets: the stages a workload was chosen for get
most of its time, the others run at a small fixed size. The seed reaches
the program only as ``task.seed``.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

# Stage labels in run order. "command.mode" labels run the same CLI command
# with policy.weight_mode (train-gmpo) or policy.variant (train-gmpg) set.
STAGES = ("make-data", "train-critic", "pretrain", "train-gmpo.exp_clamp",
          "train-gmpo.softmax", "train-gmpg.dynamic", "train-gmpg.static",
          "sample", "logprob", "eval")

# Output files each stage documents, besides resolved.ini.
STAGE_FILES = {
    "make-data": ("dataset.gpds",),
    "train-critic": ("critic.ckpt", "metrics.csv"),
    "pretrain": ("behavior.ckpt", "metrics.csv"),
    "train-gmpo": ("policy.ckpt", "metrics.csv"),
    "train-gmpg": ("policy.ckpt", "metrics.csv"),
    "sample": ("samples.csv",),
    "logprob": ("logprob.csv",),
    "eval": ("eval.csv",),
}

# End-to-end throughput metric of each timed stage, and the unit of its work items.
THROUGHPUT = {
    "train-critic": ("critic_steps_per_s", "steps/s"),
    "pretrain": ("pretrain_steps_per_s", "steps/s"),
    "train-gmpo.exp_clamp": ("gmpo_steps_per_s", "steps/s"),
    "train-gmpo.softmax": ("gmpo_softmax_steps_per_s", "steps/s"),
    "train-gmpg.dynamic": ("gmpg_steps_per_s", "steps/s"),
    "train-gmpg.static": ("gmpg_static_steps_per_s", "steps/s"),
    "sample": ("sample_actions_per_s", "actions/s"),
    "logprob": ("logprob_points_per_s", "points/s"),
    "eval": ("eval_actions_per_s", "actions/s"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict   # INI section -> {key: value}, shared by every stage
    work: dict     # stage label -> work items: optimizer steps, or points for sample/logprob/eval
    extra: dict    # stage label -> further section.key=value overrides
    checks: tuple  # reference checks beyond the ones every workload runs


_BANDIT = {"kind": "tilted_bandit", "dims": 2, "beta_target": 1.0}
_COMMON_POLICY = {"lr": 1e-3, "k_candidates": 8, "t_train": 32, "gmpg_scheme": "euler",
                  "trace": "exact", "objective": "cfm"}
_SOLVER = {"scheme": "euler", "steps": 32}

WORKLOADS = {
    "gmpg-bandit": Workload(
        name="gmpg-bandit",
        config={
            "task": {**_BANDIT, "n": 4096},
            "model": {"hidden": "64,64"},
            "critic": {"hidden": "32,32", "lr": 1e-3, "batch_size": 256},
            "policy": {**_COMMON_POLICY, "beta": 1.0, "batch_size": 128,
                       "gmpg_batch_size": 256, "gmpg_lr": 1e-3},
            "solver": _SOLVER,
            "output": {"metric_every": 1000},
        },
        work={"train-critic": 500, "pretrain": 200, "train-gmpo.exp_clamp": 100,
              "train-gmpo.softmax": 2, "train-gmpg.dynamic": 2, "train-gmpg.static": 2,
              "sample": 2048, "logprob": 384, "eval": 2048},
        extra={},
        checks=("gmpg_moves",),
    ),
    "gmpo-spiral": Workload(
        name="gmpo-spiral",
        config={
            "task": {"kind": "swiss_roll", "n": 4096},
            "model": {"hidden": "256,256,256"},
            "critic": {"hidden": "256,256,256", "lr": 1e-3, "batch_size": 128},
            "policy": {**_COMMON_POLICY, "beta": 4.0, "batch_size": 64, "gmpg_batch_size": 4},
            "solver": _SOLVER,
            "output": {"metric_every": 25},
        },
        # A critic of 40 steps left GMPO's weights close to noise, and the GMPO
        # policy then fell below the dataset mean on some seeds; 200 steps
        # clear it on every seed tried.
        work={"train-critic": 200, "pretrain": 30, "train-gmpo.exp_clamp": 50,
              "train-gmpo.softmax": 2, "train-gmpg.dynamic": 1, "train-gmpg.static": 1,
              "sample": 384, "logprob": 48, "eval": 384},
        extra={"train-gmpo.softmax": ("policy.batch_size=16",)},
        checks=("gmpo_value",),
    ),
    "infer-bandit": Workload(
        name="infer-bandit",
        config={
            "task": {**_BANDIT, "n": 1024},
            "model": {"hidden": "256,256,256"},
            "critic": {"hidden": "32,32", "lr": 1e-3, "batch_size": 256},
            "policy": {**_COMMON_POLICY, "beta": 1.0, "batch_size": 128, "gmpg_batch_size": 4},
            "solver": _SOLVER,
            "output": {"metric_every": 1000},
        },
        work={"train-critic": 500, "pretrain": 150, "train-gmpo.exp_clamp": 40,
              "train-gmpo.softmax": 1, "train-gmpg.dynamic": 2, "train-gmpg.static": 2,
              "sample": 1024, "logprob": 128, "eval": 1024},
        extra={"train-gmpo.softmax": ("policy.batch_size=16",)},
        checks=("logprob_tolerance",),
    ),
}


def write_config(workload: Workload, seed: int, path: str) -> None:
    """Write the workload's INI with the benchmark seed as ``task.seed``."""
    parser = configparser.ConfigParser()
    for section, values in workload.config.items():
        parser[section] = {k: str(v) for k, v in values.items()}
    parser["task"]["seed"] = str(seed)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def stage_dirs(root: str) -> dict:
    return {label: os.path.join(root, label) for label in STAGES}


def stage_argv(workload: Workload, label: str, ini: str, dirs: dict) -> list:
    """The ``genpolicy`` argument vector that runs one stage of the chain."""
    command, _, mode = label.partition(".")
    argv = [command, "--config", ini, "--set", f"output.dir={dirs[label]}"]
    for kv in workload.extra.get(label, ()):
        argv += ["--set", kv]
    if command == "make-data":
        return argv
    argv += ["--dataset", os.path.join(dirs["make-data"], "dataset.gpds")]
    critic = ["--critic", os.path.join(dirs["train-critic"], "critic.ckpt")]
    behavior = os.path.join(dirs["pretrain"], "behavior.ckpt")
    n = workload.work[label]
    if command == "train-critic":
        return argv + ["--set", f"critic.steps={n}"]
    if command == "pretrain":
        return argv + ["--set", f"policy.steps={n}"]
    if command == "train-gmpo":
        if mode == "softmax":
            argv += ["--behavior", behavior]
        return argv + critic + ["--set", f"policy.weight_mode={mode}", "--set", f"policy.steps={n}"]
    if command == "train-gmpg":
        return argv + critic + ["--behavior", behavior, "--set", f"policy.variant={mode}",
                                "--set", f"policy.gmpg_steps={n}"]
    return argv + ["--checkpoint", behavior, "--n", str(n)]
