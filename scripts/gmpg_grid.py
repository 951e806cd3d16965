#!/usr/bin/env python3
"""GMPG gradient error, step time and tape size on each solver grid.

    PYTHONPATH=src python3 scripts/gmpg_grid.py

On the shapes of ``tests/test_policy.py``'s ``_gmpg_setup`` (batch 64,
64x2 hidden, d = 2, dynamic variant: a random behavior network and a
copy of it perturbed by 0.05 N(0, 1), the critic Q(s, a) = sum(a)), it
prints for every grid of ``GRIDS``:

- the relative error of the policy gradient, ||g - g_ref|| / ||g_ref||,
  against ``REFERENCE`` (rk4_38 at T = 128) with the same draws;
- the median milliseconds of one step (loss and reverse pass), over
  ``repeats`` steps;
- the recorded tape nodes of one step.

It does so for the exact trace, and for Hutchinson with one probe over
the seeds of ``PROBE_SEEDS``. A seed draws the initial noise first and
the probes after, so each Hutchinson gradient is compared with the
exact-trace reference of its own seed: the error is that of the
discretization and of the one-probe estimate together, reported as its
minimum, median and maximum over the seeds. The whole table takes about
15 s on one core of a 2-core Xeon.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from genpolicy.checkpoint import copy_policy  # noqa: E402
from genpolicy.policy import (GenerativePolicy, PolicyConfig, TrainingConfig,  # noqa: E402
                              gmpg_loss)
from genpolicy.schedules import PathSchedule  # noqa: E402

GRIDS = (("euler", 32), ("euler", 1000), ("midpoint", 16), ("midpoint", 32),
         ("rk4_38", 8), ("rk4_38", 16))
REFERENCE = ("rk4_38", 128)
PROBE_SEEDS = tuple(range(72, 77))  # 72 is the exact trace's seed


class SumCritic:
    """Q(s, a) = sum(a), on the tape."""

    def q_tensor(self, s, a):
        return a.sum(axis=1, keepdims=True)


def tape_nodes(out) -> int:
    """Recorded nodes (Tensors with parents) of the graph ``out`` heads."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._prev:
            seen.add(id(node))
            stack.extend(node._prev)
    return len(seen)


def setup(batch: int, hidden: tuple, d: int):
    """(policy, behavior, states) as ``_gmpg_setup`` draws them."""
    config = PolicyConfig(state_dim=1, action_dim=d, hidden=hidden, schedule=PathSchedule("gvp"))
    behavior = GenerativePolicy(config, np.random.default_rng(70))
    policy = copy_policy(behavior)
    rng = np.random.default_rng(71)
    for p in policy.parameters():
        p.data = p.data + 0.05 * rng.standard_normal(p.data.shape)
    behavior.model.freeze()
    return policy, behavior, rng.standard_normal((batch, 1))


def gmpg_step(policy, behavior, states, config: TrainingConfig, seed: int):
    """(flat policy gradient, seconds, tape nodes) of one GMPG step."""
    start = time.perf_counter()
    loss = gmpg_loss(policy, behavior, SumCritic(), states, config, np.random.default_rng(seed))
    loss.backward()
    seconds = time.perf_counter() - start
    nodes = tape_nodes(loss)
    del loss
    grad = np.concatenate([p.grad.ravel() for p in policy.parameters()])
    for p in policy.parameters():
        p.grad = None
    return grad, seconds, nodes


def measure(batch: int = 64, hidden: tuple = (64, 64), d: int = 2, grids=GRIDS,
            reference=REFERENCE, probe_seeds=PROBE_SEEDS, repeats: int = 3) -> list:
    """One row per grid and trace: {"scheme", "steps", "trace", "errors"
    (one per seed; one for the exact trace), "ms", "nodes"}."""
    policy, behavior, states = setup(batch, hidden, d)
    reference_config = TrainingConfig(t_train=reference[1], gmpg_scheme=reference[0])
    refs = {seed: gmpg_step(policy, behavior, states, reference_config, seed)[0]
            for seed in probe_seeds}
    rows = []
    for scheme, steps in grids:
        runs = [gmpg_step(policy, behavior, states,
                          TrainingConfig(t_train=steps, gmpg_scheme=scheme), probe_seeds[0])
                for _ in range(repeats)]
        ref = refs[probe_seeds[0]]
        rows.append({"scheme": scheme, "steps": steps, "trace": "exact",
                     "errors": [np.linalg.norm(runs[0][0] - ref) / np.linalg.norm(ref)],
                     "ms": 1000 * float(np.median([r[1] for r in runs])), "nodes": runs[0][2]})
        config = TrainingConfig(t_train=steps, gmpg_scheme=scheme, trace="hutchinson")
        runs = [gmpg_step(policy, behavior, states, config, seed) for seed in probe_seeds]
        rows.append({"scheme": scheme, "steps": steps, "trace": "hutchinson 1",
                     "errors": [np.linalg.norm(g - refs[seed]) / np.linalg.norm(refs[seed])
                                for (g, _, _), seed in zip(runs, probe_seeds)],
                     "ms": 1000 * float(np.median([r[1] for r in runs])), "nodes": runs[0][2]})
    return rows


def format_table(rows: list) -> str:
    lines = [f"{'grid':16s} {'trace':13s} {'grad rel. err (min / median / max)':>36s} "
             f"{'ms/step':>9s} {'nodes':>7s}"]
    for row in rows:
        errs = row["errors"]
        err = (f"{errs[0]:.2g}" if len(errs) == 1
               else f"{min(errs):.2g} / {float(np.median(errs)):.2g} / {max(errs):.2g}")
        lines.append(f"{row['scheme'] + ' T=' + str(row['steps']):16s} {row['trace']:13s} "
                     f"{err:>36s} {row['ms']:9.1f} {row['nodes']:7d}")
    return "\n".join(lines)


def main() -> int:
    print(f"batch 64, 64x2, d=2, dynamic; reference {REFERENCE[0]} T={REFERENCE[1]}; "
          f"Hutchinson over probe seeds {PROBE_SEEDS[0]}-{PROBE_SEEDS[-1]}")
    print(format_table(measure()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
