"""Output checks against analytic or independent references.

Every check is recorded as attempted, and a failed one counts against the
run. Files are read directly from the documented formats, so a check does
not trust the program's own readers where a reference is cheap to write.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np
from genpolicy.checkpoint import load_policy

from workloads import STAGE_FILES

# infer-bandit's fixture scores 0.10-0.24 nats on seeds 1-10. A wrong prior
# constant (log 2*pi per dimension, 1.84 nats at d=2) is well over this.
LOGPROB_TOLERANCE_NATS = 0.5


class Checks:
    """Attempted and failed counts, with one line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok


# -- file readers -----------------------------------------------------------

def read_csv(path: str) -> tuple[list, list]:
    """(columns, rows) of a CLI CSV; the header is the first '#' line, blank
    fields read as None and any other field must parse as a finite float."""
    columns, rows = None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if columns is None:
                    columns = [c.strip() for c in line[1:].split(",")]
                continue
            if columns is None:
                raise ValueError(f"no '#' header line before the data in {path}")
            row = [None if f == "" else float(f) for f in line.split(",")]
            if any(v is not None and not math.isfinite(v) for v in row):
                raise ValueError(f"non-finite value in {path}: {line}")
            if len(row) != len(columns):
                raise ValueError(f"{len(row)} fields under {len(columns)} columns in {path}")
            rows.append(row)
    return columns, rows


def column(path: str, name: str) -> np.ndarray:
    columns, rows = read_csv(path)
    i = columns.index(name)
    return np.array([r[i] for r in rows if r[i] is not None], dtype=float)


def read_gpds(path: str) -> tuple[dict, np.ndarray, np.ndarray]:
    """(header, actions, rewards) of a binary dataset container."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"GPDS":
        raise ValueError(f"{path}: bad magic")
    _, hlen = struct.unpack_from("<IQ", raw, 4)
    off = 16
    head = json.loads(raw[off:off + hlen])
    off += hlen
    n, sd, ad = head["n"], head["state_dim"], head["action_dim"]
    blob = np.frombuffer(raw, dtype="<f8", offset=off)
    a = blob[n * sd:n * sd + n * ad].reshape(n, ad)
    r = blob[n * sd + n * ad:n * sd + n * ad + n]
    return head, a, r


def digest(directory: str) -> dict:
    """sha256 of every file a stage wrote, for rerun bit-identity."""
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


# -- per-stage checks ---------------------------------------------------------

def check_stage_files(checks: Checks, label: str, directory: str) -> None:
    """The documented files exist and every CSV value parses finite."""
    command = label.partition(".")[0]
    for name in STAGE_FILES[command] + ("resolved.ini",):
        path = os.path.join(directory, name)
        if not checks.record(f"{label} wrote {name}", os.path.isfile(path), "missing"):
            continue
        if name.endswith(".csv"):
            try:
                read_csv(path)
                checks.record(f"{label} {name} finite", True)
            except ValueError as exc:
                checks.record(f"{label} {name} finite", False, str(exc))


# -- references -------------------------------------------------------------

def analytic_mean_reward(head: dict) -> float:
    """Mean reward under the behavior data: the value-range midpoint for the
    spiral (reward is linear in a uniform angle), 0 for the tilted bandit
    (reward is the coordinate sum of a standard normal)."""
    meta = head["metadata"]
    if meta["task"] == "swiss_roll":
        lo, hi = meta["value_range"]
        return 0.5 * (lo + hi)
    return 0.0


def reference_logpdf(head: dict, a: np.ndarray) -> np.ndarray:
    """Log density of the behavior data at ``a``.

    Tilted bandit: N(0, I) in closed form. Spiral: a = s(theta) + noise * N(0, I)
    with theta uniform, so p(a) is the mean over theta of N(a; s(theta), noise^2 I),
    taken here by the midpoint rule on a grid fine against the noise scale.
    """
    meta = head["metadata"]
    d = a.shape[1]
    if meta["task"] != "swiss_roll":
        return -0.5 * (a ** 2).sum(axis=1) - 0.5 * d * math.log(2 * math.pi)
    lo, hi = meta["angle_range"]
    sigma = meta["noise"]
    m = 8192
    theta = lo + (np.arange(m) + 0.5) * (hi - lo) / m
    curve = np.stack([theta * np.cos(theta), theta * np.sin(theta)], axis=1)
    d2 = ((a[:, None, :] - curve[None, :, :]) ** 2).sum(axis=2)
    logk = -0.5 * d2 / sigma ** 2 - d * math.log(sigma) - 0.5 * d * math.log(2 * math.pi)
    top = logk.max(axis=1)
    return top + np.log(np.exp(logk - top[:, None]).mean(axis=1))


def logprob_error(dirs: dict) -> float:
    """Mean |logp - reference log density| over the points ``logprob`` scored."""
    head, a, _ = read_gpds(os.path.join(dirs["make-data"], "dataset.gpds"))
    logp = column(os.path.join(dirs["logprob"], "logprob.csv"), "logp")
    return float(np.abs(logp - reference_logpdf(head, a[:logp.size])).mean())


def nearest_mean_value(points: np.ndarray, a: np.ndarray, r: np.ndarray, chunk: int = 128) -> float:
    """Mean reward of the nearest dataset action, searched chunk by chunk."""
    values = np.empty(points.shape[0])
    for lo in range(0, points.shape[0], chunk):
        p = points[lo:lo + chunk]
        d2 = ((p[:, None, :] - a[None, :, :]) ** 2).sum(axis=2)
        values[lo:lo + chunk] = r[d2.argmin(axis=1)]
    return float(values.mean())


def check_eval_value(checks: Checks, dirs: dict) -> None:
    """``eval`` mean_value equals a nearest-neighbour search over the actions
    ``sample`` drew from the same checkpoint, states and seed."""
    _, a, r = read_gpds(os.path.join(dirs["make-data"], "dataset.gpds"))
    _, rows = read_csv(os.path.join(dirs["sample"], "samples.csv"))
    actions = np.array(rows)[:, 1:]
    want = nearest_mean_value(actions, a, r)
    got = column(os.path.join(dirs["eval"], "eval.csv"), "mean_value")[0]
    checks.record("eval mean_value = nearest-neighbour recomputation",
                  abs(got - want) <= 1e-12 * max(1.0, abs(want)), f"{got!r} != {want!r}")


def check_softmax_weights(checks: Checks, dirs: dict, k: int) -> None:
    w = column(os.path.join(dirs["train-gmpo.softmax"], "metrics.csv"), "mean_weight")
    err = float(np.abs(w - 1.0 / k).max())
    checks.record("softmax mean_weight = 1/K", w.size > 0 and err <= 1e-12, f"max error {err:.3g}")


def check_gmpo_value(checks: Checks, dirs: dict) -> None:
    head, _, _ = read_gpds(os.path.join(dirs["make-data"], "dataset.gpds"))
    value = column(os.path.join(dirs["train-gmpo.exp_clamp"], "metrics.csv"), "eval_value")[-1]
    floor = analytic_mean_reward(head)
    checks.record("gmpo eval_value > analytic mean reward", value > floor,
                  f"{value:.4f} <= {floor:.4f}")


def check_gmpg_moves(checks: Checks, dirs: dict, beta: float, seed: int, n: int = 4096) -> None:
    """Both GMPG policies' action means are closer to the tilted optimum
    beta * 1 than the behavior's, all sampled with the same noise."""
    def mean_action(path):
        policy = load_policy(path)
        policy.model.freeze()  # no tape: these samples are only inspected
        return policy.sample_actions(np.zeros((n, 1)), np.random.default_rng([seed, 7])).mean(axis=0)

    mu = mean_action(os.path.join(dirs["pretrain"], "behavior.ckpt"))
    base = float(np.linalg.norm(mu - beta))
    for label in ("train-gmpg.dynamic", "train-gmpg.static"):
        pi = mean_action(os.path.join(dirs[label], "policy.ckpt"))
        dist = float(np.linalg.norm(pi - beta))
        checks.record(f"{label} mean moved toward beta*1", dist < base,
                      f"|mean - beta| {dist:.4f} vs behavior {base:.4f}")
