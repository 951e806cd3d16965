"""Spans around the calls into each genpolicy layer, for the traced run.

The tracer wraps the names callers resolve at call time (module globals
and class attributes) while it is installed, and restores them after;
nothing inside the program changes. Spans are kept in memory as
[name, start, end, parent span, run id] and written out at the end.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import genpolicy.cli as cli
import genpolicy.critic as critic
import genpolicy.likelihood as likelihood
import genpolicy.model as model
import genpolicy.nn as nn
import genpolicy.optim as optim
import genpolicy.policy as policy
import genpolicy.tensor as tensor

MIB = float(1 << 20)
LIKELIHOOD_SPANS = ("likelihood.log_prob", "likelihood.generate_with_log_prob")
TRACE_SPAN = "likelihood.trace_with_jvp"
TAPE_WALK = "trace.tape_walk"

# (owner, attribute, span name). The owner is where the caller looks the name
# up: policy.py imports log_prob and generate, cli.py imports the data and
# checkpoint functions, so those are wrapped in the importing module.
TARGETS = (
    (cli.MetricsWriter, "row", "cli.MetricsWriter.row"),
    (policy, "gmpg_loss", "policy.gmpg_loss"),
    (policy, "gmpg_static_surrogate", "policy.gmpg_static_surrogate"),
    (policy, "gmpo_weight", "policy.gmpo_weight"),
    (policy, "softmax_candidate_weights", "policy.softmax_candidate_weights"),
    (policy.GenerativePolicy, "sample_actions", "policy.GenerativePolicy.sample_actions"),
    (policy.GenerativePolicy, "log_prob_actions", "policy.GenerativePolicy.log_prob_actions"),
    (policy, "generate_with_log_prob", "likelihood.generate_with_log_prob"),
    (policy, "log_prob", "likelihood.log_prob"),
    (likelihood, "trace_with_jvp", TRACE_SPAN),
    (policy, "generate", "sampler.generate"),
    (model.GenerativeModel, "velocity", "model.GenerativeModel.velocity"),
    (model.GenerativeModel, "velocity_jvp", "model.GenerativeModel.velocity_jvp"),
    (nn.Mlp, "__call__", "nn.Mlp.__call__"),
    (nn.Mlp, "forward_jvp", "nn.Mlp.forward_jvp"),
    (policy, "matching_loss", "matching.matching_loss"),
    (tensor.Tensor, "backward", "tensor.Tensor.backward"),
    (optim.Adam, "step", "optim.Adam.step"),
    (critic, "iql_step", "critic.iql_step"),
    (critic.Critic, "q_values", "critic.Critic.q_values"),
    (critic.Critic, "v_values", "critic.Critic.v_values"),
    (critic.Critic, "q_tensor", "critic.Critic.q_tensor"),
    (cli, "assign_value_nearest", "data.assign_value_nearest"),
    (cli, "load_dataset", "data.load_dataset"),
    (cli, "save_dataset", "data.save_dataset"),
    (cli, "save_policy", "checkpoint.save_policy"),
    (cli, "load_policy", "checkpoint.load_policy"),
    (cli, "save_critic", "checkpoint.save_critic"),
    (cli, "load_critic", "checkpoint.load_critic"),
)


def tape_size(out) -> tuple[int, int]:
    """(nodes, bytes of node values) of the graph that ``out`` heads."""
    seen, stack, nbytes = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.data.nbytes
        stack.extend(node._prev)
    return len(seen), nbytes


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.tape_nodes = 0
        self.tape_bytes = 0
        self.nearest_bytes = 0

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.run_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self.stack.pop()

    def _walk_tape(self, out, *_):
        with self.span(TAPE_WALK):
            nodes, nbytes = tape_size(out)
        self.tape_nodes = max(self.tape_nodes, nodes)
        self.tape_bytes = max(self.tape_bytes, nbytes)

    def _note_nearest(self, dataset, points, *_):
        self.nearest_bytes = max(self.nearest_bytes, points.shape[0] * dataset.a.nbytes)

    def wrap(self, name: str, fn):
        before = {"tensor.Tensor.backward": self._walk_tape,
                  "data.assign_value_nearest": self._note_nearest}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in TARGETS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the part its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def accounting_errors(spans) -> list:
    """Stage spans whose own and descendants' self times do not add up to
    the stage's duration, or that hold a child outside their interval."""
    own = self_times(spans)
    root = [-1] * len(spans)
    total = defaultdict(float)
    bad = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        total[root[i]] += own[i]
        if parent >= 0 and not (spans[parent][1] <= start <= end <= spans[parent][2]):
            bad.append(f"{name} lies outside {spans[parent][0]}")
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0 and abs(total[i] - (end - start)) > 1e-9 * max(1.0, end - start):
            bad.append(f"{name}: self times sum to {total[i]!r}, span lasts {end - start!r}")
    return bad


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer calls, self time and the repeatable counts, from the spans."""
    spans = tracer.spans
    own = self_times(spans)
    calls, self_s = Counter(), defaultdict(float)
    in_lik, in_trace, stage = [False] * len(spans), [False] * len(spans), [None] * len(spans)
    under = Counter()
    for i, (name, _, _, parent, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += own[i]
        if parent >= 0:
            in_lik[i], in_trace[i], stage[i] = in_lik[parent], in_trace[parent], stage[parent]
        else:
            stage[i] = name
        if name == "model.GenerativeModel.velocity_jvp" and in_trace[i]:
            under["jvp_in_trace"] += 1
        if name == "model.GenerativeModel.velocity" and in_lik[i] and not in_trace[i]:
            under["velocity_in_likelihood"] += 1
        if stage[i] == "cli.train-gmpo.exp_clamp" and name in ("critic.Critic.q_values",
                                                              "optim.Adam.step"):
            under[name] += 1
        in_lik[i] = in_lik[i] or name in LIKELIHOOD_SPANS
        in_trace[i] = in_trace[i] or name == TRACE_SPAN
    out = {}
    for name in sorted(calls):
        if name == TAPE_WALK:
            continue
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    rhs = calls[TRACE_SPAN]
    steps = under["optim.Adam.step"]
    out.update({
        "trace.tape_walk.self_s": (self_s[TAPE_WALK], "s"),
        "tensor.tape_nodes": (tracer.tape_nodes, "count"),
        "tensor.tape_mib": (tracer.tape_bytes / MIB, "MiB"),
        "model.nfe": (calls["model.GenerativeModel.velocity"], "count"),
        "model.nfe_jvp": (calls["model.GenerativeModel.velocity_jvp"], "count"),
        "likelihood.jvp_per_rhs": (under["jvp_in_trace"] / rhs if rhs else 0.0, "sweeps/rhs"),
        "likelihood.redundant_forward_ratio":
            (under["velocity_in_likelihood"] / rhs if rhs else 0.0, "calls/rhs"),
        "critic.q_evals_per_step":
            (under["critic.Critic.q_values"] / steps if steps else 0.0, "evals/step"),
        "data.nearest_tmp_mib": (tracer.nearest_bytes / MIB, "MiB"),
    })
    return out
