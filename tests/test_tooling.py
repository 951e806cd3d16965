"""The benchmark wraps program names by attribute lookup and checks outputs
against its own reference computations; a renamed or deleted name, or a
kernel that drifts from a reference, must fail here rather than in a
benchmark run."""

import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from genpolicy.data import assign_value_nearest, make_tilted_gaussian_bandit

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for owner, attr, name in tracing.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert not missing


@pytest.mark.parametrize("script", ["run_bandit.py", "run_swiss_roll.py"])
def test_package_and_experiment_scripts_import(script):
    # the scripts run their experiment only under ``__main__``, so importing
    # them resolves every genpolicy name they use and runs nothing
    importlib.import_module("genpolicy")
    path = TRACING.parents[1] / "scripts" / script
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", TRACING.parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_tiny_chain_enters_every_traced_span(tmp_path):
    # A refactor that routes around a wrapped name (Mlp.forward_jvp,
    # GenerativeModel.velocity, ...) would silently drop its per-layer metric.
    from genpolicy import cli
    tracing, workloads = _load("tracing"), _load("workloads")
    policy = {"lr": 1e-3, "k_candidates": 2, "t_train": 3, "gmpg_scheme": "midpoint",
              "trace": "exact", "objective": "cfm", "beta": 1.0, "batch_size": 16,
              "gmpg_batch_size": 8, "gmpg_lr": 1e-3}
    wl = workloads.Workload(
        name="tiny",
        config={"task": {"kind": "tilted_bandit", "dims": 2, "beta_target": 1.0, "n": 256},
                "model": {"hidden": "8,8", "t_emb_width": 4},
                "critic": {"hidden": "8,8", "lr": 1e-3, "batch_size": 32},
                "policy": policy, "solver": {"scheme": "euler", "steps": 3},
                "output": {"metric_every": 1000}},
        work={"train-critic": 4, "pretrain": 4, "train-gmpo.exp_clamp": 3,
              "train-gmpo.softmax": 2, "train-gmpg.dynamic": 2, "train-gmpg.static": 2,
              "sample": 16, "logprob": 8, "eval": 16},
        extra={}, checks=())
    ini = str(tmp_path / "tiny.ini")
    workloads.write_config(wl, 3, ini)
    dirs = workloads.stage_dirs(str(tmp_path))
    tracer = tracing.Tracer()
    with tracer.installed():
        for label in workloads.STAGES:
            with tracer.span(f"cli.{label}"):
                assert cli.main(workloads.stage_argv(wl, label, ini, dirs)) == 0, label
    entered = {name for name, *_ in tracer.spans}
    assert [name for _, _, name in tracing.TARGETS if name not in entered] == []
    # one Q forward per IQL step, and no V(s') on the all-terminal bandit
    in_iql = [name for name, _, _, parent, _ in tracer.spans
              if parent >= 0 and tracer.spans[parent][0] == "critic.iql_step"]
    assert in_iql.count("critic.Critic.q_tensor") == wl.work["train-critic"]
    assert in_iql.count("critic.Critic.v_values") == 0
    metrics = tracing.layer_metrics(tracer)
    assert metrics["critic.q_evals_per_step"][0] == 1.0
    assert metrics["likelihood.jvp_per_rhs"][0] == 1.0
    # no forward pass besides the JVP call, except midpoint's first stage,
    # whose trace nothing reads: one velocity alone per traced (second) stage
    forwards, traced = Counter(), Counter()
    for i, (name, *_) in enumerate(tracer.spans):
        chain = []
        while i >= 0:
            chain.append(tracer.spans[i][0])
            i = tracer.spans[i][3]
        if name == "model.GenerativeModel.velocity" and tracing.TRACE_SPAN not in chain and any(
                n in tracing.LIKELIHOOD_SPANS for n in chain):
            forwards[chain[-1]] += 1
        traced[chain[-1]] += name == tracing.TRACE_SPAN
    assert forwards == {s: traced[s] for s in ("cli.train-gmpg.dynamic", "cli.train-gmpg.static")}
    assert traced["cli.logprob"] > 0


def test_eval_value_matches_the_benchmark_reference(monkeypatch):
    # the benchmark checks eval mean_value against its own nearest search to
    # 1e-12 (gmpg-bandit sizes: 2048 points, 4096 dataset actions, d = 2)
    monkeypatch.setitem(sys.modules, "workloads", _load("workloads"))  # verify imports it by name
    verify = _load("verify")
    ds, _ = make_tilted_gaussian_bandit(2, 1.0, 4096, seed=5)
    pts = np.random.default_rng(6).standard_normal((2048, 2)) + 1.0
    want = verify.nearest_mean_value(pts, ds.a, ds.r)
    got = float(assign_value_nearest(ds, pts).mean())
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


def test_compare_outputs_reports_each_stage_file(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", TRACING.parents[1] / "scripts" / "compare_outputs.py")
    compare_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_outputs)

    def result(name, sample, passes=1, **extra):
        digests = {"sample": {"samples.csv": sample, "resolved.ini": name}, **extra}
        path = tmp_path / f"result-{name}.json"
        path.write_text(json.dumps({"passes": [{"digests": digests}] * passes}))
        return str(path)

    a = result("a", "s0", passes=2, eval={"eval.csv": "e0"})
    assert compare_outputs.main([a, result("b", "s0", eval={"eval.csv": "e0"})]) == 0
    assert compare_outputs.compare(compare_outputs.stage_digests(a),
                                   compare_outputs.stage_digests(result("c", "s1"))) == [
        ("sample", "samples.csv", "differs"), ("eval", "eval.csv", "only in A")]
    assert compare_outputs.main([a, result("c", "s1")]) == 1
