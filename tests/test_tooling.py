"""The benchmark wraps program names by attribute lookup and checks outputs
against its own reference computations; a renamed or deleted name, or a
kernel that drifts from a reference, must fail here rather than in a
benchmark run. Likewise the experiment configs and their runner must fail
here, at a tiny size, rather than minutes into a full-size run."""

import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from genpolicy.data import OfflineDataset, assign_value_nearest, make_tilted_gaussian_bandit

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for owner, attr, name in tracing.TARGETS
               if not callable(getattr(owner, attr, None))]
    assert not missing


def test_package_imports():
    importlib.import_module("genpolicy")


EXPERIMENTS = sorted((TRACING.parents[1] / "scripts" / "experiments").glob("*.ini"))
RUNNER = TRACING.parents[1] / "scripts" / "run_experiment.py"
# Every file a stage of the runner documents, besides resolved.ini.
RUNNER_FILES = {
    "make-data": ["dataset.gpds"], "train-critic": ["critic.ckpt", "metrics.csv"],
    "pretrain": ["behavior.ckpt", "metrics.csv"], "train-gmpo": ["policy.ckpt", "metrics.csv"],
    "train-gmpg": ["policy.ckpt", "metrics.csv"],
    **{f"eval.{name}": ["eval.csv"] for name in ("behavior", "gmpo", "gmpg")},
    **{f"export-trajectories.{name}": ["trajectories.csv"] for name in ("gmpo", "gmpg")},
}
TINY_EXPERIMENT = ["task.n=256", "model.hidden=8,8", "model.t_emb_width=4", "critic.hidden=8,8",
                   "critic.steps=20", "policy.steps=20", "policy.batch_size=32",
                   "policy.gmpg_steps=2", "policy.gmpg_batch_size=16", "policy.t_train=4",
                   "solver.steps=4", "output.metric_every=10"]


def readme_cli_commands(text: str) -> list[list[str]]:
    """The argv of every ``genpolicy ...`` command in ``text``'s bash
    blocks, with backslash-continued lines joined."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("genpolicy "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_cli_commands_parse():
    # a flag the CLI dropped or renamed, left in the docs, fails here
    from genpolicy import cli
    commands = readme_cli_commands((TRACING.parents[1] / "README.md").read_text(encoding="utf-8"))
    assert len(commands) >= 9
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the README's `genpolicy {shlex.join(argv)}` does not parse")


# A backticked dotted name: module.attr, Class.method, section.key (with an
# optional =value), section.*, or a file name; a trailing () is allowed.
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.(?:[A-Za-z_]\w*|\*))+(?:\(\))?(?:=\S*)?")


def readme_dotted_names(text: str) -> list[str]:
    """Every distinct backticked dotted name in ``text``, sorted."""
    return sorted({span for span in re.findall(r"`([^`\n]+)`", text) if DOTTED.fullmatch(span)})


def written_files() -> set[str]:
    """Every file or directory name a stage or the experiment runner
    writes: the file-name literals of ``cli.py`` and the runner's labels."""
    cli_py = TRACING.parents[1] / "src" / "genpolicy" / "cli.py"
    tree = ast.parse(cli_py.read_text(encoding="utf-8"))
    literals = {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and re.fullmatch(r"[\w-]+\.[a-z]{3,}", node.value)}
    return literals | set(RUNNER_FILES)


def resolves(name: str, modules: dict, files: set[str]) -> bool:
    """Whether ``name`` is an INI key of ``ExperimentConfig`` (or a whole
    section, ``section.*``), a repository or stage-written file, or an
    attribute path from a ``genpolicy`` module, one of its module
    attributes (a class), or an importable module."""
    from genpolicy.config import ExperimentConfig
    name = re.sub(r"(\(\)|=\S*)$", "", name)
    head, _, key = name.partition(".")
    section = getattr(ExperimentConfig(), head, None)
    if section is not None and key in {"*", *(f.name for f in dataclasses.fields(section))}:
        return True
    if name in files:
        return True
    parts = name.split(".")
    owners = [modules[head]] if head in modules else []
    owners += [getattr(m, head) for m in modules.values() if hasattr(m, head)]
    external = {"np": "numpy"}.get(head, head)
    if not owners and importlib.util.find_spec(external) is not None:
        owners.append(importlib.import_module(external))
    for obj in owners:
        for attr in parts[1:]:
            obj = getattr(obj, attr, None)
        if obj is not None:
            return True
    return False


def test_readme_dotted_names_resolve():
    # a renamed or deleted function, key or file, left in the docs, fails here
    import genpolicy
    modules = {"genpolicy": genpolicy}
    modules.update({info.name: importlib.import_module(f"genpolicy.{info.name}")
                    for info in pkgutil.iter_modules(genpolicy.__path__)})
    root = TRACING.parents[1]
    files = written_files() | {p.name for p in root.iterdir() if p.is_file()}
    files |= {p.name for d in ("src", "tests", "scripts", "perfbench")
              for p in (root / d).rglob("*") if p.is_file() and "out" not in p.relative_to(root).parts}
    names = readme_dotted_names((root / "README.md").read_text(encoding="utf-8"))
    assert len(names) >= 50
    assert [name for name in names if not resolves(name, modules, files)] == []


@pytest.mark.parametrize("ini", EXPERIMENTS, ids=lambda p: p.name)
def test_experiment_config_passes_the_cli_checks(ini):
    # a renamed or removed key fails here instead of minutes into a run
    from genpolicy import cli
    from genpolicy.config import load_config
    cli._check_config(load_config(str(ini)))


@pytest.mark.parametrize("name", ["bandit.ini", "swiss_roll.ini"])
def test_run_experiment_runs_every_stage(tmp_path, name):
    ini = RUNNER.parent / "experiments" / name
    settings = [arg for kv in TINY_EXPERIMENT for arg in ("--set", kv)]
    proc = subprocess.run([sys.executable, str(RUNNER), str(ini), "--out", str(tmp_path), *settings],
                          capture_output=True, text=True,
                          env={**os.environ, "OMP_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(tmp_path)) == sorted(RUNNER_FILES)
    for label, files in RUNNER_FILES.items():
        assert sorted(os.listdir(tmp_path / label)) == sorted(files + ["resolved.ini"]), label
    for policy in ("behavior", "gmpo", "gmpg"):
        with open(tmp_path / f"eval.{policy}" / "eval.csv", encoding="utf-8") as fh:
            header, row = fh.read().splitlines()
        assert header.endswith(",mean_value,mean_distance")
        assert float(row.split(",")[-1]) >= 0.0


def test_run_experiment_stops_at_the_first_failing_stage(tmp_path):
    # train-gmpg refuses a tape beyond physical memory (exit 2) after the
    # stages before it have run; nothing after it runs
    spec = importlib.util.spec_from_file_location("run_experiment", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    settings = [arg for kv in TINY_EXPERIMENT + ["policy.t_train=1000000000"]
                for arg in ("--set", kv)]
    ini = RUNNER.parent / "experiments" / "bandit.ini"
    assert runner.main([str(ini), "--out", str(tmp_path), *settings]) == 2
    assert sorted(os.listdir(tmp_path)) == ["make-data", "pretrain", "train-critic", "train-gmpo"]


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
    # exp-clamp GMPO scores the 256 rows once, in blocks of 16, over its 3 steps
    assert metrics["critic.q_evals_per_step"][0] == 16 / 3
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


def _matches_the_benchmark_reference(monkeypatch, ds, pts):
    monkeypatch.setitem(sys.modules, "workloads", _load("workloads"))  # verify imports it by name
    verify = _load("verify")
    want = verify.nearest_mean_value(pts, ds.a, ds.r)
    got = float(assign_value_nearest(ds, pts)[0].mean())
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


def test_eval_value_matches_the_benchmark_reference(monkeypatch):
    # the benchmark checks eval mean_value against its own nearest search to
    # 1e-12 (gmpg-bandit sizes: 2048 points, 4096 dataset actions, d = 2)
    ds, _ = make_tilted_gaussian_bandit(2, 1.0, 4096, seed=5)
    pts = np.random.default_rng(6).standard_normal((2048, 2)) + 1.0
    _matches_the_benchmark_reference(monkeypatch, ds, pts)


def test_eval_value_matches_the_benchmark_reference_on_an_integer_grid(monkeypatch):
    # the same sizes on integer-grid actions and half-integer points, where
    # a distance tie decides most indices; the rewards are drawn apart from
    # the actions, so a tie broken the other way moves the value
    ds, _ = make_tilted_gaussian_bandit(2, 1.0, 4096, seed=5)
    rng = np.random.default_rng(6)
    ds = OfflineDataset(s=ds.s, a=np.round(2.0 * ds.a), r=rng.standard_normal(ds.n),
                        s2=ds.s2, done=ds.done)
    pts = np.round(4.0 * (rng.standard_normal((2048, 2)) + 1.0)) / 2.0
    d2 = ((pts[:128, None, :] - ds.a[None, :, :]) ** 2).sum(axis=2)
    firsts, lasts = d2.argmin(axis=1), ds.n - 1 - d2[:, ::-1].argmin(axis=1)
    assert (ds.r[firsts] != ds.r[lasts]).mean() > 0.5
    _matches_the_benchmark_reference(monkeypatch, ds, pts)


def test_compare_outputs_reports_each_stage_file(tmp_path, capsys):
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
    failed = tmp_path / "result-failed.json"  # a run whose stages failed records no digest
    failed.write_text(json.dumps({"passes": [{"digests": {}}] * 2}))
    capsys.readouterr()
    assert compare_outputs.main([str(failed), str(failed)]) == 1
    assert capsys.readouterr().out == "no file was compared: neither result records a digest\n"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", TRACING.parents[1] / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_gmpg_grid_runs_at_a_tiny_size():
    # the committed grid measurement: rk4_38 at T=8 errs less than euler at
    # T=32 (3.8e-4 against 4.0e-2 at the script's own size)
    spec = importlib.util.spec_from_file_location(
        "gmpg_grid", TRACING.parents[1] / "scripts" / "gmpg_grid.py")
    grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(grid)
    rows = grid.measure(batch=4, hidden=(8, 8), d=2, grids=(("euler", 32), ("rk4_38", 8)),
                        probe_seeds=(72, 73), repeats=1)
    by = {(r["scheme"], r["trace"]): r for r in rows}
    assert len(rows) == 4 and [len(r["errors"]) for r in rows] == [1, 2, 1, 2]
    assert by["rk4_38", "exact"]["errors"][0] < by["euler", "exact"]["errors"][0]
    assert all(r["ms"] > 0 and np.isfinite(r["errors"]).all() for r in rows)
    # one probe carries one tangent block instead of d, on the same nodes
    assert all(by[s, "exact"]["nodes"] == by[s, "hutchinson 1"]["nodes"] > 0
               for s in ("euler", "rk4_38"))
    assert "rk4_38 T=8" in grid.format_table(rows)


def test_bench_pairs_verdicts_on_canned_numbers():
    verdict = _bench_pairs().verdict
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]  # IQR 0.175
    change = [p + (0.5 if i else -0.1) for i, p in enumerate(parent)]  # median 10.5
    v = verdict(parent, change, "higher", 0.25)
    assert v["wins"] == 9 and v["pairs"] == 10 and v["gain"] and v["bound"] == "ok"
    assert np.allclose(v["parent"], (9.925, 10.0, 10.1)) and v["change"][1] == pytest.approx(10.5)
    two_lost = [p + (0.5 if i > 1 else -0.1) for i, p in enumerate(parent)]
    assert not verdict(parent, two_lost, "higher", 0.25)["gain"]  # 8 of 10 pairs won
    # the same numbers where lower is better: within a 25% bound, past a 3% one
    # (the change's IQR 0.275 is below it), unresolved at 1% (both IQRs exceed it)
    worse = [verdict(parent, change, "lower", bound) for bound in (0.25, 0.03, 0.01)]
    assert [v["bound"] for v in worse] == ["ok", "REGRESSED", "unresolved"]
    assert worse[0]["wins"] == 1 and not worse[0]["gain"]
    # every pair won but the median gap (1) is inside the parent's IQR (6): no gain
    wide = [1.0, 5.0, 9.0, 2.0, 8.0]
    v = verdict(wide, [x + 1 for x in wide], "higher", 0.25)
    assert v["wins"] == 5 and not v["gain"] and v["bound"] == "unresolved"
    # a spread wider than the bound still resolves when every change run beats every parent run
    v = verdict(wide, [10.0, 11.0, 12.0, 13.0, 14.0], "higher", 0.25)
    assert v["gain"] and v["bound"] == "ok"
    with pytest.raises(ValueError):
        verdict(wide, wide[:4], "higher", 0.25)


def test_bench_pairs_report_reads_the_result_files(tmp_path, capsys):
    bench_pairs = _bench_pairs()
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": [
        {"name": "steps_per_s", "better": "higher", "bound": 0.1},
        {"name": "peak_rss_mib", "better": "lower", "bound": 0.1}]}))
    for i, (p, c) in enumerate([(10.0, 8.0), (10.0, 8.1), (10.0, 7.9)]):
        for side, rate in (("parent", p), ("change", c)):
            metrics = {"steps_per_s": {"value": rate}, "peak_rss_mib": {"value": 50.0}}
            # an untimed first pass (left out), then two timed ones: the change's
            # stage runs 1.25x the parent's raw time, its calibration 0.9x
            scale, cal = (1.0, 0.030) if side == "parent" else (1.25, 0.027)
            passes = [{"stage_s": {"train": 99.0}, "calib_s": [9.0, 9.0]}] + [
                {"stage_s": {"train": scale * (0.2 + 0.01 * (i + j))}, "calib_s": [cal, cal]}
                for j in range(2)]
            (tmp_path / f"w-pair{i:02d}-{side}.json").write_text(
                json.dumps({"metrics": metrics, "passes": passes}))
    # pair 3 has no parent run: skipped
    (tmp_path / "w-pair03-change.json").write_text(json.dumps({"metrics": metrics}))
    (tmp_path / "w-pair04-parent.failed").write_text("")
    assert bench_pairs.report(str(tmp_path), str(benchmark)) == 1
    out = capsys.readouterr().out
    assert "w: 3 complete pairs" in out and "FAILED run: w-pair04-parent.failed" in out
    assert re.search(r"steps_per_s .* 0/3 +no +REGRESSED", out)
    assert re.search(r"peak_rss_mib .* 0/3 +no +ok", out)
    # six timed passes per side: raw medians 0.215 and 0.26875 s, calibration 0.030 and 0.027 s
    assert re.search(r"train +0\.215 +0\.26875 +1\.2500", out)
    assert re.search(r"calib_s +0\.03 +0\.027 +0\.9000", out)
