import json
import os
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genpolicy import cli
from genpolicy.checkpoint import (_read, _write, copy_policy, load_critic, load_policy, save_critic,
                                  save_policy)
from genpolicy.config import ExperimentConfig, dump_config, load_config
from genpolicy.critic import Critic, CriticConfig
from genpolicy.data import (OfflineDataset, assign_value_nearest, csv_lines,
                            make_tilted_gaussian_bandit, save_dataset, write_csv)
from genpolicy.errors import ConfigError, DataFormatError
from genpolicy.likelihood import TraceMode
from genpolicy.policy import (GenerativePolicy, GmpgConfig, GmpoConfig, PolicyConfig,
                             gmpg_reverse_bytes, gmpg_tape_bytes)
from genpolicy.sampler import SolverSpec
from genpolicy.schedules import PathSchedule
from genpolicy.tensor import Tensor

ENV = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


_DEFAULTS = ExperimentConfig()
FLOAT_KEYS = [f"{section.name}.{key}" for section in fields(_DEFAULTS)
              for key, value in asdict(getattr(_DEFAULTS, section.name)).items()
              if isinstance(value, float)]


# every key but output.dir, and values that are hostile to one type or another
HOSTILE_KEYS = [key for key in (f"{section.name}.{name}" for section in fields(_DEFAULTS)
                                 for name in asdict(getattr(_DEFAULTS, section.name)))
                if key != "output.dir"]
HOSTILE_VALUES = ["0", "-1", "1e308", "nan", "inf", "", "abc", "1,0"]


def run_cli(*argv, check=True):
    proc = subprocess.run([sys.executable, "-m", "genpolicy.cli", *argv],
                          capture_output=True, text=True, env=ENV)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}):\n{proc.stderr}\n{proc.stdout}")
    return proc


TINY = [
    "task.n=512", "task.seed=3",
    "model.hidden=16,16", "model.t_emb_width=8",
    "critic.hidden=16,16", "critic.steps=80", "critic.batch_size=64", "critic.lr=1e-3",
    "policy.steps=60", "policy.batch_size=32", "policy.lr=1e-3",
    "policy.gmpg_steps=4", "policy.gmpg_batch_size=16", "policy.t_train=8",
    "solver.steps=8", "output.metric_every=20",
]


def tiny_args(out, extra=()):
    args = []
    for kv in TINY + list(extra) + [f"output.dir={out}"]:
        args += ["--set", kv]
    return args


class TestConfig:
    def test_defaults_and_overrides(self):
        cfg = load_config(None, ["policy.beta=2.5", "task.kind=swiss_roll"])
        assert cfg.policy.beta == 2.5
        assert cfg.task.kind == "swiss_roll"
        assert cfg.critic.tau == 0.7
        assert cfg.critic.gamma == 0.99
        assert cfg.policy.t_train == 1000
        assert cfg.solver.steps == 32
        assert cfg.policy.lr == 1e-4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["policy.bogus=1"])
        with pytest.raises(ConfigError):  # the stage, not a key, picks the extraction scheme
            load_config(None, ["policy.scheme=gmpg"])
        with pytest.raises(ConfigError):
            load_config(None, ["nosection.key=1"])
        with pytest.raises(ConfigError):
            load_config(None, ["malformed"])

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.ini")

    def test_config_defaults_are_the_library_defaults(self):
        # one default per setting: a default changed on one side only fails here
        cfg = ExperimentConfig()
        assert cli._gmpo_config(cfg) == GmpoConfig()
        assert cli._gmpg_config(cfg) == GmpgConfig()
        assert cli._schedule(cfg) == PathSchedule()
        assert cli._trace_mode(cfg) == TraceMode()
        policy = PolicyConfig()
        shared = [f.name for f in fields(cfg.model) if f.name != "schedule" and hasattr(policy, f.name)]
        assert shared == ["parameterization", "hidden", "t_emb_width", "t_emb_scale"]
        assert all(getattr(cfg.model, name) == getattr(policy, name) for name in shared)
        assert (cfg.critic, cfg.solver) == (CriticConfig(), policy.eval_solver)

    @pytest.mark.parametrize("text", ["beta = 1\n", "[output]\ndir = x%y\n",
                                      "[task]\nn = 1\nn = 2\n"],
                             ids=["no-section", "stray-percent", "duplicate-key"])
    def test_unreadable_ini_file_is_a_config_error(self, tmp_path, text):
        p = tmp_path / "c.ini"
        p.write_text(text)
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(p))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(HOSTILE_KEYS), st.sampled_from(HOSTILE_VALUES)),
                    min_size=1, max_size=3))
    def test_hostile_values_resolve_or_raise_config_error(self, pairs):
        # any other exception would reach the user as a traceback; a config
        # that resolves echoes to a resolved.ini that loads and echoes again
        # byte for byte
        overrides = [f"{key}={value}" for key, value in pairs] + ["output.dir=a%b"]
        try:
            cfg = load_config(None, overrides)
            cli._check_config(cfg)
        except ConfigError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "first.ini"), os.path.join(tmp, "second.ini")
            dump_config(cfg, first)
            dump_config(load_config(first), second)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()

    def test_ini_file_parsed(self, tmp_path):
        p = tmp_path / "c.ini"
        p.write_text("[policy]\nbeta = 4.0\n[task]\nkind = swiss_roll\nnoise = 0.3\n")
        cfg = load_config(str(p))
        assert cfg.policy.beta == 4.0
        assert cfg.task.noise == 0.3


class TestCheckpoints:
    def test_policy_round_trip(self, tmp_path):
        cfg = PolicyConfig(state_dim=1, action_dim=2, hidden=(8, 8),
                           schedule=PathSchedule("vpsde"), eval_solver=SolverSpec("midpoint", 7))
        pol = GenerativePolicy(cfg, np.random.default_rng(5),
                               action_mean=np.array([0.3, -0.1]), action_std=np.array([2.0, 0.5]))
        path = str(tmp_path / "p.ckpt")
        save_policy(pol, path)
        back = load_policy(path)
        states = np.zeros((4, 1))
        a1 = pol.sample_actions(states, np.random.default_rng(0))
        a2 = back.sample_actions(states, np.random.default_rng(0))
        assert np.array_equal(a1, a2)
        assert back.config.eval_solver == SolverSpec("midpoint", 7)
        assert back.config.schedule.kind == "vpsde"

    def test_critic_round_trip(self, tmp_path):
        critic = Critic(2, 1, CriticConfig(hidden=(8, 8)), np.random.default_rng(1))
        path = str(tmp_path / "c.ckpt")
        save_critic(critic, path)
        back = load_critic(path)
        s, a = np.ones((3, 2)), np.zeros((3, 1))
        assert np.array_equal(critic.q_values(s, a), back.q_values(s, a))
        assert np.array_equal(critic.v_values(s), back.v_values(s))

    def test_loaded_arrays_are_writable_and_each_load_its_own(self, tmp_path):
        critic = Critic(2, 1, CriticConfig(hidden=(8,)), np.random.default_rng(2))
        path = str(tmp_path / "c.ckpt")
        save_critic(critic, path)
        first, second = load_critic(path), load_critic(path)
        for p, q, orig in zip(first.parameters(), second.parameters(), critic.parameters()):
            assert p.data.flags.writeable and p.data.flags.aligned
            p.data[...] = 7.0
            assert q.data.tobytes() == orig.data.tobytes()

    def test_copy_policy_is_independent(self, tmp_path):
        cfg = PolicyConfig(state_dim=1, action_dim=2, hidden=(8, 8),
                           schedule=PathSchedule("icfm"), eval_solver=SolverSpec("rk4_38", 5))
        pol = GenerativePolicy(cfg, np.random.default_rng(6),
                               action_mean=np.array([0.3, -0.1]), action_std=np.array([2.0, 0.5]))
        states = np.linspace(-1.0, 1.0, 6).reshape(6, 1)
        x = Tensor(np.random.default_rng(7).standard_normal((6, 2)))
        before = pol.sample_actions(states, np.random.default_rng(0))
        saved = tmp_path / "orig.ckpt"
        save_policy(pol, str(saved))

        twin = copy_policy(pol)
        assert twin.model.net(x, 0.3, states).data.tobytes() == \
            pol.model.net(x, 0.3, states).data.tobytes()
        assert np.array_equal(twin.sample_actions(states, np.random.default_rng(0)), before)
        save_policy(twin, str(tmp_path / "copy.ckpt"))
        assert (tmp_path / "copy.ckpt").read_bytes() == saved.read_bytes()
        assert all(p.requires_grad for p in twin.parameters())

        def shift_weights(p):
            p.model.net.mlp.weights[0].data += 1.0

        def shift_freqs(p):
            p.model.net.t_emb.freqs += 1.0

        def shift_normalizer(p):
            p.action_mean += 1.0
            p.action_std *= 2.0

        for change in (shift_weights, shift_freqs, shift_normalizer):
            twin = copy_policy(pol)
            change(twin)  # in place, so shared arrays would show up in pol
            assert not np.array_equal(twin.sample_actions(states, np.random.default_rng(0)),
                                      before)
            assert np.array_equal(pol.sample_actions(states, np.random.default_rng(0)), before)
            save_policy(pol, str(tmp_path / "again.ckpt"))
            assert (tmp_path / "again.ckpt").read_bytes() == saved.read_bytes()

    def test_headers_are_pinned(self, tmp_path):
        # format v1: files written before these headers changed must still load
        pol_path, critic_path = str(tmp_path / "p.ckpt"), str(tmp_path / "c.ckpt")
        cfg = PolicyConfig(state_dim=1, action_dim=2, hidden=(8,), t_emb_width=4,
                           schedule=PathSchedule("vpsde"), eval_solver=SolverSpec("midpoint", 7))
        save_policy(GenerativePolicy(cfg, np.random.default_rng(0)), pol_path)
        save_critic(Critic(2, 1, CriticConfig(hidden=(4,)), np.random.default_rng(0)), critic_path)
        assert _read(pol_path, "policy")[0] == {
            "kind": "policy",
            "config": {"state_dim": 1, "action_dim": 2, "hidden": [8], "t_emb_width": 4,
                       "t_emb_scale": 1.0, "activation": "tanh", "parameterization": "velocity",
                       "schedule": {"kind": "vpsde", "beta_min": 0.1, "beta_max": 20.0,
                                    "path_sigma": 0.0, "t_clip": 0.001},
                       "eval_solver": {"scheme": "midpoint", "steps": 7}},
            "arrays": [{"name": "t_emb.freqs", "shape": [2]}, {"name": "action_mean", "shape": [2]},
                       {"name": "action_std", "shape": [2]}, {"name": "net.w0", "shape": [7, 8]},
                       {"name": "net.b0", "shape": [8]}, {"name": "net.w1", "shape": [8, 2]},
                       {"name": "net.b1", "shape": [2]}]}
        assert _read(critic_path, "critic")[0] == {
            "kind": "critic",
            "config": {"state_dim": 2, "action_dim": 1, "tau": 0.7, "gamma": 0.99, "lr": 0.0001,
                       "hidden": [4], "steps": 20000, "batch_size": 256},
            "arrays": [{"name": "q.w0", "shape": [3, 4]}, {"name": "q.b0", "shape": [4]},
                       {"name": "q.w1", "shape": [4, 1]}, {"name": "q.b1", "shape": [1]},
                       {"name": "v.w0", "shape": [2, 4]}, {"name": "v.b0", "shape": [4]},
                       {"name": "v.w1", "shape": [4, 1]}, {"name": "v.b1", "shape": [1]}]}

    def test_kind_mismatch_rejected(self, tmp_path):
        critic = Critic(1, 1, CriticConfig(hidden=(4,)), np.random.default_rng(0))
        path = str(tmp_path / "c.ckpt")
        save_critic(critic, path)
        from genpolicy.errors import DataFormatError
        with pytest.raises(DataFormatError):
            load_policy(path)

    @pytest.mark.parametrize("kind, key", [
        ("policy", "t_emb_scale"), ("policy", "schedule.t_clip"), ("policy", "eval_solver.steps"),
        ("critic", "tau")])
    def test_header_config_missing_a_field_rejected(self, tmp_path, kind, key):
        # a header config must name every field, so that none falls back to a default
        path = str(tmp_path / "m.ckpt")
        if kind == "policy":
            save_policy(GenerativePolicy(PolicyConfig(hidden=(4,)), np.random.default_rng(0)), path)
        else:
            save_critic(Critic(1, 1, CriticConfig(hidden=(4,)), np.random.default_rng(0)), path)
        header, arrays = _read(path, kind)
        *parents, name = key.split(".")
        config = header["config"]
        for parent in parents:
            config = config[parent]
        del config[name]
        _write(path, header, list(arrays.items()))
        with pytest.raises(DataFormatError, match=f"keys .*expected .*'{name}'"):
            (load_policy if kind == "policy" else load_critic)(path)

    @pytest.mark.parametrize("kind, name", [("policy", "net.w1"), ("policy", "t_emb.freqs"),
                                            ("policy", "action_mean"), ("critic", "v.b0")])
    def test_misshapen_array_rejected(self, tmp_path, kind, name):
        # the header's architecture fixes every array's shape
        path = str(tmp_path / "m.ckpt")
        if kind == "policy":
            save_policy(GenerativePolicy(PolicyConfig(hidden=(4,)), np.random.default_rng(0)), path)
        else:
            save_critic(Critic(1, 1, CriticConfig(hidden=(4,)), np.random.default_rng(0)), path)
        header, arrays = _read(path, kind)
        arrays[name] = np.zeros(arrays[name].size + 1)
        _write(path, header, list(arrays.items()))
        with pytest.raises(DataFormatError, match="shape"):
            (load_policy if kind == "policy" else load_critic)(path)

    def test_critic_bytes_follow_the_documented_layout(self, tmp_path):
        # magic, u32 version 1, u64 header length, sorted-key JSON header,
        # then every array as little-endian float64 in C order
        critic = Critic(1, 1, CriticConfig(hidden=(2,)), np.random.default_rng(0))
        path = tmp_path / "c.ckpt"
        save_critic(critic, str(path))
        params = [("q", critic.q_net), ("v", critic.v_net)]
        arrays = [(f"{prefix}.{kind}{i}", p.data) for prefix, net in params
                  for i, (w, b) in enumerate(zip(net.weights, net.biases))
                  for kind, p in (("w", w), ("b", b))]
        header = json.dumps({
            "kind": "critic",
            "config": {"state_dim": 1, "action_dim": 1, "tau": 0.7, "gamma": 0.99, "lr": 0.0001,
                       "hidden": [2], "steps": 20000, "batch_size": 256},
            "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays],
        }, sort_keys=True).encode("utf-8")
        blobs = b"".join(struct.pack(f"<{a.size}d", *a.ravel().tolist()) for _, a in arrays)
        assert path.read_bytes() == b"GPCK" + struct.pack("<IQ", 1, len(header)) + header + blobs


def _garbled(blob: bytes, pos: int, xor: int) -> bytes:
    """``blob`` cut to ``pos % len`` bytes (xor 0), or with that byte xor-ed."""
    i = pos % len(blob)
    if xor == 0:
        return blob[:i]
    return blob[:i] + bytes([blob[i] ^ xor]) + blob[i + 1:]


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["policy", "critic"]), pos=st.integers(0, 1 << 20),
       xor=st.integers(0, 255))
def test_garbled_checkpoint_loads_or_raises_format_error(kind, pos, xor):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "x.ckpt")
        if kind == "policy":
            save_policy(GenerativePolicy(PolicyConfig(state_dim=1, action_dim=2, hidden=(4,),
                                                      t_emb_width=4), np.random.default_rng(0)), path)
        else:
            save_critic(Critic(1, 2, CriticConfig(hidden=(4,)), np.random.default_rng(0)), path)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(_garbled(blob, pos, xor))
        try:
            (load_policy if kind == "policy" else load_critic)(path)
        except DataFormatError:
            pass


def _reference_line(values) -> str:
    # the CSV value rules: %.17g for a float, "" for None, str for the rest
    def fmt(v):
        if isinstance(v, float):
            return f"{v:.17g}"
        return "" if v is None else str(v)
    return ",".join(fmt(v) for v in values) + "\n"


class TestCsvFormat:
    EDGES = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, -2.5e-7, 1e16]
    VALUES = [0, 7, np.int64(-3), *EDGES, *np.array(EDGES), None, "", "tag"]

    def test_values_are_pinned(self):
        assert "".join(csv_lines([[-0.0, 5e-324, 1.7976931348623157e308, np.float64(0.1), 3,
                                        np.int64(-3), None, "x"]])) == (
            "-0,4.9406564584124654e-324,1.7976931348623157e+308,0.10000000000000001,3,-3,,x\n")

    def test_write_csv_and_metrics_rows_follow_the_rules(self, tmp_path):
        rng = np.random.default_rng(20)
        table = np.concatenate([rng.standard_normal((5, 3)) * 10.0 ** rng.integers(-300, 300, (5, 3)),
                                [self.EDGES[:3]]])
        rows = [self.VALUES, self.VALUES[::-1], *([i, *r] for i, r in enumerate(table)),
                *([i, *r] for i, r in enumerate(table.tolist()))]
        path = tmp_path / "table.csv"
        write_csv(str(path), ["a", "b"], rows)
        assert path.read_bytes() == ("# a,b\n" + "".join(map(_reference_line, rows))).encode()
        columns = [f"c{i}" for i in range(len(self.VALUES))] + ["missing"]
        with cli.MetricsWriter(str(tmp_path / "metrics.csv"), columns) as writer:
            writer.row(dict(zip(columns, self.VALUES)))
            writer.row({"c1": 2.0})
        expected = ("# " + _reference_line(columns) + _reference_line(self.VALUES + [""])
                    + _reference_line(["", 2.0] + [""] * (len(columns) - 2)))
        assert (tmp_path / "metrics.csv").read_bytes() == expected.encode()

    def test_every_metrics_row_is_on_disk_at_once(self, tmp_path):
        path = tmp_path / "metrics.csv"
        with cli.MetricsWriter(str(path), ["step", "loss"]) as writer:
            for step in range(3):
                writer.row({"step": step, "loss": 0.5 * step})
                assert path.read_text().splitlines()[-1] == f"{step},{0.5 * step:.17g}"
        assert writer._fh.closed

    def test_metrics_file_closed_after_a_stage_that_exits_4(self, tmp_path, capsys, monkeypatch):
        # a divergence on the third step: the two rows before it are on disk
        # while the stage runs, and the stage closes the file on its way out
        import gc
        import warnings
        import genpolicy.critic as critic_mod
        from genpolicy.errors import NonFiniteError
        out, writers, seen = tmp_path / "o", [], []

        class Recorded(cli.MetricsWriter):
            def __init__(self, *args):
                super().__init__(*args)
                writers.append(self)

        def diverging(*args):
            seen.append(len((out / "metrics.csv").read_text().splitlines()))
            if len(seen) == 3:
                raise NonFiniteError("non-finite value produced by a test")
            return 1.0, 2.0

        monkeypatch.setattr(cli, "MetricsWriter", Recorded)
        monkeypatch.setattr(critic_mod, "iql_step", diverging)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["train-critic", *tiny_args(str(out))]) == 4
            gc.collect()
        assert "numeric divergence" in capsys.readouterr().err
        assert seen == [1, 2, 3]  # the header, then one more row per finished step
        assert len(writers) == 1 and writers[0]._fh.closed
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestPipeline:
    def test_full_stage_chain(self, tmp_path):
        data_dir = str(tmp_path / "data")
        run_cli("make-data", *tiny_args(data_dir))
        ds_path = os.path.join(data_dir, "dataset.gpds")
        assert os.path.exists(ds_path)
        assert os.path.exists(os.path.join(data_dir, "resolved.ini"))

        pre_dir = str(tmp_path / "pre")
        run_cli("pretrain", *tiny_args(pre_dir), "--dataset", ds_path)
        assert os.path.exists(os.path.join(pre_dir, "behavior.ckpt"))
        assert os.path.exists(os.path.join(pre_dir, "metrics.csv"))

        critic_dir = str(tmp_path / "critic")
        run_cli("train-critic", *tiny_args(critic_dir), "--dataset", ds_path)
        critic_path = os.path.join(critic_dir, "critic.ckpt")
        assert os.path.exists(critic_path)

        gmpo_dir = str(tmp_path / "gmpo")
        run_cli("train-gmpo", *tiny_args(gmpo_dir), "--dataset", ds_path,
                "--critic", critic_path)
        assert os.path.exists(os.path.join(gmpo_dir, "policy.ckpt"))

        gmpg_dir = str(tmp_path / "gmpg")
        run_cli("train-gmpg", *tiny_args(gmpg_dir), "--dataset", ds_path,
                "--critic", critic_path,
                "--behavior", os.path.join(pre_dir, "behavior.ckpt"))
        policy_path = os.path.join(gmpg_dir, "policy.ckpt")
        assert os.path.exists(policy_path)

        sample_dir = str(tmp_path / "samples")
        proc = run_cli("sample", *tiny_args(sample_dir), "--dataset", ds_path,
                       "--checkpoint", policy_path, "--n", "32")
        assert "mean=" in proc.stdout

        lp_dir = str(tmp_path / "logprob")
        run_cli("logprob", *tiny_args(lp_dir), "--dataset", ds_path,
                "--checkpoint", policy_path, "--n", "16")
        lines = open(os.path.join(lp_dir, "logprob.csv")).read().strip().splitlines()
        assert lines[0] == "# point_id,logp,stderr"
        assert len(lines) == 17

        eval_dir = str(tmp_path / "eval")
        proc = run_cli("eval", *tiny_args(eval_dir), "--dataset", ds_path,
                       "--checkpoint", policy_path, "--n", "64")
        assert "mean_value" in proc.stdout

        traj_dir = str(tmp_path / "traj")
        run_cli("export-trajectories", *tiny_args(traj_dir), "--dataset", ds_path,
                "--checkpoint", policy_path, "--n", "2")
        lines = open(os.path.join(traj_dir, "trajectories.csv")).read().strip().splitlines()
        assert len(lines) == 1 + 2 * 9  # header + n * (T+1) rows

    def test_metrics_rerun_bit_exact(self, tmp_path):
        data_dir = str(tmp_path / "data")
        run_cli("make-data", *tiny_args(data_dir))
        ds_path = os.path.join(data_dir, "dataset.gpds")
        outs = []
        for name in ("r1", "r2"):
            d = str(tmp_path / name)
            run_cli("pretrain", *tiny_args(d), "--dataset", ds_path)
            outs.append(open(os.path.join(d, "metrics.csv"), "rb").read())
        assert outs[0] == outs[1]

    def test_dataset_rerun_bit_exact(self, tmp_path):
        blobs = []
        for name in ("d1", "d2"):
            d = str(tmp_path / name)
            run_cli("make-data", *tiny_args(d))
            blobs.append(open(os.path.join(d, "dataset.gpds"), "rb").read())
        assert blobs[0] == blobs[1]


@pytest.mark.parametrize("command, name", [("sample", "samples.csv"), ("eval", "eval.csv")])
def test_sample_and_eval_integrate_on_the_configured_solver(tmp_path, command, name):
    ckpt = str(tmp_path / "p.ckpt")
    save_policy(GenerativePolicy(PolicyConfig(state_dim=1, action_dim=1, hidden=(8,)),
                                 np.random.default_rng(0)), ckpt)  # eval_solver: euler, 32
    blobs = []
    for steps in (4, 32):
        out = str(tmp_path / f"{command}{steps}")
        run_cli(command, *tiny_args(out, [f"solver.steps={steps}"]), "--checkpoint", ckpt,
                "--n", "16")
        blobs.append(open(os.path.join(out, name), "rb").read())
    assert blobs[0] != blobs[1]


def test_sample_export_and_eval_share_one_inference_pass(tmp_path):
    # one checkpoint, seed and --n: samples.csv holds each path's last grid
    # point, and eval.csv those actions' mean and std, equal as %.17g text
    ckpt = str(tmp_path / "p.ckpt")
    save_policy(GenerativePolicy(PolicyConfig(state_dim=1, action_dim=2, hidden=(8,)),
                                 np.random.default_rng(0)), ckpt)
    argv = ["--checkpoint", ckpt, "--n", "12"]

    def rows(command, name):
        out = str(tmp_path / command)
        assert cli.main([command, *tiny_args(out, ["task.dims=2"]), *argv]) == 0
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            return [line.rstrip("\n").split(",") for line in fh.readlines()[1:]]

    samples = [row[1:] for row in rows("sample", "samples.csv")]
    ends = [row[3:] for row in rows("export-trajectories", "trajectories.csv")
            if row[1] == "8"]  # the last grid point, k = solver.steps
    assert len(samples) == 12 and ends == samples
    actions = np.array([[float(v) for v in row] for row in samples])
    [summary] = rows("eval", "eval.csv")
    assert summary[1:5] == [f"{v:.17g}" for v in (*actions.mean(axis=0), *actions.std(axis=0))]


@pytest.mark.parametrize("command, override, code", [
    ("train-gmpo", "policy.beta=1e308", 0),  # every exp_clamp weight is 0, 1 or w_max
    ("train-gmpg", "policy.beta=1e308", 4),  # g*g overflows Adam's second moment
    ("pretrain", "model.t_emb_scale=1e308", 4),  # 2 pi w overflows
])
def test_huge_finite_setting_runs_or_diverges_without_a_numpy_warning(tmp_path, capsys, command,
                                                                      override, code):
    # a finite, in-range value passes the config checks; what it does to the
    # numbers is either nothing or a divergence (exit 4), never a numpy warning
    ds_path, critic_path, behavior_path = (str(tmp_path / f) for f in ("d.gpds", "c.ckpt", "b.ckpt"))
    save_dataset(make_tilted_gaussian_bandit(1, 1.0, 64, seed=0)[0], ds_path)
    save_critic(Critic(1, 1, CriticConfig(hidden=(4,)), np.random.default_rng(0)), critic_path)
    save_policy(GenerativePolicy(PolicyConfig(state_dim=1, action_dim=1, hidden=(4,)),
                                 np.random.default_rng(0)), behavior_path)
    inputs = {"pretrain": [], "train-gmpo": ["--critic", critic_path],
              "train-gmpg": ["--critic", critic_path, "--behavior", behavior_path]}[command]
    extra = [override, "policy.steps=2", "policy.gmpg_steps=2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, *tiny_args(str(tmp_path / "o"), extra), "--dataset", ds_path,
                         *inputs]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("numeric divergence: ") and err.count("\n") == 1, err
    else:
        assert err == ""


def test_train_gmpg_integrates_on_the_configured_solver(tmp_path):
    # the behavior checkpoint is saved with euler/3; train-gmpg runs on euler/5
    ds = make_tilted_gaussian_bandit(1, 1.0, 256, seed=0)[0]
    ds_path, critic_path = str(tmp_path / "d.gpds"), str(tmp_path / "c.ckpt")
    save_dataset(ds, ds_path)
    save_critic(Critic(1, 1, CriticConfig(hidden=(4,)), np.random.default_rng(0)), critic_path)
    pre, out = str(tmp_path / "pre"), str(tmp_path / "gmpg")
    assert cli.main(["pretrain", *tiny_args(pre, ["solver.steps=3", "policy.steps=5"]),
                     "--dataset", ds_path]) == 0
    behavior = load_policy(os.path.join(pre, "behavior.ckpt"))
    assert behavior.config.eval_solver == SolverSpec("euler", 3)
    assert cli.main(["train-gmpg", *tiny_args(out, ["solver.steps=5", "policy.gmpg_steps=1"]),
                     "--dataset", ds_path, "--critic", critic_path,
                     "--behavior", os.path.join(pre, "behavior.ckpt")]) == 0
    policy = load_policy(os.path.join(out, "policy.ckpt"))  # the policy after step 0
    assert policy.config.eval_solver == SolverSpec("euler", 5)
    with open(os.path.join(out, "metrics.csv"), encoding="utf-8") as fh:
        step0 = fh.read().splitlines()[1].split(",")
    assert step0[0] == "0"
    states = ds.s[np.arange(256) % ds.n]
    actions = policy.sample_actions(states, np.random.default_rng([3, 0]), SolverSpec("euler", 5))
    assert float(step0[-1]) == float(assign_value_nearest(ds, actions)[0].mean())


class TestExitCodes:
    def test_missing_config_file_exits_2(self, tmp_path):
        proc = run_cli("make-data", "--config", str(tmp_path / "nope.ini"), check=False)
        assert proc.returncode == 2
        assert not os.path.exists("run")

    def test_bad_override_exits_2(self):
        proc = run_cli("make-data", "--set", "task.bogus=1", check=False)
        assert proc.returncode == 2

    def test_missing_checkpoint_exits_3(self, tmp_path):
        out = str(tmp_path / "o")
        proc = run_cli("sample", *tiny_args(out), "--checkpoint",
                       str(tmp_path / "missing.ckpt"), check=False)
        assert proc.returncode == 3

    def test_non_tanh_activation_in_a_policy_checkpoint_exits_3(self, tmp_path, capsys):
        path = str(tmp_path / "p.ckpt")
        save_policy(GenerativePolicy(PolicyConfig(state_dim=1, action_dim=1, hidden=(4,)),
                                     np.random.default_rng(0)), path)
        header, arrays = _read(path, "policy")
        header["config"]["activation"] = "sin"
        _write(path, header, list(arrays.items()))
        out = str(tmp_path / "o")
        assert cli.main(["sample", *tiny_args(out), "--checkpoint", path, "--n", "4"]) == 3
        assert "unsupported activation 'sin'" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_hidden_layer_overflow_in_a_policy_checkpoint_exits_4(self, tmp_path):
        # finite first-layer weights large enough that a pre-activation
        # overflows; the hidden tanh would saturate it to a finite 1
        path = str(tmp_path / "p.ckpt")
        save_policy(GenerativePolicy(PolicyConfig(state_dim=1, action_dim=1, hidden=(4,)),
                                     np.random.default_rng(0)), path)
        header, arrays = _read(path, "policy")
        arrays["net.w0"] = arrays["net.w0"] / np.abs(arrays["net.w0"]).max() * 1e308
        _write(path, header, list(arrays.items()))
        proc = run_cli("sample", *tiny_args(str(tmp_path / "o")), "--checkpoint", path,
                       "--n", "16", check=False)
        assert proc.returncode == 4
        assert proc.stderr.startswith("numeric divergence: ") and proc.stderr.count("\n") == 1
        assert "overflow" in proc.stderr

    def test_softmax_without_behavior_exits_2_before_its_inputs(self, tmp_path, capsys):
        # refused after the config, before the dataset and the checkpoints
        # are read: the --critic file does not exist
        out = tmp_path / "o"
        code = cli.main(["train-gmpo", *tiny_args(str(out), ["policy.weight_mode=softmax"]),
                         "--critic", str(tmp_path / "missing.ckpt")])
        assert code == 2
        assert capsys.readouterr().err == \
            "config error: policy.weight_mode=softmax needs --behavior\n"
        assert not out.exists()

    def test_missing_required_flag_exits_2(self, tmp_path):
        proc = run_cli("train-gmpg", check=False)
        assert proc.returncode == 2

    @pytest.mark.parametrize("command, n", [("sample", "0"), ("eval", "-1"),
                                             ("export-trajectories", "0"), ("logprob", "-1")])
    def test_bad_n_exits_2(self, tmp_path, command, n):
        # the tiny task is a 1-d bandit with a 1-d (all-zero) state
        ckpt = str(tmp_path / "p.ckpt")
        save_policy(GenerativePolicy(PolicyConfig(state_dim=1, action_dim=1, hidden=(4,)),
                                     np.random.default_rng(0)), ckpt)
        out = str(tmp_path / "o")
        proc = run_cli(command, *tiny_args(out), "--checkpoint", ckpt, "--n", n, check=False)
        assert proc.returncode == 2
        assert "--n must be" in proc.stderr
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command, override", [
        ("train-gmpo", "policy.weight_mode=bogus"),
        ("train-gmpg", "policy.variant=bogus"),
        ("train-gmpg", "policy.gmpg_scheme=bogus"),
        ("logprob", "policy.trace=bogus"),
        ("pretrain", "model.schedule=bogus"),
        ("pretrain", "policy.objective=dsm"),  # the default head is a velocity head
        ("sample", "solver.scheme=bogus"),
        ("train-critic", "critic.tau=1.5"),
        ("make-data", "task.n=0"),
        *[("train-critic", f"critic.{kv}") for kv in (
            "gamma=2", "gamma=-0.1", "gamma=nan", "lr=0", "lr=-1", "lr=inf", "lr=nan",
            "batch_size=0", "batch_size=-4", "steps=-1")],
        *[("train-gmpo", f"policy.{kv}") for kv in (
            "beta=-1", "beta=nan", "beta=inf", "lr=0", "lr=-1", "lr=nan", "batch_size=0",
            "steps=-1")],
        *[("train-gmpg", f"policy.{kv}") for kv in (
            "gmpg_lr=-1", "gmpg_lr=inf", "gmpg_batch_size=0", "gmpg_steps=-1")],
        ("train-critic", "critic.hidden=0,4"),
        ("train-critic", "critic.hidden=-4"),
        ("pretrain", "model.hidden=0"),
        ("pretrain", "model.hidden=-4"),
        *[(command, "task.seed=-1") for command in cli.COMMANDS],
        ("make-data", "task.dims=0"),
        ("pretrain", "model.t_emb_width=3"),
        ("pretrain", "model.t_emb_width=0"),
        ("make-data", "task.kind=bogus"),
        ("make-data", "task.kind=file"),  # a dataset on disk is read through --dataset only
        ("pretrain", "task.kind=bogus --dataset"),  # checked even when no dataset is generated
        ("sample", "task.kind=bogus --dataset"),
        *[(command, "output.metric_every=-1") for command in ("train-gmpo", "train-gmpg")],
        ("pretrain", "output.metric_every=0"),
        ("make-data", "output.dir="),
        ("make-data", "task.kind=swiss_roll task.noise=1e308"),  # a non-finite generated action
        ("train-critic", "task.kind=swiss_roll task.noise=1e308"),
    ])
    def test_bad_config_value_exits_2_before_any_output(self, tmp_path, command, override):
        # the tiny task is a 1-d bandit with a 1-d state; every file the command
        # reads exists, so only the config value can stop it. ``override`` holds
        # space-separated settings, applied after the output directory, and the
        # token --dataset, which reads a saved tiny bandit instead of generating one.
        policy_ckpt, critic_ckpt = str(tmp_path / "p.ckpt"), str(tmp_path / "c.ckpt")
        dataset = str(tmp_path / "d.gpds")
        save_dataset(make_tilted_gaussian_bandit(1, 1.0, 64, seed=0)[0], dataset)
        save_policy(GenerativePolicy(PolicyConfig(state_dim=1, action_dim=1, hidden=(4,)),
                                     np.random.default_rng(0)), policy_ckpt)
        save_critic(Critic(1, 1, CriticConfig(hidden=(4,)), np.random.default_rng(0)), critic_ckpt)
        files = {"train-gmpo": ["--critic", critic_ckpt, "--behavior", policy_ckpt],
                 "train-gmpg": ["--critic", critic_ckpt, "--behavior", policy_ckpt],
                 "logprob": ["--checkpoint", policy_ckpt],
                 "sample": ["--checkpoint", policy_ckpt],
                 "eval": ["--checkpoint", policy_ckpt],
                 "export-trajectories": ["--checkpoint", policy_ckpt]}.get(command, [])
        out = str(tmp_path / "o")
        settings = [arg for kv in override.split()
                    for arg in ((kv, dataset) if kv == "--dataset" else ("--set", kv))]
        proc = run_cli(command, *tiny_args(out), *settings, *files, check=False)
        assert proc.returncode == 2, proc.stderr
        # one line, with no traceback and no numpy warning before it
        assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1, \
            proc.stderr
        assert not os.path.exists(out)

    def test_out_of_memory_exits_2_with_one_line(self, tmp_path, capsys, monkeypatch):
        def too_big(*args):
            raise MemoryError("Unable to allocate 59.6 GiB for an array")

        monkeypatch.setattr(cli, "make_tilted_gaussian_bandit", too_big)
        out = tmp_path / "o"
        assert cli.main(["make-data", *tiny_args(str(out))]) == 2
        err = capsys.readouterr().err
        assert err == "config error: out of memory: Unable to allocate 59.6 GiB for an array\n"
        assert not out.exists()

    def test_csv_dataset_exits_3_with_the_bad_magic(self, tmp_path, capsys):
        # datasets are GPDS containers only; a CSV table is refused by its first bytes
        path = tmp_path / "d.csv"
        path.write_text("s0,a0,r,sp0,done\n0,1,2,0,1\n")
        out = tmp_path / "o"
        assert cli.main(["pretrain", *tiny_args(str(out)), "--dataset", str(path)]) == 3
        assert "bad magic b's0,a', expected b'GPDS'" in capsys.readouterr().err
        assert not out.exists()

    def test_make_data_has_no_format_flag(self, tmp_path):
        out = str(tmp_path / "o")
        proc = run_cli("make-data", "--format", "csv", *tiny_args(out), check=False)
        assert proc.returncode == 2
        assert "unrecognized arguments: --format csv" in proc.stderr
        assert not os.path.exists(out)

    @pytest.mark.parametrize("override", [
        *[f"{key}={value}" for key in FLOAT_KEYS for value in ("nan", "inf", "-inf")],
        "task.noise=-0.1", "model.t_emb_scale=0", "model.t_emb_scale=-1",
        "model.path_sigma=-0.5", "model.beta_min=-0.1", "model.beta_max=0",
        "model.beta_min=30", "policy.w_max=0", "critic.tau=0",
    ])
    def test_bad_float_setting_exits_2_before_any_output(self, tmp_path, override, capsys):
        # every stage checks the whole config first, so make-data stands for all of them
        out = tmp_path / "o"
        assert cli.main(["make-data", "--set", override, "--set", f"output.dir={out}"]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_gmpg_tape_beyond_physical_memory_exits_2_before_training(self, tmp_path):
        # about 1.5 TB of tape at t_train=1e6 and batch 512, more than any desk machine holds
        policy_ckpt, critic_ckpt = str(tmp_path / "p.ckpt"), str(tmp_path / "c.ckpt")
        save_policy(GenerativePolicy(PolicyConfig(state_dim=1, action_dim=1, hidden=(16, 16),
                                                  t_emb_width=8), np.random.default_rng(0)),
                    policy_ckpt)
        save_critic(Critic(1, 1, CriticConfig(hidden=(4,)), np.random.default_rng(0)), critic_ckpt)
        out = str(tmp_path / "o")
        start = time.perf_counter()
        proc = run_cli("train-gmpg", *tiny_args(out, ["policy.t_train=1000000",
                                                      "policy.gmpg_batch_size=512"]),
                       "--critic", critic_ckpt, "--behavior", policy_ckpt, check=False)
        assert time.perf_counter() - start < 30
        assert proc.returncode == 2, proc.stderr
        assert "GiB of tape" in proc.stderr and "t_train=1000000" in proc.stderr
        assert not os.path.exists(out)

    def test_gmpg_refusal_counts_one_calls_reverse_pass(self, tmp_path, capsys, monkeypatch):
        # a machine that holds the tape but not one network call's rerun
        # stacks and gradients is refused; one that holds both is not
        behavior = GenerativePolicy(PolicyConfig(state_dim=1, action_dim=1, hidden=(256, 256),
                                                 t_emb_width=8), np.random.default_rng(0))
        policy_ckpt, critic_ckpt = str(tmp_path / "p.ckpt"), str(tmp_path / "c.ckpt")
        save_policy(behavior, policy_ckpt)
        save_critic(Critic(1, 1, CriticConfig(hidden=(4,)), np.random.default_rng(0)), critic_ckpt)
        config = GmpgConfig(t_train=2, batch_size=16)
        tape, rerun = gmpg_tape_bytes(behavior, config, 16), gmpg_reverse_bytes(behavior, config, 16)
        assert rerun > tape

        def run(have):
            monkeypatch.setattr(cli, "_physical_bytes", lambda: have)
            out = tmp_path / f"o{have}"
            code = cli.main(["train-gmpg", *tiny_args(str(out), ["policy.t_train=2",
                                                                  "policy.gmpg_steps=0"]),
                             "--critic", critic_ckpt, "--behavior", policy_ckpt])
            return code, capsys.readouterr().err, out.exists()

        code, err, wrote = run(tape + rerun // 2)
        assert code == 2 and "GiB of tape and reverse pass per step" in err and not wrote, err
        code, err, wrote = run(tape + rerun)
        assert code == 0 and wrote, err

    @pytest.mark.parametrize("command", ["sample", "eval", "export-trajectories"])
    def test_huge_n_exits_2_before_it_allocates(self, tmp_path, capsys, command):
        # 2e9 rows of even a 4-wide network need hundreds of GiB: the stage
        # refuses from the shapes, before it writes its config or draws a row
        ckpt = str(tmp_path / "p.ckpt")
        save_policy(GenerativePolicy(PolicyConfig(state_dim=1, action_dim=1, hidden=(4,)),
                                     np.random.default_rng(0)), ckpt)
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = cli.main([command, *tiny_args(str(out)), "--checkpoint", ckpt,
                             "--n", "2000000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith(f"config error: {command} would hold an estimated ")
        assert err.count("\n") == 1 and "for 2000000000 rows" in err and "physical memory" in err
        assert not out.exists()
        assert peak < 16 * 2**20, peak

    def test_huge_task_n_exits_2_before_make_data_allocates(self, tmp_path, capsys):
        # 4e9 rows of a 2-d bandit need about 240 GiB: make-data refuses from
        # task.n and the task's widths, before it writes its config or draws a row
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = cli.main(["make-data", *tiny_args(str(out), ["task.dims=2",
                                                                "task.n=4000000000"])])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("config error: make-data would hold an estimated ")
        assert err.count("\n") == 1 and "for 4000000000 rows" in err and "lower task.n" in err
        assert not out.exists()
        assert peak < 16 * 2**20, peak

    @pytest.mark.parametrize("kind, dims", [("tilted_bandit", 1), ("tilted_bandit", 4),
                                            ("swiss_roll", 2)])
    def test_dataset_estimate_within_a_quarter_of_the_peak(self, tmp_path, capsys, kind, dims):
        out = tmp_path / "o"
        tracemalloc.start()
        try:
            code = cli.main(["make-data", *tiny_args(str(out), [f"task.kind={kind}",
                                                                f"task.dims={dims}",
                                                                "task.n=50000"])])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        estimate = cli._dataset_bytes(load_config(None, [f"task.kind={kind}", f"task.dims={dims}",
                                                         "task.n=50000"]).task)
        assert 0.75 * peak <= estimate <= 1.25 * peak, (estimate, peak)

    @pytest.mark.parametrize("command", ["sample", "eval", "logprob", "export-trajectories"])
    def test_pass_beyond_physical_memory_exits_2_before_any_output(self, tmp_path, capsys,
                                                                   monkeypatch, command):
        # logprob scores at most the dataset's rows, so no --n pushes it past
        # memory; a 4 KiB machine stands in for a dataset too large to score
        monkeypatch.setattr(cli, "_physical_bytes", lambda: 2**12)
        ckpt = str(tmp_path / "p.ckpt")
        save_policy(GenerativePolicy(PolicyConfig(state_dim=1, action_dim=1, hidden=(4,)),
                                     np.random.default_rng(0)), ckpt)
        out = tmp_path / "o"
        assert cli.main([command, *tiny_args(str(out)), "--checkpoint", ckpt]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {command} would hold an estimated ")
        assert err.count("\n") == 1 and "more than the 0.0 GiB of physical memory" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, n, k, grid", [
        ("sample", 4096, 0, 0), ("eval", 4096, 0, 0), ("logprob", 2048, 2, 0),
        ("export-trajectories", 512, 0, 9)])
    def test_pass_estimate_within_a_quarter_of_the_peak(self, tmp_path, capsys, command, n, k,
                                                        grid):
        # the estimate against the whole stage's tracemalloc peak (2-d
        # bandit, 64x2, an exact trace for logprob, 8 solver steps)
        ds_path, ckpt = str(tmp_path / "d.gpds"), str(tmp_path / "p.ckpt")
        save_dataset(make_tilted_gaussian_bandit(2, 1.0, 2048, seed=0)[0], ds_path)
        policy = GenerativePolicy(PolicyConfig(state_dim=1, action_dim=2, hidden=(64, 64)),
                                  np.random.default_rng(0))
        save_policy(policy, ckpt)
        tracemalloc.start()
        try:
            code = cli.main([command, *tiny_args(str(tmp_path / "o")), "--dataset", ds_path,
                             "--checkpoint", ckpt, "--n", str(n)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, capsys.readouterr().err
        assert 0.75 * peak <= cli._pass_bytes(policy, n, k, grid) <= 1.25 * peak, peak

    def test_swiss_roll_task_kind(self, tmp_path):
        out = str(tmp_path / "roll")
        run_cli("make-data", *tiny_args(out, ["task.kind=swiss_roll", "task.n=100"]))
        from genpolicy.data import load_dataset
        ds = load_dataset(os.path.join(out, "dataset.gpds"))
        assert ds.action_dim == 2
        assert ds.metadata["task"] == "swiss_roll"


# the checkpoint flags each stage reads, by checkpoint role
STAGE_CHECKPOINTS = {
    "pretrain": (), "train-critic": (),
    "train-gmpo": (("--critic", "critic"), ("--behavior", "behavior")),
    "train-gmpg": (("--critic", "critic"), ("--behavior", "behavior")),
    "sample": (("--checkpoint", "policy"),), "logprob": (("--checkpoint", "policy"),),
    "eval": (("--checkpoint", "policy"),),
    "export-trajectories": (("--checkpoint", "policy"),),
}


def _run_on_inputs(tmp_path, capsys, command, n_rows, wide=None):
    """Run ``command`` in-process on a 1-d bandit dataset of ``n_rows`` rows
    and 1-d checkpoints, except that the ``wide`` role's has action_dim=2."""
    if n_rows:
        ds = make_tilted_gaussian_bandit(1, 1.0, n_rows, seed=0)[0]
    else:
        ds = OfflineDataset(s=np.zeros((0, 1)), a=np.zeros((0, 1)), r=np.zeros(0),
                            s2=np.zeros((0, 1)), done=np.zeros(0))
    ds_path = str(tmp_path / "d.gpds")
    save_dataset(ds, ds_path)
    argv = [command, *tiny_args(str(tmp_path / "o")), "--dataset", ds_path]
    for flag, role in STAGE_CHECKPOINTS[command]:
        path, d = str(tmp_path / f"{role}.ckpt"), 2 if role == wide else 1
        if role == "critic":
            save_critic(Critic(1, d, CriticConfig(hidden=(4,)), np.random.default_rng(0)), path)
        else:
            save_policy(GenerativePolicy(PolicyConfig(state_dim=1, action_dim=d, hidden=(4,)),
                                         np.random.default_rng(0)), path)
        argv += [flag, path]
    code = cli.main(argv)
    return code, capsys.readouterr().err


class TestInputShapes:
    @pytest.mark.parametrize("command, wide", [
        (command, role) for command, flags in STAGE_CHECKPOINTS.items() for _, role in flags])
    def test_checkpoint_widths_differing_from_the_dataset_exit_3(self, tmp_path, capsys,
                                                                 command, wide):
        code, err = _run_on_inputs(tmp_path, capsys, command, 64, wide)
        assert code == 3, err
        assert f"the {wide} checkpoint has state_dim=1, action_dim=2" in err
        assert "the dataset has state_dim=1, action_dim=1" in err
        assert not os.path.exists(tmp_path / "o")

    @pytest.mark.parametrize("command", list(STAGE_CHECKPOINTS))
    def test_zero_row_dataset_exits_3(self, tmp_path, capsys, command):
        code, err = _run_on_inputs(tmp_path, capsys, command, 0)
        assert code == 3, err
        assert "the dataset has no rows (s (0, 1), a (0, 1))" in err
        assert not os.path.exists(tmp_path / "o")
