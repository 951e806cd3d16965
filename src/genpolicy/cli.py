"""Config-driven experiment runner.

One stage per invocation, in one order (``main``): the config (the
``[critic]``, ``[policy]`` and ``[solver]`` sections check their values
as it loads, ``_check_config`` the rest, so a bad value exits 2);
``--n``; ``policy.weight_mode=softmax`` needs ``--behavior``; the dataset
(the GPDS file that ``--dataset`` names, or else the one ``task.*``
generates, once its estimated bytes, ``_dataset_bytes``, fit in physical
memory); the checkpoints the command names, each policy integrating on
``solver.*`` (``_load_policy``), and their cross-checks (an empty dataset,
or a checkpoint whose state or action width differs from the dataset's,
exits 3); the stage's memory estimate from the shapes alone
(``policy.gmpg_tape_bytes`` plus one network call's reverse-pass
transient, ``policy.gmpg_reverse_bytes``, for ``train-gmpg``;
``_pass_bytes`` for the pass of ``sample``, ``eval``, ``logprob`` and
``export-trajectories``), which exits 2 when it exceeds physical memory;
``resolved.ini``, the fully resolved config, in ``output.dir``; then the
compute. Nothing is written before ``resolved.ini``. A stage appends
plain-CSV metrics (``MetricsWriter``; comment char '#', comma-separated,
%.17g floats) and emits checkpoints in the versioned binary format. Exit
codes: 0 success, 2 config error (running out of memory included), 3
io/format error, 4 numeric divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .checkpoint import copy_policy, load_critic, load_policy, save_critic, save_policy
from .config import ExperimentConfig, dump_config, load_config
from .critic import train_critic
from .data import (OfflineDataset, SwissRollTask, assign_value_nearest, csv_lines, load_dataset,
                   make_swiss_roll, make_tilted_gaussian_bandit, save_dataset, write_csv)
from .errors import ConfigError, DataFormatError, NonFiniteError
from .matching import check_objective
from .policy import (GenerativePolicy, PolicyConfig, gmpg_reverse_bytes, gmpg_tape_bytes,
                     pretrain_behavior, train_gmpg, train_gmpo)
from .sampler import generate
from .schedules import PathSchedule


class MetricsWriter:
    """Per-step metrics through one append handle per stage. The handle is
    unbuffered, so each row reaches the file as it comes (a reader sees it
    at once, and a run that stops early keeps the rows it already wrote)
    and no write buffer is held between rows. A stage holds the writer in
    a ``with`` block, which closes the file on every exit path, an error
    (exit 3 or 4) included."""

    def __init__(self, path: str, columns: list[str]):
        self.columns = columns
        write_csv(path, columns)
        self._fh = open(path, "ab", buffering=0)

    def row(self, values: dict) -> None:
        line = "".join(csv_lines([[values.get(c, "") for c in self.columns]])).encode("utf-8")
        while line:  # a raw write may take fewer bytes than it is given
            line = line[self._fh.write(line):]

    def __enter__(self) -> "MetricsWriter":
        return self

    def __exit__(self, *exc) -> None:
        self._fh.close()


# The dataset each task.kind generates from the task.* settings.
_TASKS = {
    "tilted_bandit": lambda t: make_tilted_gaussian_bandit(t.dims, t.beta_target, t.n, t.seed)[0],
    "swiss_roll": lambda t: make_swiss_roll(SwissRollTask(n=t.n, noise=t.noise, seed=t.seed)),
}


def _build_dataset(cfg: ExperimentConfig, args) -> OfflineDataset:
    """The dataset a stage reads: the file that ``--dataset`` names if
    given, else the one ``task.*`` generates. Generating one first refuses
    a ``task.n`` whose dataset would not fit in memory (``_dataset_bytes``).
    A generated one that fails validation (a non-finite value) is a config
    error: the task settings made it."""
    if getattr(args, "dataset", None):
        return load_dataset(args.dataset)
    task = cfg.task
    _check_fits(_dataset_bytes(task), args.command, f"for {task.n} rows of task.kind={task.kind}",
                "task.n")
    try:
        return _TASKS[task.kind](task)
    except DataFormatError as exc:
        raise ConfigError(f"the task.* settings generate an invalid dataset: {exc}") from exc


def _dataset_bytes(task) -> int:
    """Estimated peak bytes of generating and saving the ``task.*`` dataset.

    From ``task.n`` and the task's widths, in float64s per row: the five
    columns (s and s2 one wide, the d-wide actions, r and done), and
    beside them the larger of the generator's temporaries (the swiss
    roll's angle and spiral points, three wide, held while the dataset is
    checked) and the container writer's ``tobytes`` copy of its widest
    column, the actions. Against make-data's tracemalloc peak at 10^5 rows
    it read 0.93 (swiss roll) and 0.99 (bandit, d = 1, 2 and 8).
    """
    d = task.dims if task.kind == "tilted_bandit" else 2
    temporaries = 3 if task.kind == "swiss_roll" else 0
    return 8 * task.n * (4 + d + max(temporaries, d))


def _schedule(cfg: ExperimentConfig) -> PathSchedule:
    m = cfg.model
    return PathSchedule(m.schedule, beta_min=m.beta_min, beta_max=m.beta_max,
                        path_sigma=m.path_sigma)


def _load_policy(cfg: ExperimentConfig, path: str) -> GenerativePolicy:
    """The policy saved at ``path``, integrating on ``solver.*``, never on
    the solver its checkpoint was saved with; so does any copy of it
    (``train-gmpg`` saves its copy of the behavior policy with this solver)."""
    policy = load_policy(path)
    policy.config.eval_solver = cfg.solver
    return policy


def _new_policy(cfg: ExperimentConfig, dataset: OfflineDataset, seed: int) -> GenerativePolicy:
    m = cfg.model
    pc = PolicyConfig(state_dim=dataset.state_dim, action_dim=dataset.action_dim,
                      hidden=m.hidden, t_emb_width=m.t_emb_width,
                      t_emb_scale=m.t_emb_scale, parameterization=m.parameterization,
                      schedule=_schedule(cfg), eval_solver=cfg.solver)
    policy = GenerativePolicy(pc, np.random.default_rng(seed))
    policy.set_normalizer_from(dataset)
    return policy


def _check_config(cfg: ExperimentConfig) -> None:
    """Refuse a non-finite float setting and what the sections could not
    check when ``cfg`` loaded (``cfg.critic``, ``cfg.policy`` and
    ``cfg.solver`` check their own values): the task and model settings,
    the schedule, and the matching objective against the model head; so
    that a bad value exits 2 before any stage writes or computes anything."""
    for block in fields(cfg):
        for key, value in asdict(getattr(cfg, block.name)).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{block.name}.{key} must be finite, got {value}")
    if cfg.task.kind not in _TASKS:
        raise ConfigError(f"unknown task kind {cfg.task.kind!r}; options: {tuple(_TASKS)}")
    if cfg.task.n < 1:
        raise ConfigError(f"task.n must be >= 1, got {cfg.task.n}")
    if cfg.task.seed < 0:
        raise ConfigError(f"task.seed must be >= 0, got {cfg.task.seed}")
    if cfg.task.kind == "tilted_bandit" and cfg.task.dims < 1:
        raise ConfigError(f"task.dims must be >= 1, got {cfg.task.dims}")
    width = cfg.model.t_emb_width
    if width < 1 or width % 2:
        raise ConfigError(f"model.t_emb_width must be a positive even number, got {width}")
    if cfg.task.noise < 0:
        raise ConfigError(f"task.noise must be >= 0, got {cfg.task.noise}")
    if not cfg.model.t_emb_scale > 0:
        raise ConfigError(f"model.t_emb_scale must be > 0, got {cfg.model.t_emb_scale}")
    if cfg.output.metric_every < 1:
        raise ConfigError(f"output.metric_every must be >= 1, got {cfg.output.metric_every}")
    if not cfg.output.dir:
        raise ConfigError("output.dir must not be empty")
    try:
        check_objective(cfg.policy.objective, cfg.model.parameterization, _schedule(cfg))
    except ValueError as exc:  # UnsupportedKindError is a ValueError too
        raise ConfigError(str(exc)) from exc


def _check_inputs(dataset: OfflineDataset, **checkpoints) -> None:
    """Refuse an empty dataset, or a checkpoint whose state and action
    widths differ from the dataset's."""
    if dataset.n == 0:
        raise DataFormatError(f"the dataset has no rows (s {dataset.s.shape}, "
                              f"a {dataset.a.shape})")
    for name, model in checkpoints.items():
        dims = model.config if isinstance(model, GenerativePolicy) else model
        if (dims.state_dim, dims.action_dim) != (dataset.state_dim, dataset.action_dim):
            raise DataFormatError(
                f"the {name} checkpoint has state_dim={dims.state_dim}, "
                f"action_dim={dims.action_dim}; the dataset has state_dim={dataset.state_dim}, "
                f"action_dim={dataset.action_dim}")


def _physical_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_fits(need: int, stage: str, of: str, lower: str) -> None:
    """Refuse a stage whose estimate of the bytes it will hold, ``need``,
    exceeds physical memory; ``lower`` names the settings that shrink it."""
    have = _physical_bytes()
    if need > have:
        raise ConfigError(f"{stage} would hold an estimated {need / 2**30:.1f} GiB {of}, more "
                          f"than the {have / 2**30:.1f} GiB of physical memory; lower {lower}")


# Grid points per block of export-trajectories' CSV rows: a block's
# denormalized states and the Python rows made from them stay small.
_CSV_BLOCK = 1024


def _csv_block_rows(grid: int) -> int:
    """Samples per block of export-trajectories' CSV rows, at ``grid`` points each."""
    return max(1, _CSV_BLOCK // grid)


def _pass_bytes(policy: GenerativePolicy, rows: int, k: int = 0, grid: int = 0) -> int:
    """Estimated peak bytes of a tape-free pass of ``policy`` over ``rows`` rows.

    From the shapes alone, in float64s per row: the widest layer's output
    for the primal row and its k tangent rows, twice (a layer reads its
    input while it writes its output), plus two slope temporaries of the
    primal row when k > 0; the index, state and action columns (2 +
    state_dim + 8·action_dim). With ``grid`` recorded solver states
    (export-trajectories) a row holds its recorded states, in one array,
    beside the network; the CSV rows then come one block of samples at a
    time, about 5·action_dim + 9 floats per grid point of a block
    (``_csv_block_rows``), counted on top. Against each
    stage's tracemalloc peak at 64×2 and 256×3 it read 0.98–1.04 for
    sample, eval and logprob; for export-trajectories the per-row terms
    match the pass to within 10%, and the stage's fixed costs (the
    dataset and the policy's weights) come on top.
    """
    net = policy.model.net
    d, width = net.x_dim, max(net.mlp.sizes[1:])
    network = 2 * (k + 1 + (k > 0)) * width
    per_row = 2 + net.state_dim + 8 * d + network + grid * d
    csv = min(rows, _csv_block_rows(grid)) * grid * (5 * d + 9) if grid else 0
    return 8 * (rows * per_row + csv)


def _prepare_out(cfg: ExperimentConfig) -> str:
    out = cfg.output.dir
    os.makedirs(out, exist_ok=True)
    dump_config(cfg, os.path.join(out, "resolved.ini"))
    return out


def _states(dataset: OfflineDataset, n: int) -> np.ndarray:
    """``n`` state rows that cycle through the dataset's states."""
    return dataset.s[np.arange(n) % dataset.n]


def _sample_and_score(policy: GenerativePolicy, dataset: OfflineDataset, n: int, seed):
    """(actions, values, distances): one action sampled at each of
    ``_states(dataset, n)`` from ``default_rng(seed)``, and the reward of
    and distance to its nearest dataset action."""
    actions = policy.sample_actions(_states(dataset, n), np.random.default_rng(seed))
    return (actions, *assign_value_nearest(dataset, actions))


@contextlib.contextmanager
def _policy_training(cfg: ExperimentConfig, dataset: OfflineDataset, policy: GenerativePolicy,
                     out: str, name: str):
    """Yield the ``on_step`` callback of a policy-training stage, which
    writes each step's ``metrics.csv`` row; on the first step and every
    ``output.metric_every``-th its ``eval_value`` scores 256 actions
    sampled on the full ``solver.*`` grid (``_sample_and_score``). Once
    training returns, save ``policy`` as ``name`` in ``out``."""
    every = cfg.output.metric_every
    with MetricsWriter(os.path.join(out, "metrics.csv"),
                       ["step", "loss", "mean_weight", "mean_advantage", "eval_value"]) as writer:
        def on_step(step, metrics):
            row = {"step": step, **metrics}
            if (step + 1) % every == 0 or step == 0:
                values = _sample_and_score(policy, dataset, 256, [cfg.task.seed, step])[1]
                row["eval_value"] = float(values.mean())
            writer.row(row)

        yield on_step
    path = os.path.join(out, name)
    save_policy(policy, path)
    print(f"wrote {path}")


# -- stages: each runs after main has resolved its dataset and checkpoints -----


def cmd_make_data(cfg: ExperimentConfig, args, ds: OfflineDataset) -> None:
    out = _prepare_out(cfg)
    path = os.path.join(out, "dataset.gpds")
    save_dataset(ds, path)
    print(f"wrote {path} ({ds.n} rows, state_dim={ds.state_dim}, action_dim={ds.action_dim})")


def cmd_pretrain(cfg: ExperimentConfig, args, ds: OfflineDataset) -> None:
    out = _prepare_out(cfg)
    policy = _new_policy(cfg, ds, seed=cfg.task.seed + 1)
    with _policy_training(cfg, ds, policy, out, "behavior.ckpt") as on_step:
        pretrain_behavior(ds, policy, cfg.policy, np.random.default_rng(cfg.task.seed),
                          on_step=on_step)


def cmd_train_critic(cfg: ExperimentConfig, args, ds: OfflineDataset) -> None:
    out = _prepare_out(cfg)
    with MetricsWriter(os.path.join(out, "metrics.csv"), ["step", "v_loss", "q_loss"]) as writer:
        critic = train_critic(
            ds, cfg.critic, np.random.default_rng(cfg.task.seed),
            on_step=lambda step, losses: writer.row(
                {"step": step, "v_loss": losses[0], "q_loss": losses[1]}))
    path = os.path.join(out, "critic.ckpt")
    save_critic(critic, path)
    print(f"wrote {path}")


def cmd_train_gmpo(cfg: ExperimentConfig, args, ds: OfflineDataset, critic,
                   behavior: GenerativePolicy | None = None) -> None:
    out = _prepare_out(cfg)
    policy = _new_policy(cfg, ds, seed=cfg.task.seed + 2)
    with _policy_training(cfg, ds, policy, out, "policy.ckpt") as on_step:
        train_gmpo(ds, critic, policy, cfg.policy, np.random.default_rng(cfg.task.seed),
                   behavior=behavior, on_step=on_step)


def cmd_train_gmpg(cfg: ExperimentConfig, args, ds: OfflineDataset, critic,
                   behavior: GenerativePolicy) -> None:
    config = cfg.policy
    batch = min(config.gmpg_batch_size, ds.n)
    _check_fits(gmpg_tape_bytes(behavior, config, batch) + gmpg_reverse_bytes(behavior, config, batch),
                "train-gmpg", f"of tape and reverse pass per step (t_train={config.t_train}, "
                f"batch {batch}, {config.variant})",
                "policy.t_train, policy.gmpg_batch_size or the policy widths")
    out = _prepare_out(cfg)
    policy = copy_policy(behavior)  # theta_2 <- theta_1
    with _policy_training(cfg, ds, policy, out, "policy.ckpt") as on_step:
        train_gmpg(ds, critic, policy, behavior, config, np.random.default_rng(cfg.task.seed),
                   on_step=on_step)


def cmd_sample(cfg: ExperimentConfig, args, ds: OfflineDataset, policy: GenerativePolicy) -> None:
    _check_fits(_pass_bytes(policy, args.n), "sample", f"for {args.n} rows", "--n")
    out = _prepare_out(cfg)
    actions = policy.sample_actions(_states(ds, args.n), np.random.default_rng(cfg.task.seed))
    path = os.path.join(out, "samples.csv")
    write_csv(path, ["sample_id"] + [f"a{i}" for i in range(actions.shape[1])],
              ([i, *row] for i, row in enumerate(actions.tolist())))
    print(f"wrote {path}; mean={actions.mean(axis=0)}, std={actions.std(axis=0)}")


def cmd_logprob(cfg: ExperimentConfig, args, ds: OfflineDataset, policy: GenerativePolicy) -> None:
    n = min(args.n, ds.n) if args.n else ds.n
    trace = cfg.policy.trace_mode
    _check_fits(_pass_bytes(policy, n, trace.tangents(policy.config.action_dim)), "logprob",
                f"for {n} rows", "--n")
    out = _prepare_out(cfg)
    logp, stderr = policy.log_prob_actions(ds.s[:n], ds.a[:n], policy.config.eval_solver,
                                           trace, np.random.default_rng(cfg.task.seed))
    path = os.path.join(out, "logprob.csv")
    write_csv(path, ["point_id", "logp", "stderr"], zip(range(n), logp.tolist(), stderr.tolist()))
    print(f"wrote {path}; mean logp = {logp.mean():.6g} nats")


def cmd_eval(cfg: ExperimentConfig, args, ds: OfflineDataset, policy: GenerativePolicy) -> None:
    _check_fits(_pass_bytes(policy, args.n), "eval", f"for {args.n} rows", "--n")
    out = _prepare_out(cfg)
    actions, values, distances = _sample_and_score(policy, ds, args.n, cfg.task.seed)
    mean, std = actions.mean(axis=0), actions.std(axis=0)
    mean_value, mean_distance = float(values.mean()), float(distances.mean())
    d = actions.shape[1]
    columns = ["n"] + [f"mean_a{i}" for i in range(d)] + [f"std_a{i}" for i in range(d)]
    write_csv(os.path.join(out, "eval.csv"), columns + ["mean_value", "mean_distance"],
              [[args.n, *mean, *std, mean_value, mean_distance]])
    print(f"eval: n={args.n} action_mean={mean} action_std={std} mean_value={mean_value:.4f} "
          f"mean_distance={mean_distance:.4f}")


def cmd_export_trajectories(cfg: ExperimentConfig, args, ds: OfflineDataset,
                            policy: GenerativePolicy) -> None:
    grid = policy.config.eval_solver.steps + 1
    _check_fits(_pass_bytes(policy, args.n, grid=grid), "export-trajectories",
                f"for {args.n} rows x {grid} grid points", "--n or solver.steps")
    out = _prepare_out(cfg)
    _, traj = generate(policy.model, args.n, policy.config.eval_solver,
                       condition=_states(ds, args.n), rng=np.random.default_rng(cfg.task.seed),
                       record=True)
    times = traj.times.tolist()
    block = _csv_block_rows(grid)

    def rows():  # sample by sample, each along its grid; a block of samples at a time
        for lo in range(0, args.n, block):
            paths = policy.denormalize(traj.states[:, lo:lo + block]).transpose(1, 0, 2)
            for i, path in enumerate(paths.tolist(), lo):
                for k, (t, x) in enumerate(zip(times, path)):
                    yield [i, k, t, *x]

    path = os.path.join(out, "trajectories.csv")
    columns = ["sample_id", "k", "t"] + [f"x{i}" for i in range(traj.states.shape[2])]
    write_csv(path, columns, rows())
    print(f"wrote {path} ({args.n} samples x {grid} grid points)")


COMMANDS = {
    "make-data": cmd_make_data,
    "pretrain": cmd_pretrain,
    "train-critic": cmd_train_critic,
    "train-gmpo": cmd_train_gmpo,
    "train-gmpg": cmd_train_gmpg,
    "sample": cmd_sample,
    "logprob": cmd_logprob,
    "eval": cmd_eval,
    "export-trajectories": cmd_export_trajectories,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="genpolicy",
                                     description="continuous-time generative policies: "
                                                 "data, critics, and policy extraction")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **extra):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config path")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE")
        for flag, kw in extra.items():
            p.add_argument(flag, **kw)
        return p

    add("make-data")
    add("pretrain", **{"--dataset": dict(default=None)})
    add("train-critic", **{"--dataset": dict(default=None)})
    add("train-gmpo", **{"--dataset": dict(default=None),
                         "--critic": dict(required=True),
                         "--behavior": dict(default=None)})
    add("train-gmpg", **{"--dataset": dict(default=None),
                         "--critic": dict(required=True),
                         "--behavior": dict(required=True)})
    add("sample", **{"--dataset": dict(default=None),
                     "--checkpoint": dict(required=True),
                     "--n": dict(type=int, default=1024)})
    add("logprob", **{"--dataset": dict(default=None),
                      "--checkpoint": dict(required=True),
                      "--n": dict(type=int, default=0,
                                  help="rows to score; 0 scores every row")})
    add("eval", **{"--dataset": dict(default=None),
                   "--checkpoint": dict(required=True),
                   "--n": dict(type=int, default=1024)})
    add("export-trajectories", **{"--dataset": dict(default=None),
                                  "--checkpoint": dict(required=True),
                                  "--n": dict(type=int, default=16)})
    return parser


def main(argv=None) -> int:
    """Run one stage, its inputs resolved in the order the module docstring
    gives; returns the exit code."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
        _check_config(cfg)
        least = 0 if args.command == "logprob" else 1  # logprob's 0 scores every row
        if getattr(args, "n", least) < least:
            raise ConfigError(f"--n must be >= {least}, got {args.n}")
        if (args.command == "train-gmpo" and cfg.policy.weight_mode == "softmax"
                and not args.behavior):
            raise ConfigError("policy.weight_mode=softmax needs --behavior")
        ds = _build_dataset(cfg, args)
        checkpoints = {role: load_critic(path) if role == "critic" else _load_policy(cfg, path)
                       for flag, role in (("critic", "critic"), ("behavior", "behavior"),
                                          ("checkpoint", "policy"))
                       if (path := getattr(args, flag, None))}
        if args.command != "make-data":
            _check_inputs(ds, **checkpoints)
        COMMANDS[args.command](cfg, args, ds, **checkpoints)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except NonFiniteError as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
