"""Experiment configuration: plain-text INI sections with typed defaults.

Every key has a default, so an empty file is a valid config. Overrides
come as repeated ``--set section.key=value`` flags. The fully resolved
config is echoed to the output directory before any training runs, which
makes a run directory self-describing and exactly reproducible.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, field, fields

from .errors import ConfigError


def _widths(text: str, key: str) -> tuple:
    """Comma-separated layer widths, each >= 1 (a width-0 layer would cut
    the network off from its input)."""
    sizes = tuple(int(x) for x in text.split(",") if x.strip())
    if any(s < 1 for s in sizes):
        raise ConfigError(f"{key} widths must be >= 1, got {text!r}")
    return sizes


@dataclass
class TaskBlock:
    kind: str = "tilted_bandit"  # tilted_bandit | swiss_roll
    n: int = 10_000
    seed: int = 0
    dims: int = 1             # tilted_bandit
    beta_target: float = 1.0  # tilted_bandit's recorded closed-form tilt
    noise: float = 0.6        # swiss_roll observation noise (a std, >= 0)


@dataclass
class ModelBlock:
    schedule: str = "gvp"
    parameterization: str = "velocity"
    hidden: str = "256,256,256"
    t_emb_width: int = 32
    t_emb_scale: float = 1.0  # std of the time-feature frequencies, > 0
    path_sigma: float = 0.0
    beta_min: float = 0.1
    beta_max: float = 20.0

    def hidden_sizes(self) -> tuple:
        return _widths(self.hidden, "model.hidden")


@dataclass
class CriticBlock:
    tau: float = 0.7
    gamma: float = 0.99
    lr: float = 1e-4
    hidden: str = "256,256,256"
    steps: int = 20_000
    batch_size: int = 256

    def hidden_sizes(self) -> tuple:
        return _widths(self.hidden, "critic.hidden")


@dataclass
class PolicyBlock:
    beta: float = 1.0
    weight_mode: str = "exp_clamp"
    w_max: float = 100.0
    k_candidates: int = 8
    objective: str = "cfm"
    lambda_mode: str = "vanilla"
    steps: int = 2000
    batch_size: int = 64       # matching-regression batch
    gmpg_steps: int = 200
    gmpg_batch_size: int = 512  # 8x the regression batch, mirroring the
    gmpg_lr: float = 1e-4       # large-batch stabilization of the scheme
    t_train: int = 1000
    gmpg_scheme: str = "euler"
    trace: str = "exact"
    n_probes: int = 1
    variant: str = "dynamic"
    lr: float = 1e-4


@dataclass
class SolverBlock:
    scheme: str = "euler"
    steps: int = 32


@dataclass
class OutputBlock:
    dir: str = "run"
    metric_every: int = 50


@dataclass
class ExperimentConfig:
    task: TaskBlock = field(default_factory=TaskBlock)
    model: ModelBlock = field(default_factory=ModelBlock)
    critic: CriticBlock = field(default_factory=CriticBlock)
    policy: PolicyBlock = field(default_factory=PolicyBlock)
    solver: SolverBlock = field(default_factory=SolverBlock)
    output: OutputBlock = field(default_factory=OutputBlock)


def _coerce(raw: str, default):
    kind = type(default)
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {raw!r} as {kind.__name__}") from exc


def _apply(config: ExperimentConfig, section: str, key: str, raw: str) -> None:
    block = getattr(config, section, None)
    if block is None:
        raise ConfigError(f"unknown config section [{section}]")
    names = {f.name for f in fields(block)}
    if key not in names:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    setattr(block, key, _coerce(raw, getattr(block, key)))


def load_config(path: str | None, overrides=()) -> ExperimentConfig:
    """Parse an INI config file (optional) and apply key=value overrides."""
    config = ExperimentConfig()
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                _apply(config, section, key, raw)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        _apply(config, section.strip(), key.strip(), raw.strip())
    return config


def dump_config(config: ExperimentConfig, path: str) -> None:
    """Echo the fully resolved config (defaults applied) as INI."""
    parser = configparser.ConfigParser()
    for section_field in fields(config):
        block = getattr(config, section_field.name)
        parser[section_field.name] = {k: str(v) for k, v in asdict(block).items()}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
