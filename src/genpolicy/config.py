"""Experiment configuration: plain-text INI sections with typed defaults.

Every key has a default, so an empty file is a valid config. Overrides
come as repeated ``--set section.key=value`` flags. The ``[critic]``,
``[policy]`` and ``[solver]`` keys are the fields of ``CriticConfig``,
``policy.TrainingConfig`` and ``SolverSpec`` themselves, so their values
are checked when the config loads; a width list (``model.hidden``,
``critic.hidden``) is parsed once, at load, into a tuple. The fully
resolved config is echoed to the output directory before any training
runs, which makes a run directory self-describing and exactly
reproducible.
"""

from __future__ import annotations

import configparser
from dataclasses import asdict, dataclass, field, fields, replace

from .critic import CriticConfig
from .errors import ConfigError
from .policy import TrainingConfig
from .sampler import SolverSpec


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
    hidden: tuple = (256, 256, 256)
    t_emb_width: int = 32
    t_emb_scale: float = 1.0  # std of the time-feature frequencies, > 0
    path_sigma: float = 0.0
    beta_min: float = 0.1
    beta_max: float = 20.0


@dataclass
class OutputBlock:
    dir: str = "run"
    metric_every: int = 50


@dataclass
class ExperimentConfig:
    task: TaskBlock = field(default_factory=TaskBlock)
    model: ModelBlock = field(default_factory=ModelBlock)
    critic: CriticConfig = field(default_factory=CriticConfig)
    policy: TrainingConfig = field(default_factory=TrainingConfig)
    solver: SolverSpec = field(default_factory=SolverSpec)
    output: OutputBlock = field(default_factory=OutputBlock)


def _coerce(raw: str, default, key: str):
    """``raw`` as the type of ``default``; a tuple is a comma-separated
    list of layer widths, each >= 1 (a width-0 layer would cut the network
    off from its input), and may be empty."""
    kind = type(default)
    try:
        if kind is not tuple:
            return kind(raw)
        sizes = tuple(int(x) for x in raw.split(",") if x.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key}={raw!r} as {kind.__name__}") from exc
    if any(s < 1 for s in sizes):
        raise ConfigError(f"{key} widths must be >= 1, got {raw!r}")
    return sizes


def load_config(path: str | None, overrides=()) -> ExperimentConfig:
    """Parse an INI config file (optional) and apply key=value overrides.

    The file's values and then every override are collected first; each
    section is then built once from its defaults and those values, so a
    spec's own checks (``CriticConfig``, ``TrainingConfig``, ``SolverSpec``)
    see the final values, and a value they refuse is a ``ConfigError``."""
    defaults = ExperimentConfig()
    values = {f.name: {} for f in fields(defaults)}

    def put(section: str, key: str, raw: str) -> None:
        if section not in values:
            raise ConfigError(f"unknown config section [{section}]")
        block = getattr(defaults, section)
        if key not in {f.name for f in fields(block)}:
            raise ConfigError(f"unknown key {key!r} in section [{section}]")
        values[section][key] = _coerce(raw, getattr(block, key), f"{section}.{key}")

    if path is not None:
        parser = configparser.ConfigParser()
        try:  # configparser reads lazily: a bad '%' surfaces in items()
            if not parser.read(path):
                raise ConfigError(f"config file not found: {path}")
            for section in parser.sections():
                for key, raw in parser.items(section):
                    put(section, key, raw)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(" ".join(f"cannot read {path}: {exc}".split())) from exc
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        put(section.strip(), key.strip(), raw.strip())
    try:
        return ExperimentConfig(**{name: replace(getattr(defaults, name), **kv)
                                   for name, kv in values.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def dump_config(config: ExperimentConfig, path: str) -> None:
    """Echo the fully resolved config (defaults applied) as INI; a width
    list is written as ``a,b,c``, and a '%' as the '%%' that reads back as it."""
    parser = configparser.ConfigParser()
    for section_field in fields(config):
        block = getattr(config, section_field.name)
        parser[section_field.name] = {
            k: (",".join(map(str, v)) if isinstance(v, tuple) else str(v)).replace("%", "%%")
            for k, v in asdict(block).items()}
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
