"""Versioned binary checkpoints for policies and critics.

Layout: the dataset's binary container (``data.write_container``) with
magic ``GPCK``: u32 version (1), u64 header length, UTF-8 JSON header,
then raw little-endian float64 C-order parameter blobs in the order of
the header's ``arrays`` list. The header carries everything needed to
rebuild the object (its config dataclass's fields, exactly: architecture,
schedule constants, solver defaults), and the arrays the normalizer and
weights, so a load never depends on the saving process's rng: it
builds the networks from the loaded arrays and draws nothing. A
policy's state is that (header, arrays) pair; ``copy_policy`` rebuilds a
policy from copies of it, the same way a load does. A load checks the
file against its header (array shapes against the architecture, byte
count, finite values) and reports a truncated or garbled file as
``DataFormatError``. A policy header names its hidden layers'
activation, always "tanh"; a load refuses any other as
``DataFormatError`` too.
"""

from __future__ import annotations

from dataclasses import asdict, fields

import numpy as np

from .critic import Critic, CriticConfig
from .data import read_container, write_container
from .errors import DataFormatError, data_format_errors
from .policy import GenerativePolicy, PolicyConfig
from .sampler import SolverSpec
from .schedules import PathSchedule

_MAGIC = b"GPCK"


def _write(path: str, header: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    header = dict(header)
    header["arrays"] = [{"name": n, "shape": list(a.shape)} for n, a in arrays]
    write_container(path, _MAGIC, header, [a for _, a in arrays])


def _read(path: str, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, named arrays) of a ``kind`` checkpoint; any truncation or
    corruption is a DataFormatError."""
    header, arrays = read_container(path, _MAGIC, lambda h: [m["shape"] for m in h["arrays"]])
    with data_format_errors(path):
        named = {}
        for meta, arr in zip(header["arrays"], arrays):
            if not np.all(np.isfinite(arr)):
                raise DataFormatError(f"{path}: non-finite values in array {meta['name']!r}")
            named[meta["name"]] = arr
        if header.get("kind") != kind:
            raise DataFormatError(f"{path}: checkpoint holds a {header.get('kind')}, not a {kind}")
    return header, named


def _mlp_names(prefix: str, layers: int) -> list[str]:
    """The names of an MLP's arrays, in ``Mlp.parameters()`` order."""
    return [f"{prefix}.{kind}{i}" for i in range(layers) for kind in "wb"]


def _mlp_arrays(prefix: str, mlp) -> list[tuple[str, np.ndarray]]:
    return list(zip(_mlp_names(prefix, len(mlp.weights)), (p.data for p in mlp.parameters())))


def _take(arrays: dict, name: str, shape: tuple) -> np.ndarray:
    """``arrays[name]``, which must have the ``shape`` the header's architecture gives it."""
    arr = arrays[name]
    if arr.shape != shape:
        raise DataFormatError(f"array {name!r} has shape {arr.shape}, expected {shape}")
    return arr


def _mlp_params(prefix: str, hidden, arrays: dict) -> list[np.ndarray]:
    """The arrays of an MLP with ``hidden`` layers in ``Mlp.parameters()``
    order, which ``Mlp`` checks against its layer shapes."""
    return [arrays[name] for name in _mlp_names(prefix, len(hidden) + 1)]


def _config(cls, values: dict):
    """``cls(**values)`` from a header written with ``asdict``: the keys
    must be exactly ``cls``'s fields, so none falls back to a default."""
    names = sorted(f.name for f in fields(cls))
    if sorted(values) != names:
        raise DataFormatError(f"{cls.__name__} keys {sorted(values)}, expected {names}")
    return cls(**values)


def _policy_state(policy: GenerativePolicy) -> tuple[dict, list[tuple[str, np.ndarray]]]:
    """Everything that defines a policy: its header and its named arrays."""
    header = {"kind": "policy", "config": {**asdict(policy.config), "activation": "tanh"}}
    arrays = [("t_emb.freqs", policy.model.net.t_emb.freqs),
              ("action_mean", policy.action_mean), ("action_std", policy.action_std)]
    arrays += _mlp_arrays("net", policy.model.net.mlp)
    return header, arrays


def _policy_from_state(header: dict, arrays: dict) -> GenerativePolicy:
    """Rebuild a policy from ``_policy_state``'s header and arrays (taken, not copied)."""
    c = dict(header["config"])
    activation = c.pop("activation")
    if activation != "tanh":
        raise DataFormatError(f"unsupported activation {activation!r}; layers are tanh")
    cfg = _config(PolicyConfig, {**c, "hidden": tuple(c["hidden"]),
                                 "schedule": _config(PathSchedule, c["schedule"]),
                                 "eval_solver": _config(SolverSpec, c["eval_solver"])})
    action_std = _take(arrays, "action_std", (cfg.action_dim,))
    if not np.all(action_std > 0):
        raise DataFormatError("action_std must be positive")
    return GenerativePolicy(cfg, action_mean=_take(arrays, "action_mean", (cfg.action_dim,)),
                            action_std=action_std, freqs=arrays["t_emb.freqs"],
                            params=_mlp_params("net", cfg.hidden, arrays))


def save_policy(policy: GenerativePolicy, path: str) -> None:
    _write(path, *_policy_state(policy))


def load_policy(path: str) -> GenerativePolicy:
    header, arrays = _read(path, "policy")
    with data_format_errors(path):
        return _policy_from_state(header, arrays)


def copy_policy(policy: GenerativePolicy) -> GenerativePolicy:
    """An independent policy with the same state, rebuilt the way a load is."""
    header, arrays = _policy_state(policy)
    return _policy_from_state(header, {name: a.copy() for name, a in arrays})


def save_critic(critic: Critic, path: str) -> None:
    header = {"kind": "critic",
              "config": {"state_dim": critic.state_dim, "action_dim": critic.action_dim,
                         **asdict(critic.config)}}
    arrays = _mlp_arrays("q", critic.q_net) + _mlp_arrays("v", critic.v_net)
    _write(path, header, arrays)


def load_critic(path: str) -> Critic:
    header, arrays = _read(path, "critic")
    with data_format_errors(path):
        c = dict(header["config"])
        state_dim, action_dim = c.pop("state_dim"), c.pop("action_dim")
        cfg = _config(CriticConfig, {**c, "hidden": tuple(c["hidden"])})
        return Critic(state_dim, action_dim, cfg, q_params=_mlp_params("q", cfg.hidden, arrays),
                      v_params=_mlp_params("v", cfg.hidden, arrays))
