"""Synthetic offline datasets with analytically known structure, I/O, and
the nearest-value search that scores generated actions against a dataset.

Both toy tasks are single-state contextual bandits (every transition is
terminal, s' = s), which lets the same critic and policy machinery run
unchanged: the value head collapses to a scalar and Q regresses directly
onto the reward surface over actions.

Dataset file format (documented for cross-implementation use): magic
``GPDS``, u32 version (1), u64 header length, UTF-8 JSON header {n,
state_dim, action_dim, metadata}, then raw little-endian float64 C-order
blobs in the order s, a, r, s2, done. Any arrays become such a file in one
call: ``save_dataset(OfflineDataset(s=..., a=..., r=..., s2=..., done=...), path)``.

The binary container (``write_container``/``read_container``) is shared
with the checkpoints, and ``csv_lines`` formats every CSV output and
metrics file the package writes.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, data_format_errors

_MAGIC = b"GPDS"
_VERSION = 1


@dataclass
class OfflineDataset:
    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    s2: np.ndarray
    done: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.s = np.atleast_2d(np.asarray(self.s, dtype=float))
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.s2 = np.atleast_2d(np.asarray(self.s2, dtype=float))
        self.r = np.asarray(self.r, dtype=float).reshape(-1)
        self.done = np.asarray(self.done, dtype=float).reshape(-1)
        n = self.a.shape[0]
        for name, arr in (("s", self.s), ("s2", self.s2), ("r", self.r), ("done", self.done)):
            if arr.shape[0] != n:
                raise DataFormatError(f"column {name!r} has {arr.shape[0]} rows, expected {n}")
        for name, arr in (("s", self.s), ("a", self.a), ("r", self.r), ("s2", self.s2)):
            bad = ~np.isfinite(arr)
            if bad.any():
                row = int(np.argwhere(bad)[0][0])
                raise DataFormatError(f"non-finite value in column {name!r} at row {row}")
        if not np.all(np.isin(self.done, (0.0, 1.0))):
            row = int(np.argwhere(~np.isin(self.done, (0.0, 1.0)))[0][0])
            raise DataFormatError(f"done flag outside {{0,1}} at row {row}")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def state_dim(self) -> int:
        return self.s.shape[1]

    @property
    def action_dim(self) -> int:
        return self.a.shape[1]


@dataclass
class SwissRollTask:
    n: int = 10_000
    noise: float = 0.6
    value_range: tuple = (-3.5, 1.5)
    angle_range: tuple = (1.5 * math.pi, 4.5 * math.pi)
    seed: int = 0


def make_swiss_roll(task: SwissRollTask) -> OfflineDataset:
    """Planar spiral bandit: actions are noisy spiral points, reward is
    linear in the spiral angle over its range (mean value is the midpoint,
    -1.0 for the default range). The value is assigned from the pre-noise
    angle, so observation noise never moves it."""
    if task.n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(task.seed)
    lo, hi = task.angle_range
    theta = rng.uniform(lo, hi, size=task.n)
    spiral = np.stack([theta * np.cos(theta), theta * np.sin(theta)], axis=1)
    with np.errstate(over="ignore"):  # an overflow to inf is refused below, as non-finite
        a = spiral + task.noise * rng.standard_normal((task.n, 2))
    v_lo, v_hi = task.value_range
    r = v_lo + (theta - lo) / (hi - lo) * (v_hi - v_lo)
    s = np.zeros((task.n, 1))
    return OfflineDataset(
        s=s, a=a, r=r, s2=s.copy(), done=np.ones(task.n),
        metadata={
            "task": "swiss_roll", "seed": task.seed, "noise": task.noise,
            "angle_range": list(task.angle_range), "value_range": list(task.value_range),
            "value_map": "linear in spiral angle over angle_range",
        })


@dataclass
class TiltedTarget:
    """Closed-form optimum of the exponentially tilted Gaussian bandit:
    e^{beta * sum(a)} N(a; 0, I) is proportional to N(a; beta * 1, I)."""
    mean: np.ndarray
    std: np.ndarray
    beta: float


def make_tilted_gaussian_bandit(dims: int, beta_target: float, n: int,
                                seed: int = 0) -> tuple[OfflineDataset, TiltedTarget]:
    """Behavior a ~ N(0, I), reward r = sum_i a_i (so the true Q is linear)."""
    if dims < 1:
        raise ValueError("dims must be >= 1")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, dims))
    r = a.sum(axis=1)
    s = np.zeros((n, 1))
    dataset = OfflineDataset(
        s=s, a=a, r=r, s2=s.copy(), done=np.ones(n),
        metadata={"task": "tilted_gaussian_bandit", "dims": dims,
                  "beta_target": beta_target, "seed": seed})
    target = TiltedTarget(mean=np.full(dims, beta_target), std=np.ones(dims), beta=beta_target)
    return dataset, target


# -- nearest-value search (every eval and eval_value score) -----------------

# Distances per block of the nearest search: a block holds
# max(1, _NEAREST_BUDGET // refs) point rows, and its two float64
# (rows x refs) buffers take 512 KiB each, so they stay in cache.
_NEAREST_BUDGET = 1 << 16


def _nearest(points: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row of ``reference`` nearest to each point (the first one on ties),
    and the Euclidean distance to it.

    Sweeps one dimension at a time over blocks of point rows (see
    ``_NEAREST_BUDGET``): ``d2 = (p_0 - r_0)^2``, then ``d2 += (p_j - r_j)^2``
    for j = 1 .. d-1, then ``argmin``. Accumulating in dimension order gives
    exactly numpy's ``((p - r) ** 2).sum(axis=-1)`` for d <= 7; from d = 8 on,
    numpy's pairwise summation reorders the sum, so a distance may differ
    from it in the last bit.
    """
    if points.ndim != 2 or reference.ndim != 2 or points.shape[1] != reference.shape[1]:
        raise ValueError(f"points of shape {points.shape} do not match reference rows "
                         f"of shape {reference.shape}")
    n, refs = points.shape[0], reference.shape[0]
    idx, dist = np.empty(n, dtype=np.intp), np.empty(n)
    rows = max(1, _NEAREST_BUDGET // max(refs, 1))
    d2, term = np.empty((min(rows, n), refs)), np.empty((min(rows, n), refs))
    columns = [np.ascontiguousarray(reference[:, j]) for j in range(reference.shape[1])]
    for lo in range(0, n, rows):
        block = points[lo:lo + rows]
        acc, buf = d2[:block.shape[0]], term[:block.shape[0]]
        np.subtract.outer(block[:, 0], columns[0], out=acc)
        np.square(acc, out=acc)
        for j in range(1, len(columns)):
            np.subtract.outer(block[:, j], columns[j], out=buf)
            np.square(buf, out=buf)
            acc += buf
        best = acc.argmin(axis=1)
        idx[lo:lo + rows] = best
        dist[lo:lo + rows] = acc[np.arange(block.shape[0]), best]
    return idx, np.sqrt(dist, out=dist)


def assign_value_nearest(dataset: OfflineDataset,
                         points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value of arbitrary action points and their distance to the data
    manifold: the reward of the nearest dataset action (the first one on
    ties) and the distance to it, both from one ``_nearest`` search."""
    idx, dist = _nearest(points, dataset.a)
    return dataset.r[idx], dist


# -- file I/O ---------------------------------------------------------------

def csv_lines(rows):
    """One comma-separated line per row, lazily: a float (``np.float64``
    too) as %.17g, None as an empty field, any other value as ``str``
    gives it. Rows of Python floats (``array.tolist()``) format fastest."""
    return (",".join([f"{v:.17g}" if isinstance(v, float) else "" if v is None else str(v)
                      for v in row]) + "\n" for row in rows)


def write_csv(path: str, columns: list[str], rows=()) -> None:
    """A '# '-prefixed header line, then one comma-separated line per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# ")
        fh.writelines(csv_lines([columns]))
        fh.writelines(csv_lines(rows))


def write_container(path: str, magic: bytes, header: dict, arrays) -> None:
    """The binary container: ``magic``, u32 version, u64 header length,
    the sorted-key JSON ``header``, then each array as little-endian
    float64 in C order."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<IQ", _VERSION, len(blob)))
        fh.write(blob)
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_container(path: str, magic: bytes, shapes) -> tuple[dict, list[np.ndarray]]:
    """(header, arrays) of a ``write_container`` file; ``shapes(header)``
    gives the shape of every array in file order. The arrays are views
    into one writable float64 buffer that the file's array bytes are read
    into, so a load holds the arrays once, and each load its own buffer. A
    truncated or garbled file, or bytes left over after the arrays, is a
    ``DataFormatError``, raised before the buffer is allocated."""
    with open(path, "rb") as fh, data_format_errors(path):
        size = os.fstat(fh.fileno()).st_size
        lead = fh.read(4 + struct.calcsize("<IQ"))
        if lead[:4] != magic:
            raise DataFormatError(f"{path}: bad magic {lead[:4]!r}, expected {magic!r}")
        version, hlen = struct.unpack_from("<IQ", lead, 4)
        if version != _VERSION:
            raise DataFormatError(f"{path}: unsupported container version {version}")
        if hlen > size - len(lead):
            raise DataFormatError(f"{path}: a {hlen}-byte header in a {size}-byte file")
        header = json.loads(fh.read(hlen).decode("utf-8"))
        layout = []
        for shape in shapes(header):
            shape = tuple(shape)
            if not all(type(n) is int and n >= 0 for n in shape):
                raise DataFormatError(f"{path}: bad array shape {shape}")
            layout.append(shape)
        counts = [math.prod(shape) for shape in layout]
        have = size - len(lead) - hlen
        if 8 * sum(counts) != have:
            raise DataFormatError(f"{path}: {have} bytes of arrays do not match the header's "
                                  f"{8 * sum(counts)}")
        buf = np.empty(sum(counts), dtype="<f8")
        if fh.readinto(buf) != have:
            raise DataFormatError(f"{path}: the file changed while it was read")
    arrays, off = [], 0
    for shape, count in zip(layout, counts):
        arrays.append(buf[off:off + count].reshape(shape))
        off += count
    return header, arrays


def save_dataset(dataset: OfflineDataset, path: str) -> None:
    header = {"n": dataset.n, "state_dim": dataset.state_dim,
              "action_dim": dataset.action_dim, "metadata": dataset.metadata}
    write_container(path, _MAGIC, header,
                    (dataset.s, dataset.a, dataset.r, dataset.s2, dataset.done))


def _dataset_shapes(header: dict) -> list[tuple]:
    n, sd, ad = header["n"], header["state_dim"], header["action_dim"]
    return [(n, sd), (n, ad), (n,), (n, sd), (n,)]


def load_dataset(path: str) -> OfflineDataset:
    """A ``save_dataset`` file; a truncated or garbled one, a file of any
    other format included, raises ``DataFormatError``."""
    header, (s, a, r, s2, done) = read_container(path, _MAGIC, _dataset_shapes)
    return OfflineDataset(s=s, a=a, r=r, s2=s2, done=done, metadata=header.get("metadata", {}))
