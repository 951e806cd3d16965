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

The nearest-value search (``assign_value_nearest``, ``_nearest``) is
exact: a sweep along the sorted first coordinate (``_sweep``) settles
most points from a few hundred dataset rows and hands the rest to a
blocked scan over every row (``_scan``); both compute a distance with the
same operations in the same order, so the indices, the first-index ties
and the distance bytes are the scan's for every dimension. Its buffers
hold at most ``_NEAREST_BUDGET`` floats each. On one core of a Xeon
(numpy 2.4), 2048 points against 4096 tilted-bandit actions (d = 2)
took 0.25-0.45x the scan's time (3-7 ms against 12-18 ms). Where the
sweep settles too few points (an integer grid, an all-equal first
coordinate, Gaussian d = 3 or 8, all at 2048 x 4096) it took 1.1-1.35x
the scan's time, and on the spiral benchmark's 384 points against 4096,
whose arms cross every strip of the first coordinate, 1.0-1.4x (at most
about 1 ms more).
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

# Float64 elements in each buffer of the nearest search, so that a buffer
# takes at most 512 KiB and stays in cache: a scan block holds
# max(1, _NEAREST_BUDGET // refs) points against every reference row, a
# sweep block max(1, _NEAREST_BUDGET // (2 * width)) points against the
# 2 * width rows of one round. A search holds a few such buffers at once
# and a sorted copy of the reference with its row order, about
# (d + 2) * refs numbers, however many points it scores: at 2048 points
# and 4096 rows its tracemalloc peak was 1.3 MiB (Gaussian, d = 2),
# 1.4 MiB (integer grid, d = 2) and 1.9 MiB (Gaussian, d = 8); the
# scan's alone was 1.1-1.3 MiB.
_NEAREST_BUDGET = 1 << 16
# Rounds of the sweep before a point still open goes to the scan.
_SWEEP_ROUNDS = 4


def _scan(points: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, squared distance) of the ``reference`` row nearest to each
    point, the first one on ties, from every (point, reference row) pair.

    Accumulates one dimension at a time over blocks of point rows (see
    ``_NEAREST_BUDGET``): ``d2 = (p_0 - r_0)^2``, then ``d2 += (p_j - r_j)^2``
    for j = 1 .. d-1, then ``argmin``. Accumulating in dimension order gives
    exactly numpy's ``((p - r) ** 2).sum(axis=-1)`` for d <= 7; from d = 8 on,
    numpy's pairwise summation reorders the sum, so a distance may differ
    from it in the last bit.
    """
    n, refs = points.shape[0], reference.shape[0]
    idx, dist = np.empty(n, dtype=np.intp), np.empty(n)
    rows = max(1, _NEAREST_BUDGET // refs)
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
    return idx, dist


def _sweep(points: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_scan``'s result, index and distance bytes alike, from a projection
    search on the first coordinate (Friedman, Baskett & Shustek, IEEE Trans.
    Computers C-24, 1975).

    The reference rows are sorted by their first coordinate (a stable
    ``argsort``), and each point walks outward from its ``searchsorted``
    position: round k examines the k-th ``width = max(16, isqrt(refs))``
    sorted rows on either side, in blocks of points (see
    ``_NEAREST_BUDGET``), with the scan's own operations on each pair. A side
    is done once ``fl((p_0 - r_0)^2)`` at its outermost examined row is
    strictly greater than the point's best squared distance: under
    round-to-nearest no distance is below that term, and it only grows
    further out, so no row beyond can beat or tie the best. Among equal
    distances the smallest original index wins, as in the scan. Points still
    open after ``_SWEEP_ROUNDS`` rounds go to the scan, and so do all open
    points of a block once a round settles fewer than half of them; a point
    with a non-finite coordinate never settles. The width follows the
    reference count because in the plane the rows a point must examine
    grow as its square root.
    """
    n, (refs, d) = points.shape[0], reference.shape
    width = max(16, math.isqrt(refs))
    pad = width * _SWEEP_ROUNDS  # end rows at -inf and +inf: no side ever walks past them
    order = np.argsort(reference[:, 0], kind="stable")
    cols = np.zeros((d, refs + 2 * pad))
    cols[:, pad:pad + refs] = reference[order].T
    cols[0, :pad], cols[0, pad + refs:] = -np.inf, np.inf
    rank = np.full(refs + 2 * pad, refs)  # original index of each sorted row
    rank[pad:pad + refs] = order
    windows = np.lib.stride_tricks.sliding_window_view(cols, width, axis=1)
    idx, dist = np.empty(n, dtype=np.intp), np.empty(n)
    block, span = max(1, _NEAREST_BUDGET // (2 * width)), np.arange(width)
    unsettled = [np.arange(0)]
    for lo in range(0, n, block):
        p = points[lo:lo + block]
        at = np.arange(lo, lo + p.shape[0])
        pos = np.searchsorted(cols[0, pad:pad + refs], p[:, 0]) + pad
        best, near = np.full(p.shape[0], np.inf), np.full(p.shape[0], refs)
        for k in range(_SWEEP_ROUNDS):
            m, rows = p.shape[0], np.arange(p.shape[0])
            starts = np.stack([pos - (k + 1) * width, pos + k * width], axis=1)
            with np.errstate(invalid="ignore"):  # an infinite point meets an end row
                d2 = windows[0][starts].reshape(m, 2 * width)
                np.subtract(p[:, :1], d2, out=d2)
                np.square(d2, out=d2)
                edge = np.minimum(d2[:, 0], d2[:, -1])
                for j in range(1, d):
                    term = windows[j][starts].reshape(m, 2 * width)
                    np.subtract(p[:, j:j + 1], term, out=term)
                    np.square(term, out=term)
                    d2 += term
            first = d2.argmin(axis=1)
            low = d2[rows, first]
            done = edge > np.minimum(best, low)
            last = k + 1 == _SWEEP_ROUNDS or 2 * np.count_nonzero(done) < m
            cand = rank[np.where(first < width, starts[:, 0], starts[:, 1] - width) + first]
            d2[rows, first] = np.inf
            tie = d2[rows, d2.argmin(axis=1)] == low
            if last:  # the open points go to the scan
                tie &= done
            tied = np.flatnonzero(tie)
            if tied.size:
                d2[tied, first[tied]] = low[tied]
                examined = (starts[tied, :, None] + span).reshape(tied.size, 2 * width)
                cand[tied] = np.where(d2[tied] == low[tied, None], rank[examined], refs).min(axis=1)
            near = np.where((low < best) | ((low == best) & (cand < near)), cand, near)
            np.minimum(best, low, out=best)
            idx[at[done]], dist[at[done]] = near[done], best[done]
            d2 = term = examined = None  # freed before the next round gathers its own
            left = ~done
            p, at, pos, best, near = p[left], at[left], pos[left], best[left], near[left]
            if last or not p.shape[0]:
                break
        unsettled.append(at)
    at = np.concatenate(unsettled)
    if at.size:
        idx[at], dist[at] = _scan(points[at], reference)
    return idx, dist


def _nearest(points: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row of ``reference`` nearest to each point (the first one on ties),
    and the Euclidean distance to it, found exactly by ``_sweep``: its
    indices and distance bytes are those of the blocked scan ``_scan``.
    Its memory is a few ``_NEAREST_BUDGET`` buffers and a sorted copy of
    ``reference``, whatever the number of points; where the sweep settles
    too few points it costs up to about 1.35x the scan's time (see the
    module docstring)."""
    if (points.ndim != 2 or reference.ndim != 2 or points.shape[1] != reference.shape[1]
            or reference.shape[0] == 0):
        raise ValueError(f"points of shape {points.shape} do not match reference rows "
                         f"of shape {reference.shape}")
    idx, d2 = _sweep(points, reference)
    return idx, np.sqrt(d2, out=d2)


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
