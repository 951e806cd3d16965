import json
import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genpolicy.data import (_NEAREST_BUDGET, OfflineDataset, SwissRollTask, _nearest,
                            assign_value_nearest, load_dataset, make_swiss_roll,
                            make_tilted_gaussian_bandit, save_dataset)
from genpolicy.errors import DataFormatError


class TestSwissRoll:
    def test_value_endpoints(self):
        task = SwissRollTask(n=50_000, seed=3)
        ds = make_swiss_roll(task)
        assert ds.r.min() >= -3.5
        assert ds.r.max() <= 1.5
        # innermost angles map to the bottom of the range, outermost to the top
        radii = np.sqrt((ds.a ** 2).sum(axis=1))
        assert ds.r[radii.argmin()] < -3.3
        assert ds.r[radii.argmax()] > 1.3

    def test_noiseless_points_lie_on_spiral(self):
        ds = make_swiss_roll(SwissRollTask(n=500, noise=0.0, seed=1))
        lo, hi = 1.5 * np.pi, 4.5 * np.pi
        theta = lo + (ds.r + 3.5) / 5.0 * (hi - lo)  # invert the linear value map
        spiral = np.stack([theta * np.cos(theta), theta * np.sin(theta)], axis=1)
        assert np.allclose(ds.a, spiral, atol=1e-9)

    def test_mean_value_matches_uniform_angle_integral(self):
        ds = make_swiss_roll(SwissRollTask(n=10_000, seed=0))
        assert abs(ds.r.mean() - (-1.0)) < 0.05

    def test_value_invariant_to_noise(self):
        noisy = make_swiss_roll(SwissRollTask(n=300, noise=0.6, seed=9))
        clean = make_swiss_roll(SwissRollTask(n=300, noise=0.0, seed=9))
        assert np.array_equal(noisy.r, clean.r)

    def test_deterministic_under_seed(self):
        d1 = make_swiss_roll(SwissRollTask(n=100, seed=5))
        d2 = make_swiss_roll(SwissRollTask(n=100, seed=5))
        assert np.array_equal(d1.a, d2.a) and np.array_equal(d1.r, d2.r)

    def test_bandit_framing(self):
        ds = make_swiss_roll(SwissRollTask(n=10))
        assert ds.state_dim == 1 and ds.action_dim == 2
        assert np.all(ds.done == 1.0)
        assert np.array_equal(ds.s, ds.s2)


class TestTiltedBandit:
    def test_closed_form_target(self):
        _, target = make_tilted_gaussian_bandit(1, 1.0, 100)
        assert np.allclose(target.mean, [1.0])
        assert np.allclose(target.std, [1.0])

    def test_zero_tilt_is_behavior(self):
        _, target = make_tilted_gaussian_bandit(3, 0.0, 100)
        assert np.allclose(target.mean, 0.0)

    def test_reward_mean_within_3_stderr(self):
        ds, _ = make_tilted_gaussian_bandit(2, 1.0, 40_000, seed=11)
        stderr = ds.r.std() / np.sqrt(ds.n)
        assert abs(ds.r.mean()) < 3 * stderr

    def test_monte_carlo_moments_match_closed_form(self):
        # tilt by reweighting 1e6 behavior draws with e^{beta r}
        rng = np.random.default_rng(0)
        a = rng.standard_normal(1_000_000)
        w = np.exp(1.0 * a)
        mean = np.average(a, weights=w)
        var = np.average((a - mean) ** 2, weights=w)
        ess = w.sum() ** 2 / (w ** 2).sum()
        assert abs(mean - 1.0) < 3 * np.sqrt(var / ess)
        assert abs(var - 1.0) < 0.02

    @settings(max_examples=10, deadline=None)
    @given(dims=st.integers(1, 4), beta=st.floats(0.0, 2.0))
    def test_shapes(self, dims, beta):
        ds, target = make_tilted_gaussian_bandit(dims, beta, 64, seed=1)
        assert ds.action_dim == dims
        assert target.mean.shape == (dims,)


class TestValidation:
    def test_row_count_mismatch(self):
        with pytest.raises(DataFormatError):
            OfflineDataset(s=np.zeros((3, 1)), a=np.zeros((4, 2)), r=np.zeros(4),
                           s2=np.zeros((4, 1)), done=np.ones(4))

    def test_non_finite_rejected_with_row(self):
        a = np.zeros((4, 2))
        a[2, 1] = np.inf
        with pytest.raises(DataFormatError, match="row 2"):
            OfflineDataset(s=np.zeros((4, 1)), a=a, r=np.zeros(4),
                           s2=np.zeros((4, 1)), done=np.ones(4))

    def test_done_flags_checked(self):
        with pytest.raises(DataFormatError):
            OfflineDataset(s=np.zeros((2, 1)), a=np.zeros((2, 1)), r=np.zeros(2),
                           s2=np.zeros((2, 1)), done=np.array([0.0, 0.5]))


class TestIO:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        ds = make_swiss_roll(SwissRollTask(n=64, seed=2))
        path = tmp_path / "roll.gpds"
        save_dataset(ds, str(path))
        back = load_dataset(str(path))
        for name in ("s", "a", "r", "s2", "done"):
            assert getattr(ds, name).tobytes() == getattr(back, name).tobytes()
        assert back.metadata == ds.metadata

    def test_loaded_columns_are_writable_and_each_load_its_own(self, tmp_path):
        ds = make_swiss_roll(SwissRollTask(n=16, seed=4))
        path = str(tmp_path / "roll.gpds")
        save_dataset(ds, path)
        first, second = load_dataset(path), load_dataset(path)
        for name in ("s", "a", "r", "s2", "done"):
            column = getattr(first, name)
            assert column.flags.writeable and column.flags.aligned
            column[...] = 7.0
            assert getattr(second, name).tobytes() == getattr(ds, name).tobytes()

    def test_empty_dataset_round_trip(self, tmp_path):
        ds = OfflineDataset(s=np.zeros((0, 1)), a=np.zeros((0, 2)), r=np.zeros(0),
                            s2=np.zeros((0, 1)), done=np.zeros(0), metadata={"task": "none"})
        path = tmp_path / "e.gpds"
        save_dataset(ds, str(path))
        back = load_dataset(str(path))
        assert back.n == 0
        assert back.action_dim == 2


def test_binary_dataset_bytes_follow_the_documented_layout(tmp_path):
    # magic, u32 version 1, u64 header length, sorted-key JSON header (no
    # "arrays" key), then s, a, r, s2, done as little-endian float64 in C order
    columns = {"s": [[0.0], [-0.0]], "a": [[0.5, -1.0], [2.0, 5e-324]], "r": [1.0, -3.25],
               "s2": [[1.0], [2.0]], "done": [1.0, 0.0]}
    ds = OfflineDataset(**columns, metadata={"task": "tiny", "seed": 3})
    path = tmp_path / "d.gpds"
    save_dataset(ds, str(path))
    header = json.dumps({"n": 2, "state_dim": 1, "action_dim": 2,
                         "metadata": {"task": "tiny", "seed": 3}}, sort_keys=True).encode("utf-8")
    flat = [np.ravel(columns[name]).tolist() for name in ("s", "a", "r", "s2", "done")]
    blobs = b"".join(struct.pack(f"<{len(v)}d", *v) for v in flat)
    assert path.read_bytes() == b"GPDS" + struct.pack("<IQ", 1, len(header)) + header + blobs


@settings(max_examples=300, deadline=None)
@given(pos=st.integers(0, 1 << 20), xor=st.integers(0, 255))
def test_garbled_binary_dataset_loads_or_raises_format_error(pos, xor):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "b.gpds")
        save_dataset(make_tilted_gaussian_bandit(2, 1.0, 6, seed=1)[0], path)
        with open(path, "rb") as fh:
            blob = fh.read()
        # xor 0 cuts the file at pos % len; any other value flips that one byte
        i = pos % len(blob)
        blob = blob[:i] if xor == 0 else blob[:i] + bytes([blob[i] ^ xor]) + blob[i + 1:]
        with open(path, "wb") as fh:
            fh.write(blob)
        try:
            load_dataset(path)
        except DataFormatError:
            pass


def test_nearest_helpers():
    ref = np.array([[0.0, 0.0], [10.0, 0.0]])
    pts = np.array([[1.0, 0.0], [9.0, 0.0]])
    ds = OfflineDataset(s=np.zeros((2, 1)), a=ref, r=np.array([5.0, 7.0]),
                        s2=np.zeros((2, 1)), done=np.ones(2))
    values, distances = assign_value_nearest(ds, pts)
    assert np.allclose(values, [5.0, 7.0])
    assert np.allclose(distances, [1.0, 1.0])


def _brute_force(pts, ref):
    """Every (point, reference) pair at once, the unblocked search:
    (nearest index, nearest distance)."""
    sq = ((pts[:, None, :] - ref[None, :, :]) ** 2).sum(axis=2)
    return sq.argmin(axis=1), np.sqrt(sq).min(axis=1)


@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("refs", [50, _NEAREST_BUDGET + 5])  # several blocks; one-row blocks
def test_chunked_nearest_search_matches_brute_force(d, refs):
    rng = np.random.default_rng([d, refs])
    ref = rng.standard_normal((refs, d))
    ref[17] = ref[4]  # a duplicated reference row: the tie goes to the first index
    rows = max(1, _NEAREST_BUDGET // refs)  # point rows per block
    pts = rng.standard_normal((2 * rows + 3, d))
    pts[-1] = ref[4]
    pts[rows + 1] = ref[17]
    want_idx, want_dist = _brute_force(pts, ref)
    assert want_idx[-1] == 4 and want_idx[rows + 1] == 4
    r = rng.standard_normal(refs)
    ds = OfflineDataset(s=np.zeros((refs, 1)), a=ref, r=r, s2=np.zeros((refs, 1)),
                        done=np.ones(refs))
    values, distances = assign_value_nearest(ds, pts)
    assert np.array_equal(values, r[want_idx])
    assert distances.tobytes() == want_dist.tobytes()
    assert [x.shape for x in assign_value_nearest(ds, pts[:0])] == [(0,), (0,)]


def test_nearest_index_matches_brute_force_beyond_seven_dims():
    # from d = 8 on, numpy's pairwise .sum reorders the distance sum, so
    # only the indices are compared
    rng = np.random.default_rng(9)
    ref, pts = rng.standard_normal((500, 9)), rng.standard_normal((300, 9))
    assert np.array_equal(_nearest(pts, ref)[0], _brute_force(pts, ref)[0])


@pytest.mark.parametrize("pts_shape, ref_shape", [((3, 3), (4, 2)), ((3, 1), (4, 2)),
                                                  ((3,), (4, 1)), ((3, 2), (0, 2))])
def test_nearest_index_rejects_mismatched_or_empty_reference(pts_shape, ref_shape):
    # a point with extra columns would otherwise be searched on its first ones only
    with pytest.raises(ValueError):
        _nearest(np.zeros(pts_shape), np.zeros(ref_shape))


def test_nearest_search_memory_is_one_block():
    rng = np.random.default_rng(13)
    ds, _ = make_tilted_gaussian_bandit(2, 1.0, 4096, seed=13)
    pts = rng.standard_normal((2048, 2))
    tracemalloc.start()
    try:
        assign_value_nearest(ds, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20, peak
