import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from genpolicy.errors import IntegrationDivergedError
from genpolicy.model import GenerativeModel
from genpolicy.nn import FieldNetwork
from genpolicy.sampler import SCHEMES, TABLEAUX, SolverSpec, Trajectory, generate, integrate
from genpolicy.schedules import PathSchedule
from genpolicy.tensor import Tensor

from oracles import matmul


def exp_field(x, t):
    return x


class TestIntegrate:
    @pytest.mark.parametrize("scheme", ["euler", "midpoint", "rk4_38"])
    @pytest.mark.parametrize("steps", [1, 7, 32])
    def test_zero_field_is_identity(self, scheme, steps):
        x0 = np.array([[1.0, -2.0, 3.0]])
        out = integrate(lambda x, t: x * 0.0, Tensor(x0), SolverSpec(scheme, steps))
        assert np.array_equal(out.data, x0)

    def test_rk4_hits_e(self):
        out = integrate(exp_field, Tensor(np.ones((1, 1))), SolverSpec("rk4_38", 32))
        assert abs(out.data[0, 0] - np.e) < 1e-6

    def _order(self, scheme):
        errs = []
        for steps in (16, 32, 64):
            out = integrate(exp_field, Tensor(np.ones((1, 1))), SolverSpec(scheme, steps))
            errs.append(abs(out.data[0, 0] - np.e))
        return [np.log2(errs[i] / errs[i + 1]) for i in range(2)]

    def test_euler_order_one(self):
        assert all(0.9 <= p <= 1.1 for p in self._order("euler"))

    def test_midpoint_order_two(self):
        assert all(1.8 <= p <= 2.2 for p in self._order("midpoint"))

    def test_rk4_order_four(self):
        assert all(p >= 3.8 for p in self._order("rk4_38"))

    def test_linear_field_matches_matrix_exponential(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) * 0.5
        x0 = rng.standard_normal((1, 3))
        out = integrate(lambda x, t: matmul(x, Tensor(a.T)), Tensor(x0), SolverSpec("rk4_38", 64))
        expect = x0 @ expm(a).T
        assert np.allclose(out.data, expect, atol=1e-7)

    def test_gradient_of_identity_flow_is_identity(self):
        x0 = Tensor(np.array([[0.3, -0.7]]), requires_grad=True)
        out = integrate(lambda x, t: x * 0.0, x0, SolverSpec("euler", 4))
        (out * np.array([[1.0, 0.0]])).sum().backward()
        assert np.allclose(x0.grad, [[1.0, 0.0]])

    def test_differentiable_through_unroll(self):
        x0 = Tensor(np.array([[1.0]]), requires_grad=True)
        out = integrate(exp_field, x0, SolverSpec("rk4_38", 16))
        out.sum().backward()
        # d/dx0 of x0*e^1 = e
        assert x0.grad[0, 0] == pytest.approx(np.e, rel=1e-6)

    def test_divergence_carries_step_index(self):
        def blowup(x, t):
            return (x.square() + 1.0) * 1e4

        with pytest.raises(IntegrationDivergedError) as excinfo:
            integrate(blowup, Tensor(np.ones((1, 1))), SolverSpec("euler", 50))
        assert 0 <= excinfo.value.step < 50

    def test_trajectory_matches_non_recorded_endpoint(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 2)) * 0.3
        x0 = rng.standard_normal((3, 2))
        spec = SolverSpec("midpoint", 9)
        plain = integrate(lambda x, t: matmul(x, Tensor(a)), Tensor(x0), spec)
        final, traj = integrate(lambda x, t: matmul(x, Tensor(a)), Tensor(x0), spec, record=True)
        assert isinstance(traj, Trajectory)
        assert plain.data.tobytes() == final.data.tobytes()
        assert traj.states.shape == (10, 3, 2)
        assert np.array_equal(traj.states[0], x0)
        diffs = np.diff(traj.times)
        assert np.all(diffs > 0) or np.all(diffs < 0)
        assert np.array_equal(traj.states[-1], final.data)


    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_tuple_state_steps_each_component_alone(self, scheme):
        # the field reads x alone; y integrates what the field returns for it,
        # and a stage whose weight b[i] is 0 may return the x rate alone
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal((2, 2)) * 0.4, rng.standard_normal((2, 3)) * 0.4
        x0, y0 = rng.standard_normal((4, 2)), rng.standard_normal((4, 3))
        spec = SolverSpec(scheme, 5)
        reads = []

        def both(v, t, read):
            reads.append(read)
            vx = matmul(v, Tensor(a)) * t
            return (vx, matmul(v, Tensor(b))) if read else (vx,)

        x, y = integrate(both, (Tensor(x0), Tensor(y0)), spec)
        assert reads == [w != 0.0 for w in TABLEAUX[scheme][1]] * spec.steps
        stage_inputs = []

        def field(v, t):
            stage_inputs.append(v.data)
            return matmul(v, Tensor(a)) * t

        alone_x = integrate(field, Tensor(x0), spec)
        assert x.data.tobytes() == alone_x.data.tobytes()
        weights, h = TABLEAUX[scheme][1], 1.0 / spec.steps
        expect = y0
        for step in range(spec.steps):
            for v, w in zip(stage_inputs[step * len(weights):], weights):
                if w:
                    expect = expect + (v @ b) * (w * h)
        assert y.data.tobytes() == expect.tobytes()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_tableau_is_consistent(scheme):
    a, b, c = TABLEAUX[scheme]
    assert len(a) == len(b) == len(c)
    assert [len(row) for row in a] == list(range(len(c)))  # explicit: a is strictly lower
    assert sum(b) == pytest.approx(1.0, abs=1e-15)
    for row, ci in zip(a, c):
        assert sum(row) == pytest.approx(ci, abs=1e-15)


class TestGenerate:
    def _model(self, kind="gvp", seed=0):
        rng = np.random.default_rng(seed)
        net = FieldNetwork(x_dim=2, state_dim=0, hidden=[16], rng=rng)
        return GenerativeModel(net, "velocity", PathSchedule(kind))

    def test_n_zero_short_circuits(self):
        model = self._model()
        out = generate(model, 0, SolverSpec("euler", 8), rng=np.random.default_rng(0))
        assert out.shape == (0, 2)

    def test_shapes_and_determinism(self):
        model = self._model()
        s1 = generate(model, 5, SolverSpec("euler", 8), rng=np.random.default_rng(7))
        s2 = generate(model, 5, SolverSpec("euler", 8), rng=np.random.default_rng(7))
        assert s1.shape == (5, 2)
        assert np.array_equal(s1, s2)

    def test_condition_row_check(self):
        rng = np.random.default_rng(0)
        net = FieldNetwork(x_dim=2, state_dim=1, hidden=[8], rng=rng)
        model = GenerativeModel(net, "velocity", PathSchedule("gvp"))
        with pytest.raises(ValueError):
            generate(model, 3, SolverSpec("euler", 4), condition=np.zeros((2, 1)), rng=rng)

    def test_icfm_direction(self):
        # for icfm noise lives at t=0; generation must integrate upward
        model = self._model("icfm")
        _, traj = generate(model, 2, SolverSpec("euler", 4), rng=np.random.default_rng(3), record=True)
        assert traj.times[0] < traj.times[-1]

    def test_diffusion_direction(self):
        model = self._model("gvp")
        _, traj = generate(model, 2, SolverSpec("euler", 4), rng=np.random.default_rng(3), record=True)
        assert traj.times[0] > traj.times[-1]

    def test_recorded_solve_holds_its_path_once(self):
        # the path is held once, in one (T+1, n, d) array: at 8x8 the
        # network's temporaries are small, so the solve peaks near the
        # trajectory's bytes
        rng = np.random.default_rng(4)
        net = FieldNetwork(x_dim=2, state_dim=0, hidden=[8, 8], rng=rng)
        model = GenerativeModel(net, "velocity", PathSchedule("gvp"))
        tracemalloc.start()
        try:
            _, traj = generate(model, 256, SolverSpec("euler", 512), rng=rng, record=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.states.shape == (513, 256, 2)
        assert peak < 1.5 * traj.states.nbytes, peak / traj.states.nbytes


def test_solver_spec_validation():
    with pytest.raises(ValueError):
        SolverSpec("rk5", 8)
    with pytest.raises(ValueError):
        SolverSpec("euler", 0)
