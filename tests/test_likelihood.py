import math

import numpy as np
import pytest
from scipy.linalg import expm

from genpolicy.likelihood import (LogDensityResult, TraceMode, generate_with_log_prob, log_prob,
                                  trace_with_jvp)
from genpolicy.model import GenerativeModel
from genpolicy.nn import FieldNetwork
from genpolicy.sampler import SCHEMES, SolverSpec, generate
from genpolicy.schedules import PathSchedule, prior_logpdf
from genpolicy.tensor import Tensor

from oracles import jacobian_trace, matmul, recorded_nodes


class LinearModel:
    """Model stub with velocity A x (known flow: matrix exponential)."""

    def __init__(self, a, kind="gvp"):
        self.a = np.asarray(a, dtype=float)
        self.schedule = PathSchedule(kind)
        self.net = type("N", (), {"x_dim": self.a.shape[0]})()
        self.parameterization = "velocity"

    def velocity(self, x, t, condition=None):
        return matmul(x, Tensor(self.a.T))

    def velocity_jvp(self, x, t, condition, u):
        return matmul(x, Tensor(self.a.T)), Tensor(u @ self.a.T)


def zero_weight_model(dim=2, bias=None, kind="gvp", state_dim=0):
    net = FieldNetwork(dim, state_dim, [8], np.random.default_rng(0))
    for w in net.mlp.weights:
        w.data = np.zeros_like(w.data)
    if bias is not None:
        net.mlp.biases[-1].data = np.asarray(bias, dtype=float)
    return GenerativeModel(net, "velocity", PathSchedule(kind))


class TestJacobianTrace:
    def test_identity_field_exact(self):
        tr, se = jacobian_trace(lambda x, t: x, np.zeros((1, 2)), 0.5)
        assert tr[0] == pytest.approx(2.0)
        assert se[0] == 0.0

    def test_constant_field_zero_trace_zero_variance(self):
        tr, se = jacobian_trace(lambda x, t: x * 0.0 + np.array([1.0, -2.0, 3.0]),
                                np.zeros((1, 3)), 0.1,
                                TraceMode("hutchinson", n_probes=8), np.random.default_rng(0))
        assert tr[0] == pytest.approx(0.0, abs=1e-12)
        assert se[0] == pytest.approx(0.0, abs=1e-12)

    def test_hutchinson_linear_field_within_3_stderr(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4))
        tr, se = jacobian_trace(lambda x, t: matmul(x, Tensor(a.T)), rng.standard_normal((1, 4)), 0.0,
                                TraceMode("hutchinson", n_probes=10_000), np.random.default_rng(2))
        assert abs(tr[0] - np.trace(a)) < 3 * se[0]

    def test_jvp_path_matches_reverse_fallback(self):
        rng = np.random.default_rng(3)
        model = LinearModel(rng.standard_normal((3, 3)))
        x = rng.standard_normal((4, 3))
        via_jvp, _ = jacobian_trace(model_view(model), x, 0.5)
        plain, _ = jacobian_trace(lambda xx, t: model.velocity(xx, t), x, 0.5)
        assert np.allclose(via_jvp, plain, rtol=1e-12)
        assert np.allclose(via_jvp, np.trace(model.a))

    def test_unbiased_over_repetitions(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 4))
        model = LinearModel(a)
        x = rng.standard_normal((1, 4))
        hits = 0
        for rep in range(50):
            tr, se = jacobian_trace(model_view(model), x, 0.2,
                                    TraceMode("hutchinson", n_probes=64),
                                    np.random.default_rng(100 + rep))
            if abs(tr[0] - np.trace(a)) <= 3 * se[0]:
                hits += 1
        assert hits >= 47

    def test_variance_scales_inverse_n(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((4, 4))
        model = LinearModel(a)
        x = rng.standard_normal((1, 4))
        ns = [1, 2, 4, 8, 16, 32, 64, 128]
        variances = []
        for n in ns:
            ests = [jacobian_trace(model_view(model), x, 0.2,
                                   TraceMode("hutchinson", n_probes=n),
                                   np.random.default_rng(1000 + n * 300 + r))[0][0]
                    for r in range(100)]
            variances.append(np.var(ests))
        slope = np.polyfit(np.log(ns), np.log(variances), 1)[0]
        assert -1.2 <= slope <= -0.8

    def test_bad_modes_rejected(self):
        with pytest.raises(ValueError):
            TraceMode("hutchinson", n_probes=0)
        with pytest.raises(ValueError):
            TraceMode("exact-ish")


def model_view(model):
    class V:
        def __call__(self, x, t):
            return model.velocity(x, t)

        def jvp(self, x, t, u):
            return model.velocity_jvp(x, t, None, u)

    return V()


class TestLogProb:
    def test_identity_flow_prior_density(self):
        model = zero_weight_model(dim=2)
        res = log_prob(model, np.zeros((1, 2)), SolverSpec("euler", 16))
        assert isinstance(res, LogDensityResult)
        assert res.logp_values[0] == pytest.approx(-math.log(2 * math.pi), abs=1e-12)
        assert res.stderr[0] == 0.0

    def test_constant_field_is_translation(self):
        c = np.array([0.7, -0.4])
        model = zero_weight_model(dim=2, bias=c, kind="gvp")
        x = np.array([[0.2, 0.1]])
        span = model.schedule.noise_time - model.schedule.data_time
        res = log_prob(model, x, SolverSpec("rk4_38", 32))
        expect = prior_logpdf(x + span * c)
        assert res.logp_values[0] == pytest.approx(expect[0], abs=1e-9)

    @pytest.mark.parametrize("kind", ["gvp", "icfm"])
    def test_linear_field_matches_matrix_exponential_density(self, kind):
        rng = np.random.default_rng(8)
        a = 0.4 * rng.standard_normal((2, 2))
        model = LinearModel(a, kind)
        sched = model.schedule
        span = sched.noise_time - sched.data_time  # signed travel data -> prior
        x = rng.standard_normal((5, 2))
        res = log_prob(model, x, SolverSpec("rk4_38", 64))
        m = expm(span * a)
        z = x @ m.T
        expect = prior_logpdf(z) + span * np.trace(a)
        assert np.allclose(res.logp_values, expect, atol=1e-6)

    def test_exact_and_hutchinson_agree_in_expectation(self):
        rng = np.random.default_rng(9)
        a = 0.3 * rng.standard_normal((2, 2))
        model = LinearModel(a)
        x = rng.standard_normal((3, 2))
        exact = log_prob(model, x, SolverSpec("euler", 32)).logp_values
        hutch = log_prob(model, x, SolverSpec("euler", 32),
                         TraceMode("hutchinson", 256), np.random.default_rng(10))
        assert np.allclose(hutch.logp_values, exact, atol=4 * hutch.stderr.max() + 1e-8)
        assert np.all(np.isfinite(hutch.stderr))

    def test_differentiable_wrt_data_point(self):
        rng = np.random.default_rng(11)
        net = FieldNetwork(2, 0, [8], rng)
        model = GenerativeModel(net, "velocity", PathSchedule("gvp"))
        x0 = rng.standard_normal((1, 2))
        spec = SolverSpec("euler", 50)

        leaf = Tensor(x0, requires_grad=True)
        log_prob(model, leaf, spec).logp.sum().backward()
        ad = leaf.grad.copy()
        h = 1e-5
        fd = np.zeros_like(x0)
        for j in range(2):
            hi, lo = x0.copy(), x0.copy()
            hi[0, j] += h
            lo[0, j] -= h
            fd[0, j] = (log_prob(model, hi, spec).logp_values[0]
                        - log_prob(model, lo, spec).logp_values[0]) / (2 * h)
        assert np.abs(ad - fd).max() / (np.abs(fd).max() + 1e-8) < 1e-3

    def test_differentiable_wrt_parameters(self):
        from oracles import param_grad_check
        rng = np.random.default_rng(12)
        net = FieldNetwork(2, 0, [8], rng)
        model = GenerativeModel(net, "velocity", PathSchedule("gvp"))
        x = np.array([[0.4, -0.2]])
        spec = SolverSpec("euler", 50)
        err = param_grad_check(lambda: log_prob(model, x, spec).logp.sum(),
                               model.parameters(), sample=3, rng=np.random.default_rng(13))
        assert err < 1e-3


class TestGenerateWithLogProb:
    def test_agrees_with_log_prob_on_linear_flow(self):
        rng = np.random.default_rng(14)
        a = 0.3 * rng.standard_normal((2, 2))
        model = LinearModel(a)
        spec = SolverSpec("rk4_38", 64)
        x, logp, _ = generate_with_log_prob(model, 6, spec, rng=np.random.default_rng(15))
        back = log_prob(model, x.data, spec)
        assert np.allclose(logp.data, back.logp_values, atol=1e-6)

    def test_density_integrates_to_one_on_grid(self):
        # Monte-Carlo integral of exp(log_prob) for a mildly contracted
        # linear flow over a bounding box should be ~1.
        a = np.array([[-0.3, 0.1], [0.0, -0.2]])
        model = LinearModel(a)
        grid = np.linspace(-6, 6, 61)
        xx, yy = np.meshgrid(grid, grid)
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        res = log_prob(model, pts, SolverSpec("rk4_38", 32))
        cell = (grid[1] - grid[0]) ** 2
        mass = np.exp(res.logp_values).sum() * cell
        assert 0.9 <= mass <= 1.1


def reference_trace(jvp_fn, x, t, mode, probes=None):
    """Per-tangent loop: one JVP call per basis vector or probe.

    Returns (n_estimates, batch), the exact trace as a single row or one
    row per probe, for comparison with the stacked sweep.
    """
    batch, d = x.shape
    if mode.kind == "exact":
        tangents = [np.tile(e, (batch, 1)) for e in np.eye(d)]
    else:
        tangents = list(probes)
    rows = [(jvp_fn(x, t, u)[1].data * u).sum(axis=1) for u in tangents]
    est = np.stack(rows)
    return est.sum(axis=0, keepdims=True) if mode.kind == "exact" else est


HEADS = [("velocity", "gvp"), ("noise", "vpsde"), ("score", "vpsde")]


class TestStackedTraceSweep:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("hidden", [[16, 16], [16]], ids=["two-layers", "one-layer"])
    @pytest.mark.parametrize("state_dim", [0, 2])
    @pytest.mark.parametrize("head", HEADS, ids=[h for h, _ in HEADS])
    @pytest.mark.parametrize("mode", [TraceMode(), TraceMode("hutchinson", 3)],
                             ids=["exact", "hutchinson"])
    def test_matches_per_tangent_loop(self, d, hidden, state_dim, head, mode):
        rng = np.random.default_rng(40 + d)
        net = FieldNetwork(d, state_dim, hidden, rng, t_emb_width=8)
        model = GenerativeModel(net, head[0], PathSchedule(head[1]))
        batch = 5
        x = Tensor(rng.standard_normal((batch, d)))
        cond = Tensor(rng.standard_normal((batch, state_dim))) if state_dim else None
        probes = rng.standard_normal((mode.n_probes, batch, d)) if mode.kind == "hutchinson" else None

        def jvp_fn(xx, t, u):
            return model.velocity_jvp(xx, t, cond, u)

        v, est = trace_with_jvp(jvp_fn, x, 0.4, mode, probes)
        expect = reference_trace(jvp_fn, x, 0.4, mode, probes)
        assert est.shape == expect.shape == (1 if mode.kind == "exact" else 3, batch)
        assert np.allclose(est.data, expect, rtol=0.0, atol=1e-12)
        # the velocity comes from the same call, op for op the plain forward
        assert np.array_equal(v.data, model.velocity(x, 0.4, cond).data)

    def test_exact_sweep_is_the_jacobian_trace(self):
        rng = np.random.default_rng(50)
        net = FieldNetwork(3, 1, [16], rng, t_emb_width=8)
        model = GenerativeModel(net, "velocity", PathSchedule("gvp"))
        x = rng.standard_normal((4, 3))
        cond = Tensor(rng.standard_normal((4, 1)))
        _, est = trace_with_jvp(lambda xx, t, u: model.velocity_jvp(xx, t, cond, u),
                                Tensor(x), 0.3, TraceMode())
        h = 1e-6
        fd = np.zeros(4)
        for i in range(3):
            step = np.zeros(3)
            step[i] = h
            hi = model.velocity(Tensor(x + step), 0.3, cond).data[:, i]
            lo = model.velocity(Tensor(x - step), 0.3, cond).data[:, i]
            fd += (hi - lo) / (2 * h)
        assert np.allclose(est.data[0], fd, atol=1e-6)


    def test_exact_stage_records_one_network_node_plus_three(self):
        # one network node; the output's primal rows and its tangent rows;
        # one trace node. The time features, the condition and the
        # tangent seeds are constants and record nothing.
        rng = np.random.default_rng(51)
        net = FieldNetwork(2, 1, [16, 16], rng, t_emb_width=8)
        model = GenerativeModel(net, "velocity", PathSchedule("gvp"))
        x = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        cond = rng.standard_normal((4, 1))
        v, est = trace_with_jvp(lambda xx, t, u: model.velocity_jvp(xx, t, cond, u),
                                x, 0.3, TraceMode())
        assert recorded_nodes(v, est) == 4


class CountingModel:
    """Wraps a model and counts its forward and JVP evaluations."""

    def __init__(self, model):
        self.model = model
        self.schedule = model.schedule
        self.net = model.net
        self.velocity_calls = 0
        self.jvp_calls = 0

    def velocity(self, x, t, condition=None):
        self.velocity_calls += 1
        return self.model.velocity(x, t, condition)

    def velocity_jvp(self, x, t, condition, u):
        self.jvp_calls += 1
        return self.model.velocity_jvp(x, t, condition, u)


# (JVP stages, velocity-only stages) per step: a stage whose weight b[i] is 0,
# midpoint's first, evaluates the velocity alone
STAGES = {"euler": (1, 0), "midpoint": (1, 1), "rk4_38": (4, 0)}


class TestOneEvaluationPerStage:
    @pytest.mark.parametrize("scheme", sorted(STAGES))
    @pytest.mark.parametrize("mode", [TraceMode(), TraceMode("hutchinson", 3)],
                             ids=["exact", "hutchinson"])
    def test_log_prob(self, scheme, mode):
        counted = CountingModel(zero_weight_model(dim=2))
        log_prob(counted, np.zeros((3, 2)), SolverSpec(scheme, 5), mode, np.random.default_rng(0))
        assert counted.jvp_calls == 5 * STAGES[scheme][0]
        assert counted.velocity_calls == 5 * STAGES[scheme][1]

    @pytest.mark.parametrize("scheme", sorted(STAGES))
    @pytest.mark.parametrize("mode", [TraceMode(), TraceMode("hutchinson", 3)],
                             ids=["exact", "hutchinson"])
    def test_generate_with_log_prob(self, scheme, mode):
        counted = CountingModel(zero_weight_model(dim=2))
        generate_with_log_prob(counted, 3, SolverSpec(scheme, 5), mode, np.random.default_rng(0))
        assert counted.jvp_calls == 5 * STAGES[scheme][0]
        assert counted.velocity_calls == 5 * STAGES[scheme][1]


@pytest.mark.parametrize("kind", ["gvp", "icfm"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_samples_with_log_prob_equal_generate(kind, scheme):
    # one shared discretization: the augmented unroll's x is the sampler's x
    net = FieldNetwork(2, 1, [16, 16], np.random.default_rng(8))
    model = GenerativeModel(net, "velocity", PathSchedule(kind))
    cond = np.random.default_rng(9).standard_normal((5, 1))
    spec = SolverSpec(scheme, 6)
    plain = generate(model, 5, spec, condition=cond, rng=np.random.default_rng(10))
    x, _, _ = generate_with_log_prob(model, 5, spec, TraceMode("exact"),
                                     np.random.default_rng(10), condition=cond)
    assert x.data.tobytes() == plain.tobytes()
