import warnings

import numpy as np
import pytest

from genpolicy.errors import NonFiniteError, UnsupportedKindError
from genpolicy.matching import MatchingConfig, cfm_loss, draw_times, dsm_loss, matching_loss
from genpolicy.model import GenerativeModel
from genpolicy.nn import FieldNetwork
from genpolicy.optim import Adam
from genpolicy.sampler import SolverSpec, generate
from genpolicy.schedules import PathSchedule, alpha_sigma, sample_path_point, target_velocity
from genpolicy.tensor import Tensor

from oracles import param_grad_check, recorded_nodes

GVP = PathSchedule("gvp")
ICFM = PathSchedule("icfm")


def make_model(parameterization, schedule, dim=2, hidden=(64, 64), seed=0):
    rng = np.random.default_rng(seed)
    net = FieldNetwork(x_dim=dim, state_dim=0, hidden=list(hidden), rng=rng)
    return GenerativeModel(net, parameterization, schedule)


class _Oracle:
    """Model stub that returns the exact conditional target."""

    def __init__(self, parameterization, fn):
        self.parameterization = parameterization
        self.fn = fn

    def __call__(self, x, t, condition=None):
        return Tensor(self.fn(x.data, t.data))


class _Recorder:
    """Model stub that keeps the points it is evaluated at and outputs zeros."""

    def __init__(self, parameterization):
        self.parameterization = parameterization
        self.seen = []

    def __call__(self, x, t, condition=None):
        self.seen.append(x.data)
        return Tensor(np.zeros_like(x.data))


@pytest.mark.parametrize("objective", ["dsm", "cfm-gvp", "cfm-icfm"])
def test_losses_evaluate_the_head_at_the_path_point(objective):
    rng = np.random.default_rng(8)
    x0, other, eps = (rng.standard_normal((6, 2)) for _ in range(3))
    noisy_icfm = PathSchedule("icfm", path_sigma=0.3)
    schedule = noisy_icfm if objective == "cfm-icfm" else GVP
    t = draw_times(schedule, 6, rng)
    if objective == "dsm":
        head = _Recorder("score")
        dsm_loss(head, GVP, x0, np.ones(6), None, draws=(t, eps))
        want = sample_path_point(GVP, x0, eps, t)
    else:
        head = _Recorder("velocity")
        cfm_loss(head, schedule, x0, other, np.ones(6), None, draws=(t, eps))
        want = sample_path_point(schedule, x0, other, t, eps)
    assert head.seen[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["vanilla", "mlsm", "unit"])
@pytest.mark.parametrize("kind", ["gvp", "vpsde"])
def test_dsm_loss_weights_each_row_by_its_lambda(kind, mode):
    # a zero score head leaves 1/2 mean(w lambda(t) |eps / sigma|^2), with
    # lambda = sigma^2 (vanilla), g^2 (mlsm) or 1 (unit), in closed form:
    # gvp sigma = sin(pi t / 2), g^2 = pi tan(pi t / 2); vpsde g^2 = beta(t)
    schedule = PathSchedule(kind)
    rng = np.random.default_rng(11)
    x0, eps = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
    w = rng.uniform(0.5, 2.0, 6)
    t = draw_times(schedule, 6, rng)
    if kind == "gvp":
        sigma, g2 = np.sin(0.5 * np.pi * t), np.pi * np.tan(0.5 * np.pi * t)
    else:
        integral = schedule.beta_min * t + 0.5 * (schedule.beta_max - schedule.beta_min) * t * t
        sigma = np.sqrt(-np.expm1(-integral))
        g2 = schedule.beta_min + (schedule.beta_max - schedule.beta_min) * t
    lam = {"vanilla": sigma * sigma, "mlsm": g2, "unit": np.ones_like(t)}[mode]
    want = 0.5 * np.mean(w[:, None] * lam * (eps / sigma) ** 2)
    loss = dsm_loss(_Recorder("score"), schedule, x0, w, None,
                    config=MatchingConfig(objective="dsm", lambda_mode=mode), draws=(t, eps))
    assert float(loss.data) == pytest.approx(want, rel=1e-12)


class TestDsmLoss:
    def test_perfect_fit_gives_zero(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((16, 2))
        t = draw_times(GVP, 16, np.random.default_rng(1))
        eps = np.random.default_rng(2).standard_normal((16, 2))

        def exact_score(x_t, tt):
            a, s = alpha_sigma(GVP, tt)
            return -(x_t - a * x0) / (s * s)

        loss = dsm_loss(_Oracle("score", exact_score), GVP, x0, np.ones(16),
                        None, draws=(t, eps))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-24)

    def test_zero_weights_zero_loss_and_gradient(self):
        model = make_model("score", GVP, hidden=(8,))
        x0 = np.random.default_rng(0).standard_normal((8, 2))
        loss = dsm_loss(model, GVP, x0, np.zeros(8), np.random.default_rng(1))
        loss.backward()
        assert float(loss.data) == 0.0
        assert all(np.allclose(p.grad, 0.0) for p in model.parameters() if p.grad is not None)

    def test_rejects_negative_weights_and_icfm(self):
        model = make_model("score", GVP, hidden=(8,))
        x0 = np.zeros((4, 2))
        with pytest.raises(ValueError):
            dsm_loss(model, GVP, x0, [-1, 1, 1, 1], np.random.default_rng(0))
        for bad in (np.nan, np.inf):  # NaN < 0 is false: refused as non-finite
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteError):
                    dsm_loss(model, GVP, x0, [bad, 1, 1, 1], np.random.default_rng(0))
        with pytest.raises(UnsupportedKindError):
            dsm_loss(model, ICFM, x0, np.ones(4), np.random.default_rng(0))

    def test_noise_parameterization_converted_internally(self):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((8, 2))
        t = draw_times(GVP, 8, np.random.default_rng(4))
        eps = np.random.default_rng(5).standard_normal((8, 2))
        loss = dsm_loss(_Oracle("noise", lambda x, tt: eps), GVP, x0, np.ones(8),
                        None, draws=(t, eps))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-24)

    def test_gradient_matches_finite_differences(self):
        model = make_model("score", GVP, hidden=(8, 8), seed=1)
        x0 = np.random.default_rng(2).standard_normal((8, 2))
        t = draw_times(GVP, 8, np.random.default_rng(3))
        eps = np.random.default_rng(4).standard_normal((8, 2))
        err = param_grad_check(
            lambda: dsm_loss(model, GVP, x0, np.ones(8), None, draws=(t, eps)),
            model.parameters(), sample=6, rng=np.random.default_rng(5))
        assert err < 1e-3

    def test_trained_score_matches_standard_normal_marginal(self):
        # Data ~ N(0, I) under gvp keeps the marginal N(0, I) at every t,
        # so the true score is -x_t everywhere. Trained with the vanilla
        # sigma^2 weighting: the unit weighting leaves the gradient
        # dominated by the 1/sigma^2 conditional-variance floor near the
        # data endpoint and does not reach this tolerance in any
        # reasonable step budget.
        rng = np.random.default_rng(0)
        model = make_model("score", GVP, hidden=(64, 64), seed=1)
        opt = Adam(model.parameters(), lr=1e-3)
        cfg = MatchingConfig(objective="dsm", lambda_mode="vanilla")
        for _ in range(3000):
            x0 = rng.standard_normal((256, 2))
            opt.zero_grad()
            loss = dsm_loss(model, GVP, x0, np.ones(256), rng, config=cfg)
            loss.backward()
            opt.step()
        pts = np.array([[0.5, 0.5], [-1.0, 0.3], [0.0, 1.0], [1.2, -0.8], [-0.4, -0.4]])
        rels = []
        for t in [0.2, 0.5, 0.8]:
            got = model(Tensor(pts), t).data
            expect = -pts
            rels.append(np.abs(got - expect).mean() / np.abs(expect).mean())
        assert np.mean(rels) < 0.10


class TestCfmLoss:
    def test_perfect_fit_gives_zero(self):
        rng = np.random.default_rng(0)
        x0 = rng.standard_normal((8, 2))
        x1 = rng.standard_normal((8, 2))
        t = draw_times(ICFM, 8, np.random.default_rng(1))
        loss = cfm_loss(_Oracle("velocity", lambda x, tt: x1 - x0), ICFM, x0, x1,
                        np.ones(8), None, draws=(t, None))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-24)

    def test_degenerate_endpoints_measure_model_norm(self):
        # source == target == 0 with sigma=0: target velocity is 0, so the
        # loss is half the mean squared model output.
        model = make_model("velocity", ICFM, hidden=(8,), seed=2)
        zeros = np.zeros((8, 2))
        t = draw_times(ICFM, 8, np.random.default_rng(1))
        loss = cfm_loss(model, ICFM, zeros, zeros, np.ones(8), None, draws=(t, None))
        v = model(Tensor(zeros), Tensor(t)).data
        assert float(loss.data) == pytest.approx(0.5 * (v ** 2).mean(), rel=1e-12)

    def test_rejects_wrong_parameterization(self):
        model = make_model("score", GVP, hidden=(8,))
        with pytest.raises(ValueError):
            cfm_loss(model, GVP, np.zeros((4, 2)), np.zeros((4, 2)), np.ones(4),
                     np.random.default_rng(0))

    def test_gradient_matches_finite_differences(self):
        model = make_model("velocity", ICFM, hidden=(8, 8), seed=3)
        rng = np.random.default_rng(1)
        x0, x1 = rng.standard_normal((2, 8, 2))
        t = draw_times(ICFM, 8, np.random.default_rng(2))
        err = param_grad_check(
            lambda: cfm_loss(model, ICFM, x0, x1, np.ones(8), None, draws=(t, None)),
            model.parameters(), sample=6, rng=np.random.default_rng(5))
        assert err < 1e-3

    def test_trained_flow_hits_target_mean(self):
        rng = np.random.default_rng(0)
        model = make_model("velocity", ICFM, hidden=(64, 64), seed=4)
        opt = Adam(model.parameters(), lr=1e-3)
        for i in range(4000):
            if i == 2500:
                opt.lr = 3e-4
            data = rng.standard_normal((256, 2)) + 2.0
            opt.zero_grad()
            loss = matching_loss(model, ICFM, data, np.ones(256), rng)
            loss.backward()
            opt.step()
        samples = generate(model, 4096, SolverSpec("euler", 32), rng=np.random.default_rng(9))
        assert np.abs(samples.mean(axis=0) - 2.0).max() < 0.1


class TestSharedProperties:
    def test_unit_weights_equal_unweighted_bitwise(self):
        model = make_model("score", GVP, hidden=(8,))
        x0 = np.random.default_rng(0).standard_normal((8, 2))
        l1 = dsm_loss(model, GVP, x0, np.ones(8), np.random.default_rng(11))
        l2 = dsm_loss(model, GVP, x0, np.full(8, 1.0), np.random.default_rng(11))
        assert l1.data.tobytes() == l2.data.tobytes()

    def test_permutation_invariance(self):
        model = make_model("velocity", GVP, hidden=(8,))
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((16, 2))
        eps = rng.standard_normal((16, 2))
        t = draw_times(GVP, 16, rng)
        w = rng.uniform(0.1, 2.0, 16)
        perm = np.random.default_rng(2).permutation(16)
        base = cfm_loss(model, GVP, x0, eps, w, None, draws=(t, None))
        shuf = cfm_loss(model, GVP, x0[perm], eps[perm], w[perm], None, draws=(t[perm], None))
        assert float(shuf.data) == pytest.approx(float(base.data), rel=1e-12)

    def test_dsm_and_cfm_models_agree_through_conversion(self):
        # Two heads trained on the same Gaussian data under gvp estimate
        # the same marginal path, so score -> velocity must track the
        # velocity head on a grid. The target is N((1,1), 0.25 I): a
        # standard-normal target would make the true marginal velocity
        # identically zero and the relative comparison degenerate.
        rng = np.random.default_rng(0)
        score_model = make_model("score", GVP, hidden=(64, 64), seed=5)
        vel_model = make_model("velocity", GVP, hidden=(64, 64), seed=6)
        opt_s = Adam(score_model.parameters(), lr=1e-3)
        opt_v = Adam(vel_model.parameters(), lr=1e-3)
        cfg = MatchingConfig(objective="dsm", lambda_mode="vanilla")
        for _ in range(2500):
            data = 0.5 * rng.standard_normal((256, 2)) + 1.0
            opt_s.zero_grad()
            dsm_loss(score_model, GVP, data, np.ones(256), rng, config=cfg).backward()
            opt_s.step()
            opt_v.zero_grad()
            matching_loss(vel_model, GVP, data, np.ones(256), rng).backward()
            opt_v.step()
        pts = np.array([[0.6, -0.2], [-0.9, 0.9], [0.1, 1.1], [1.0, 0.5]])
        rels = []
        for t in [0.3, 0.5, 0.7]:
            v_from_score = score_model.velocity(Tensor(pts), t).data
            v_direct = vel_model(Tensor(pts), t).data
            rels.append(np.abs(v_from_score - v_direct).mean() / np.abs(v_direct).mean())
        assert np.mean(rels) < 0.15


def test_matching_loss_records_one_node_per_network_call():
    # the network, the weighted regression onto the constant target (one
    # sq_mean node) and the factor 1/2
    model = make_model("velocity", GVP, hidden=(8, 8))
    rng = np.random.default_rng(15)
    loss = matching_loss(model, GVP, rng.standard_normal((6, 2)), np.ones(6), rng)
    assert recorded_nodes(loss) == 3
