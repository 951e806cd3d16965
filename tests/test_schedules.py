import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genpolicy.errors import NumericDomainError, UnsupportedKindError
from genpolicy.model import GenerativeModel
from genpolicy.schedules import (PathSchedule, alpha_sigma, alpha_sigma_prime, drift_diffusion,
                                 prior_logpdf, sample_path_point, target_velocity)
from genpolicy.tensor import Tensor

GVP = PathSchedule("gvp")
VPSDE = PathSchedule("vpsde")
ICFM = PathSchedule("icfm")


class TestAlphaSigma:
    def test_gvp_endpoints_and_midpoint(self):
        a, s = alpha_sigma(GVP, 0.0)
        assert (a, s) == (1.0, 0.0)
        a, s = alpha_sigma(GVP, 0.5)
        assert a == pytest.approx(0.7071068, abs=1e-7)
        assert s == pytest.approx(0.7071068, abs=1e-7)

    def test_vpsde_terminal_scale(self):
        # int_0^1 (0.1 + 19.9 t) dt = 10.05, alpha_1 = exp(-5.025)
        a, s = alpha_sigma(VPSDE, 1.0)
        assert a == pytest.approx(math.exp(-5.025), rel=1e-12)
        assert a == pytest.approx(6.56e-3, rel=5e-3)
        assert s == pytest.approx(math.sqrt(1 - math.exp(-10.05)), rel=1e-12)

    def test_icfm_unsupported(self):
        with pytest.raises(UnsupportedKindError):
            alpha_sigma(ICFM, 0.5)

    def test_domain_check(self):
        with pytest.raises(NumericDomainError):
            alpha_sigma(GVP, 1.5)

    @settings(max_examples=50, deadline=None)
    @given(t=st.floats(0.0, 1.0))
    def test_gvp_variance_preserved(self, t):
        a, s = alpha_sigma(GVP, t)
        assert abs(a * a + s * s - 1.0) < 1e-12


class TestDriftDiffusion:
    def test_gvp_midpoint(self):
        f, g2 = drift_diffusion(GVP, 0.5)
        assert f == pytest.approx(-math.pi / 2, rel=1e-9)
        assert g2 == pytest.approx(math.pi, rel=1e-9)

    def test_vpsde_is_beta(self):
        for t in [0.1, 0.37, 0.9]:
            f, g2 = drift_diffusion(VPSDE, t)
            beta = 0.1 + (20 - 0.1) * t
            assert f == pytest.approx(-beta / 2)
            assert g2 == pytest.approx(beta)
            # g^2 identity: d sigma^2/dt - 2 f sigma^2 == beta
            _, s = alpha_sigma(VPSDE, t)
            _, ds = alpha_sigma_prime(VPSDE, t)
            assert 2 * s * ds - 2 * f * s * s == pytest.approx(beta, rel=1e-9)

    def test_gvp_small_t_limits(self):
        f, g2 = drift_diffusion(GVP, 0.0)  # clipped to t_clip
        assert abs(f) < 0.01
        assert abs(g2) < 0.01

    def test_finite_difference_consistency_on_grid(self):
        # alpha' = f alpha and the g^2 identity, checked against central
        # differences of alpha_sigma at 101 interior points.
        h = 1e-6
        for sched in (GVP, VPSDE):
            for t in np.linspace(0.01, 0.99, 101):
                a, s = alpha_sigma(sched, t)
                a_hi, s_hi = alpha_sigma(sched, t + h)
                a_lo, s_lo = alpha_sigma(sched, t - h)
                fd_da = (a_hi - a_lo) / (2 * h)
                fd_ds2 = (s_hi**2 - s_lo**2) / (2 * h)
                f, g2 = drift_diffusion(sched, t)
                assert fd_da == pytest.approx(f * a, rel=1e-4)
                assert fd_ds2 - 2 * f * s * s == pytest.approx(g2, rel=1e-4)
                da, ds = alpha_sigma_prime(sched, t)
                assert da == pytest.approx(fd_da, rel=1e-4)
                assert 2 * s * ds == pytest.approx(fd_ds2, rel=1e-4)


class TestPathPoints:
    def test_diffusion_t0_is_data(self):
        x0 = np.array([[1.5, -2.0]])
        xt = sample_path_point(GVP, x0, np.zeros((1, 2)), 0.0)
        assert np.array_equal(xt, x0)

    def test_icfm_midpoint(self):
        xt = sample_path_point(ICFM, np.array([0.0, 0.0]), np.array([2.0, 4.0]), 0.5)
        assert np.allclose(xt, [1.0, 2.0])

    def test_icfm_path_noise_added_when_given(self):
        noisy = PathSchedule("icfm", path_sigma=0.5)
        x0, x1, eps = np.zeros(2), np.array([2.0, 4.0]), np.array([1.0, -2.0])
        xt = sample_path_point(noisy, x0, x1, 0.5, eps)
        assert np.array_equal(xt, np.array([1.0, 2.0]) + 0.5 * eps)
        assert np.array_equal(sample_path_point(noisy, x0, x1, 0.5), [1.0, 2.0])

    def test_gvp_midpoint_mix(self):
        xt = sample_path_point(GVP, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
        assert np.allclose(xt, [0.7071068, 0.7071068], atol=1e-6)

    def test_shape_mismatch(self):
        for sched in (GVP, ICFM):
            with pytest.raises(ValueError):
                sample_path_point(sched, np.zeros(2), np.zeros(3), 0.5)


class TestTargets:
    def test_velocity_icfm_constant(self):
        for t in [0.0, 0.3, 1.0]:
            v = target_velocity(ICFM, np.array([0.0, 0.0]), np.array([2.0, 4.0]), t)
            assert np.allclose(v, [2.0, 4.0])

    def test_velocity_gvp_midpoint(self):
        v = target_velocity(GVP, np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
        assert np.allclose(v, [-1.1107, 1.1107], atol=1e-4)

    def test_velocity_vanishes_on_stationary_mean(self):
        v = target_velocity(GVP, np.array([1.0, 1.0]), np.zeros(2), 0.0)
        assert np.abs(v).max() < 0.01  # alpha' ~ 0 near t=0, eps = 0


class _FixedHead:
    """A field network whose output is ``value`` whatever its input."""

    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)

    def __call__(self, x, t, condition=None):
        return Tensor(np.broadcast_to(self.value, x.shape))


def _velocity(parameterization, schedule, x_t, t, head_output):
    """The velocity view of a head that outputs ``head_output`` at (x_t, t)."""
    model = GenerativeModel(_FixedHead(head_output), parameterization, schedule)
    return model.velocity(Tensor(np.atleast_2d(x_t)), t).data[0]


class TestConvert:
    """``GenerativeModel.velocity`` converts a score or noise head's output
    into the velocity the sampler integrates."""

    def test_zero_score_gives_pure_drift(self):
        x_t = np.array([1.0, -2.0])
        f, _ = drift_diffusion(GVP, 0.3)
        assert np.allclose(_velocity("score", GVP, x_t, 0.3, np.zeros(2)), f * x_t)

    def test_noise_to_velocity_consistent_sign(self):
        # the noise head's eps coefficient c must satisfy the
        # conditional-velocity identity f sigma + g^2/(2 sigma) = sigma',
        # which makes it positive
        v = _velocity("noise", GVP, np.array([1.0, 0.0]), 0.5, np.array([0.0, 1.0]))
        assert np.allclose(v, [-1.5708, 2.2214], atol=1e-4)
        for sched in (GVP, VPSDE):
            for t in [0.1, 0.5, 0.9]:
                c = _velocity("noise", sched, np.zeros(1), t, np.ones(1))[0]
                f, _ = drift_diffusion(sched, t)
                _, sigma = alpha_sigma(sched, t)
                _, dsigma = alpha_sigma_prime(sched, t)
                assert c > 0
                assert f * sigma + c == pytest.approx(dsigma, rel=1e-12)

    def test_pointwise_score_velocity_identity_on_grid(self):
        # target velocity = f x_t - g^2/2 * closed-form score of p(x_t | x0)
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(2)
        eps = rng.standard_normal(2)
        for sched in (GVP, VPSDE):
            for t in np.linspace(0.01, 0.99, 101):
                xt = sample_path_point(sched, x0, eps, t)
                alpha, sigma = alpha_sigma(sched, t)
                score = -(xt - alpha * x0) / (sigma * sigma)
                v_direct = target_velocity(sched, x0, eps, t)
                assert np.allclose(v_direct, _velocity("score", sched, xt, t, score), rtol=1e-8)

    def test_icfm_has_no_score(self):
        with pytest.raises(ValueError):
            GenerativeModel(_FixedHead(np.zeros(2)), "score", ICFM)


def test_prior_logpdf_matches_formula():
    z = np.array([[0.0, 0.0], [1.0, 2.0]])
    expect = -0.5 * (z ** 2).sum(axis=1) - math.log(2 * math.pi)
    assert np.allclose(prior_logpdf(z), expect)
