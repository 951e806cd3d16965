import tracemalloc
import warnings

import numpy as np
import pytest

from genpolicy.checkpoint import copy_policy
from genpolicy.data import make_tilted_gaussian_bandit
from genpolicy.critic import Critic, CriticConfig
from genpolicy.errors import IntegrationDivergedError, NonFiniteError
from genpolicy.likelihood import TraceMode, log_prob
from genpolicy.matching import matching_loss
from genpolicy.policy import (GenerativePolicy, GmpgConfig, GmpoConfig, PolicyConfig,
                              exp_clamp_weight, gmpg_loss, gmpg_per_sample,
                              gmpg_static_surrogate, gmpg_tape_bytes, gmpo_weight, pretrain_behavior,
                              softmax_candidate_weights, train_gmpg, train_gmpo)
from genpolicy.sampler import SolverSpec
from genpolicy.schedules import PathSchedule
from genpolicy.data import OfflineDataset

from oracles import recorded_nodes, zero_grad


class LinearCritic:
    """Analytic stand-in: Q(s, a) = sum(a), V(s) = v0."""

    def __init__(self, v0=0.0):
        self.v0 = v0

    def q_values(self, s, a):
        return np.atleast_2d(np.asarray(a, float)).sum(axis=1)

    def v_values(self, s):
        return np.full(np.atleast_2d(s).shape[0], self.v0)

    def advantage(self, s, a):
        return self.q_values(s, a) - self.v_values(s)

    def q_tensor(self, s, a):
        return a.sum(axis=1, keepdims=True)

    def freeze(self):
        pass


def small_policy(seed=0, hidden=(64, 64), kind="gvp", action_dim=1):
    cfg = PolicyConfig(state_dim=1, action_dim=action_dim, hidden=hidden,
                       schedule=PathSchedule(kind))
    return GenerativePolicy(cfg, np.random.default_rng(seed))


class TestWeights:
    def test_zero_advantage_gives_unit_weight(self):
        critic = LinearCritic(v0=0.0)
        w = gmpo_weight(critic, np.zeros((3, 1)), np.zeros(3), beta=2.0)
        assert np.allclose(w, 1.0)

    def test_clamp_applies(self):
        critic = LinearCritic(v0=0.0)
        # beta * advantage = 10 -> e^10 ~ 22026, clamped at 100
        w = gmpo_weight(critic, np.zeros((1, 1)), np.array([10.0]), beta=1.0, w_max=100.0)
        assert w[0] == 100.0

    def test_clamp_caps_the_exponent_without_an_overflow_warning(self):
        # below w_max a weight is exp(beta * adv) bit for bit; a product past
        # exp's range, or past the float range itself, gives w_max with no warning
        adv = np.array([-800.0, -3.0, 0.0, 1e-3, 2.5, np.log(100.0) - 1e-12, 4.7, 800.0, 1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = exp_clamp_weight(adv, 1.0, w_max=100.0)
            huge = exp_clamp_weight(np.array([-2.0, 0.0, 2.0]), 1e308, w_max=100.0)
        below = adv < np.log(100.0)
        assert w[below].tobytes() == np.exp(adv[below]).tobytes()
        assert np.all(w[~below] == 100.0)
        assert huge.tolist() == [0.0, 1.0, 100.0]

    def test_beta_zero_allowed_negative_rejected(self):
        critic = LinearCritic()
        w = gmpo_weight(critic, np.zeros((2, 1)), np.ones(2), beta=0.0)
        assert np.array_equal(w, np.ones(2))
        # one rule for both weightings: a temperature is finite and >= 0
        for beta in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and >= 0"):
                gmpo_weight(critic, np.zeros((2, 1)), np.ones(2), beta=beta)
            with pytest.raises(ValueError, match="finite and >= 0"):
                softmax_candidate_weights(np.zeros((2, 3)), beta=beta)

    def test_softmax_weights_normalize_and_shift_invariant(self):
        q = np.random.default_rng(0).standard_normal((4, 8))
        w0 = softmax_candidate_weights(q, beta=2.0)
        w1 = softmax_candidate_weights(q + 1000.0, beta=2.0)
        assert np.allclose(w0.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(w0, w1, atol=1e-12)

    def test_softmax_weights_overflowing_rows_take_the_limit(self):
        # beta * q overflows the first and third rows: each takes the beta -> inf
        # limit (equal weight on its largest Q), and the rows that do not keep
        # their weights bit for bit
        q = np.array([[2.0, 1.0, -3.0], [1e-300, 0.0, -1e-300], [4.0, 4.0, -1.0],
                      [0.5, 0.25, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = softmax_candidate_weights(q, beta=1e308)
            alone = [softmax_candidate_weights(q[i:i + 1], beta=1e308) for i in (1, 3)]
        assert w[0].tolist() == [1.0, 0.0, 0.0] and w[2].tolist() == [0.5, 0.5, 0.0]
        e = np.exp(1e308 * q[[1, 3]] - (1e308 * q[[1, 3]]).max(axis=1, keepdims=True))
        assert w[[1, 3]].tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()
        assert w[[1, 3]].tobytes() == np.concatenate(alone).tobytes()
        # a beta that does not overflow already gives the one-hot limit
        assert softmax_candidate_weights(q[:1], beta=1e300).tolist() == [[1.0, 0.0, 0.0]]


class TestPretraining:
    def test_single_action_dataset_concentrates(self):
        a = np.full((512, 1), 0.7)
        ds = OfflineDataset(s=np.zeros((512, 1)), a=a, r=np.zeros(512),
                            s2=np.zeros((512, 1)), done=np.ones(512))
        pol = small_policy(seed=1, hidden=(32, 32))
        pol.action_mean = np.zeros(1)  # degenerate data: keep identity normalizer
        pol.action_std = np.ones(1)
        pretrain_behavior(ds, pol, GmpoConfig(steps=1500, batch_size=128, lr=1e-3),
                          np.random.default_rng(2))
        samples = pol.sample_actions(np.zeros((512, 1)), np.random.default_rng(3))
        assert samples.std() < 0.1
        assert abs(samples.mean() - 0.7) < 0.1

    def test_gaussian_behavior_moments(self):
        ds, _ = make_tilted_gaussian_bandit(1, 1.0, 20_000, seed=0)
        pol = small_policy(seed=2)
        pol.set_normalizer_from(ds)
        pretrain_behavior(ds, pol, GmpoConfig(steps=2000, batch_size=128, lr=1e-3),
                          np.random.default_rng(3))
        samples = pol.sample_actions(np.zeros((4096, 1)), np.random.default_rng(4))
        assert abs(samples.mean()) < 0.1
        assert abs(samples.std() - 1.0) < 0.1

    def test_empty_dataset_rejected(self):
        ds = OfflineDataset(s=np.zeros((0, 1)), a=np.zeros((0, 1)), r=np.zeros(0),
                            s2=np.zeros((0, 1)), done=np.zeros(0))
        with pytest.raises(ValueError):
            pretrain_behavior(ds, small_policy(), GmpoConfig(), np.random.default_rng(0))


class TestGmpo:
    def test_beta_zero_matches_pretraining_bitwise(self):
        ds, _ = make_tilted_gaussian_bandit(1, 1.0, 4096, seed=5)
        cfg = GmpoConfig(beta=0.0, steps=50, batch_size=64, lr=1e-3)

        losses_pre, losses_gmpo = [], []
        p1 = small_policy(seed=7)
        p1.set_normalizer_from(ds)
        pretrain_behavior(ds, p1, cfg, np.random.default_rng(11),
                          on_step=lambda s, m: losses_pre.append(m["loss"]))
        p2 = small_policy(seed=7)
        p2.set_normalizer_from(ds)
        train_gmpo(ds, LinearCritic(), p2, cfg, np.random.default_rng(11),
                   on_step=lambda s, m: losses_gmpo.append(m["loss"]))
        assert losses_pre == losses_gmpo  # bit-identical trajectories
        for w1, w2 in zip(p1.parameters(), p2.parameters()):
            assert w1.data.tobytes() == w2.data.tobytes()

    def test_tilted_bandit_recovers_closed_form(self):
        # e^{beta a} N(a; 0, 1) is N(a; beta, 1); analytic critic isolates
        # the scheme from critic fitting error.
        ds, target = make_tilted_gaussian_bandit(1, 1.0, 20_000, seed=0)
        pol = small_policy(seed=8)
        pol.set_normalizer_from(ds)
        train_gmpo(ds, LinearCritic(v0=0.0), pol,
                   GmpoConfig(beta=1.0, steps=3000, batch_size=128, lr=1e-3),
                   np.random.default_rng(9))
        samples = pol.sample_actions(np.zeros((4096, 1)), np.random.default_rng(10))
        assert abs(samples.mean() - target.mean[0]) < 0.15
        assert abs(samples.std() - target.std[0]) < 0.2

    def test_softmax_mode_needs_behavior(self):
        ds, _ = make_tilted_gaussian_bandit(1, 1.0, 256, seed=1)
        cfg = GmpoConfig(beta=1.0, weight_mode="softmax", steps=1, batch_size=8)
        with pytest.raises(ValueError):
            train_gmpo(ds, LinearCritic(), small_policy(), cfg, np.random.default_rng(0))

    def test_softmax_mode_runs_and_tilts(self):
        ds, _ = make_tilted_gaussian_bandit(1, 2.0, 8192, seed=2)
        behavior = small_policy(seed=12)
        behavior.set_normalizer_from(ds)
        pretrain_behavior(ds, behavior, GmpoConfig(steps=1500, batch_size=128, lr=1e-3),
                          np.random.default_rng(13))
        pol = small_policy(seed=14)
        pol.set_normalizer_from(ds)
        cfg = GmpoConfig(beta=2.0, weight_mode="softmax", k_candidates=8,
                         steps=600, batch_size=32, lr=1e-3)
        train_gmpo(ds, LinearCritic(), pol, cfg, np.random.default_rng(15), behavior=behavior)
        samples = pol.sample_actions(np.zeros((2048, 1)), np.random.default_rng(16))
        assert samples.mean() > 0.4  # tilted toward high-reward actions


    def test_exp_clamp_evaluates_advantage_once_per_step(self):
        # the critic is frozen for the stage: every dataset row is scored
        # once, in order, in blocks of batch_size rows, however many steps draw it
        ds, _ = make_tilted_gaussian_bandit(1, 1.0, 256, seed=4)
        critic = CountingCritic(v0=0.25)
        pol = small_policy(seed=20, hidden=(8,))
        pol.set_normalizer_from(ds)
        train_gmpo(ds, critic, pol, GmpoConfig(beta=1.5, steps=3, batch_size=16, w_max=2.0),
                   np.random.default_rng(21))
        assert [len(a) for a in critic.q_actions] == [16] * 16  # ceil(256 / 16) calls
        assert critic.v_rows == [16] * 16
        assert np.concatenate(critic.q_actions).tobytes() == ds.a.tobytes()  # once, in order

    def test_exp_clamp_logs_every_steps_drawn_advantages(self):
        ds, _ = make_tilted_gaussian_bandit(1, 1.0, 250, seed=4)
        pol = small_policy(seed=20, hidden=(8,))
        pol.set_normalizer_from(ds)
        rows, rng = [], IndexRecordingRng(21)
        train_gmpo(ds, LinearCritic(v0=0.25), pol,
                   GmpoConfig(beta=1.5, steps=3, batch_size=16, w_max=2.0),
                   rng, on_step=lambda step, m: rows.append(m))
        # weights and the logged mean advantage come from the drawn rows' table entries
        assert len(rows) == len(rng.drawn) == 3
        for m, idx in zip(rows, rng.drawn):
            adv = ds.a[idx].sum(axis=1) - 0.25
            assert m["mean_advantage"] == float(np.mean(adv))
            assert m["mean_weight"] == float(np.mean(np.minimum(np.exp(1.5 * adv), 2.0)))

    def test_exp_clamp_zero_steps_evaluates_no_row(self):
        ds, _ = make_tilted_gaussian_bandit(1, 1.0, 256, seed=4)
        critic = CountingCritic()
        pol = small_policy(seed=20, hidden=(8,))
        pol.set_normalizer_from(ds)
        train_gmpo(ds, critic, pol, GmpoConfig(steps=0, batch_size=16),
                   np.random.default_rng(21))
        assert critic.q_actions == [] and critic.v_rows == []

    def test_exp_clamp_non_finite_row_raises_before_step_zero(self):
        # row 200 is not among step 0's draws, but the table scores it first
        ds, _ = make_tilted_gaussian_bandit(1, 1.0, 256, seed=4)
        critic = Critic(1, 1, CriticConfig(hidden=(8,)), np.random.default_rng(0))
        w0, b0, w1, _ = critic.q_net.parameters()
        w0.data[1] *= 1e-3
        b0.data[:] = 0.0
        ds.a[200] = 1e10  # saturates every hidden unit, where other rows stay near 0
        w1.data[:] = np.sign(w0.data[1])[:, None] * 0.25e308  # only that row's Q overflows
        pol = small_policy(seed=20, hidden=(8,))
        pol.set_normalizer_from(ds)
        rows = []
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            train_gmpo(ds, critic, pol, GmpoConfig(steps=1, batch_size=16),
                       np.random.default_rng(21), on_step=lambda step, m: rows.append(m))
        assert rows == []
        assert 200 not in np.random.default_rng(21).integers(0, ds.n, size=16)

    @pytest.mark.parametrize("train", [
        lambda ds, pol, cfg: pretrain_behavior(ds, pol, cfg, np.random.default_rng(0)),
        lambda ds, pol, cfg: train_gmpo(ds, LinearCritic(), pol, cfg, np.random.default_rng(0))],
        ids=["pretrain", "gmpo"])
    def test_empty_dataset_is_refused(self, train):
        ds, _ = make_tilted_gaussian_bandit(1, 1.0, 16, seed=4)
        empty = OfflineDataset(*(getattr(ds, f)[:0] for f in ("s", "a", "r", "s2", "done")))
        with pytest.raises(ValueError, match="empty dataset"):
            train(empty, small_policy(seed=20, hidden=(8,)), GmpoConfig(steps=2, batch_size=16))

    def test_softmax_evaluates_q_once_per_step(self):
        ds, _ = make_tilted_gaussian_bandit(1, 1.0, 256, seed=5)
        behavior = small_policy(seed=22, hidden=(8,))
        behavior.set_normalizer_from(ds)
        pol = small_policy(seed=23, hidden=(8,))
        pol.set_normalizer_from(ds)
        critic = CountingCritic(v0=0.25)
        cfg = GmpoConfig(beta=1.0, weight_mode="softmax", k_candidates=2, steps=3, batch_size=4)
        train_gmpo(ds, critic, pol, cfg, np.random.default_rng(24), behavior=behavior)
        assert [len(a) for a in critic.q_actions] == [8] * 3  # one call of K * B candidates
        assert critic.v_rows == [4] * 3  # V once per drawn state, not per candidate


class IndexRecordingRng(np.random.Generator):
    """``default_rng(seed)``'s stream, keeping every ``integers`` draw."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.drawn = []

    def integers(self, *args, **kwargs):
        out = super().integers(*args, **kwargs)
        self.drawn.append(out)
        return out


class CountingCritic(LinearCritic):
    """Records the actions of every Q evaluation and the rows of every V one."""

    def __init__(self, v0=0.0):
        super().__init__(v0)
        self.q_actions, self.v_rows = [], []

    def q_values(self, s, a):
        self.q_actions.append(np.asarray(a))
        return super().q_values(s, a)

    def v_values(self, s):
        self.v_rows.append(len(s))
        return super().v_values(s)


@pytest.fixture(scope="module")
def bandit_setup():
    ds, target = make_tilted_gaussian_bandit(1, 1.0, 20_000, seed=0)
    behavior = small_policy(seed=20)
    behavior.set_normalizer_from(ds)
    pretrain_behavior(ds, behavior, GmpoConfig(steps=2000, batch_size=128, lr=1e-3),
                      np.random.default_rng(21))
    return ds, target, behavior


class TestGmpg:
    def test_velocity_parameterization_required(self):
        cfg = PolicyConfig(state_dim=1, action_dim=1, hidden=(8,),
                           parameterization="noise", schedule=PathSchedule("gvp"))
        noisy = GenerativePolicy(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="velocity"):
            gmpg_loss(noisy, noisy, LinearCritic(), np.zeros((2, 1)),
                      GmpgConfig(t_train=4), np.random.default_rng(1))

    def test_normalizer_must_match(self):
        a = small_policy(seed=1)
        b = small_policy(seed=1)
        b.action_mean = b.action_mean + 1.0
        with pytest.raises(ValueError, match="normalizer"):
            gmpg_loss(a, b, LinearCritic(), np.zeros((2, 1)),
                      GmpgConfig(t_train=4), np.random.default_rng(0))

    def test_self_kl_is_zero_in_expectation(self, bandit_setup):
        # beta = 0 and pi == mu: per-sample values are a stochastic
        # estimate of KL(p || p) = 0; Hutchinson probe noise supplies the
        # spread, rk4 keeps the discretization bias far below it.
        _, _, behavior = bandit_setup
        pol = copy_policy(behavior)
        behavior.model.freeze()
        cfg = GmpgConfig(beta=0.0, t_train=16, scheme="rk4_38",
                         trace=TraceMode("hutchinson", 1), steps=1, batch_size=256)
        vals = gmpg_per_sample(pol, behavior, LinearCritic(), np.zeros((256, 1)),
                               cfg, np.random.default_rng(30))
        mean = float(vals.data.mean())
        stderr = float(vals.data.std(ddof=1) / np.sqrt(vals.data.size))
        assert abs(mean) <= 3 * stderr

    def test_gradient_matches_finite_differences(self):
        from oracles import param_grad_check
        cfg_p = PolicyConfig(state_dim=1, action_dim=1, hidden=(8,), schedule=PathSchedule("gvp"))
        pol = GenerativePolicy(cfg_p, np.random.default_rng(31))
        mu = copy_policy(pol)
        mu.model.freeze()
        cfg = GmpgConfig(beta=1.0, t_train=10, scheme="euler", trace=TraceMode("exact"),
                         batch_size=4)
        states = np.zeros((4, 1))
        err = param_grad_check(
            lambda: gmpg_loss(pol, mu, LinearCritic(), states, cfg, np.random.default_rng(32)),
            pol.parameters(), sample=4, rng=np.random.default_rng(33))
        assert err < 1e-3

    def test_tilted_bandit_converges_and_kl_decreases(self, bandit_setup):
        ds, target, behavior = bandit_setup
        pol = copy_policy(behavior)
        cfg = GmpgConfig(beta=1.0, t_train=24, scheme="euler", trace=TraceMode("exact"),
                         steps=240, batch_size=192, lr=3e-4)
        kls = []

        def track(step, metrics):
            if (step + 1) % 60 == 0:
                r = np.random.default_rng(1000 + step)
                samp = pol.sample_actions(np.zeros((1024, 1)), r, SolverSpec("euler", 24))
                logp, _ = pol.log_prob_actions(np.zeros((1024, 1)), samp,
                                               SolverSpec("euler", 24), rng=r)
                ref = -0.5 * ((samp[:, 0] - 1.0) ** 2) - 0.5 * np.log(2 * np.pi)
                kls.append(float(np.mean(logp - ref)))

        train_gmpg(ds, LinearCritic(), pol, behavior, cfg, np.random.default_rng(34),
                   on_step=track)
        samples = pol.sample_actions(np.zeros((4096, 1)), np.random.default_rng(35))
        assert abs(samples.mean() - 1.0) < 0.15
        assert abs(samples.std() - 1.0) < 0.2
        smooth = np.convolve(kls, [0.5, 0.5], mode="valid")
        assert all(b <= a + 1e-6 for a, b in zip(smooth, smooth[1:]))

    def test_static_variant_zero_gradient_at_self(self, bandit_setup):
        _, _, behavior = bandit_setup
        pol = copy_policy(behavior)
        behavior.model.freeze()
        cfg = GmpgConfig(beta=0.0, t_train=12, scheme="euler", trace=TraceMode("exact"),
                         batch_size=64, variant="static")
        zero_grad(pol.parameters())
        surr = gmpg_static_surrogate(pol, behavior, LinearCritic(), np.zeros((64, 1)),
                                     cfg, np.random.default_rng(40))
        surr.backward()
        worst = max(np.abs(p.grad).max() if p.grad is not None else 0.0
                    for p in pol.parameters())
        assert worst < 1e-10  # bracket is exactly zero when pi == mu, beta == 0

    def test_static_variant_evaluates_q_once(self):
        behavior = small_policy(seed=25, hidden=(8,))
        critic = CountingCritic()
        gmpg_static_surrogate(copy_policy(behavior), behavior, critic, np.zeros((4, 1)),
                              GmpgConfig(t_train=2, variant="static"), np.random.default_rng(26))
        assert len(critic.q_actions) == 1

    def test_static_variant_moves_toward_target(self, bandit_setup):
        ds, _, behavior = bandit_setup
        pol = copy_policy(behavior)
        cfg = GmpgConfig(beta=1.0, t_train=16, scheme="euler", trace=TraceMode("exact"),
                         steps=150, batch_size=128, lr=3e-4, variant="static")
        train_gmpg(ds, LinearCritic(), pol, behavior, cfg, np.random.default_rng(41))
        samples = pol.sample_actions(np.zeros((2048, 1)), np.random.default_rng(42))
        assert samples.mean() > 0.5


class TestAct:
    def test_batch_of_states_gives_batch_of_actions(self):
        pol = small_policy(seed=50, action_dim=2)
        states = np.zeros((5, 1))
        acts = pol.sample_actions(states, np.random.default_rng(0))
        assert acts.shape == (5, 2)

    def test_reproducible_under_seed(self):
        pol = small_policy(seed=51)
        a1 = pol.sample_actions(np.zeros((1, 1)), np.random.default_rng(3))
        a2 = pol.sample_actions(np.zeros((1, 1)), np.random.default_rng(3))
        assert np.array_equal(a1, a2)

    def test_eval_solver_default_is_32_steps(self):
        assert PolicyConfig().eval_solver.steps == 32


def _traced_peak(fn) -> int:
    """Peak bytes allocated while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTapeFree:
    """Array-returning inference records no tape: memory does not grow with T."""

    def test_sample_memory_flat_in_steps(self):
        pol = small_policy(seed=60, hidden=(32, 32), action_dim=2)
        states = np.zeros((256, 1))

        def peak(steps):
            return _traced_peak(lambda: pol.sample_actions(
                states, np.random.default_rng(0), SolverSpec("euler", steps)))

        assert peak(64) < 2 * peak(4)

    @pytest.mark.parametrize("trace", [TraceMode("exact"), TraceMode("hutchinson", 2)])
    def test_log_prob_memory_flat_in_steps(self, trace):
        pol = small_policy(seed=61, hidden=(32, 32), action_dim=2)
        rng = np.random.default_rng(1)
        states, actions = rng.standard_normal((128, 1)), rng.standard_normal((128, 2))

        def peak(steps):
            return _traced_peak(lambda: pol.log_prob_actions(
                states, actions, SolverSpec("euler", steps), trace, np.random.default_rng(2)))

        assert peak(64) < 2 * peak(4)

    @pytest.mark.parametrize("trace", [TraceMode("exact"), TraceMode("hutchinson", 3)])
    def test_log_prob_actions_equal_taped_log_prob(self, trace):
        pol = small_policy(seed=62, hidden=(16, 16), action_dim=2)
        pol.action_mean, pol.action_std = np.array([0.2, -0.4]), np.array([1.5, 0.7])
        rng = np.random.default_rng(3)
        states, actions = rng.standard_normal((9, 1)), rng.standard_normal((9, 2))
        spec = SolverSpec("midpoint", 5)
        logp, stderr = pol.log_prob_actions(states, actions, spec, trace, np.random.default_rng(4))
        taped = log_prob(pol.model, pol.normalize(actions), spec, trace,
                         np.random.default_rng(4), condition=states)
        assert taped.logp._prev  # the reference really is the taped path
        assert logp.tobytes() == (taped.logp_values - pol.log_norm_correction).tobytes()
        assert stderr.tobytes() == taped.stderr.tobytes()

    def test_recording_back_on_after_divergence(self):
        pol = small_policy(seed=63, hidden=(8, 8))
        bias = pol.model.net.mlp.biases[-1]
        finite = bias.data
        bias.data = np.full_like(finite, np.inf)
        with pytest.raises(IntegrationDivergedError):
            pol.sample_actions(np.zeros((4, 1)), np.random.default_rng(0))
        bias.data = finite
        zero_grad(pol.parameters())
        rng = np.random.default_rng(1)
        loss = matching_loss(pol.model, pol.config.schedule, rng.standard_normal((16, 1)),
                             np.ones(16), rng, condition=rng.standard_normal((16, 1)))
        loss.backward()
        assert all(p.grad is not None and np.any(p.grad != 0.0) for p in pol.parameters())


def _gmpg_setup(batch, hidden, action_dim, config):
    behavior = small_policy(seed=70, hidden=hidden, action_dim=action_dim)
    policy = copy_policy(behavior)
    rng = np.random.default_rng(71)
    for p in policy.parameters():
        p.data = p.data + 0.05 * rng.standard_normal(p.data.shape)
    behavior.model.freeze()
    loss_fn = gmpg_loss if config.variant == "dynamic" else gmpg_static_surrogate
    return policy, lambda: loss_fn(policy, behavior, LinearCritic(), rng.standard_normal((batch, 1)),
                                   config, np.random.default_rng(72))


def test_gmpg_euler_stage_records_one_node_per_network_call():
    # per euler stage and unroll (pi and mu): the network, its output's
    # primal and tangent rows, the trace node and its sign,
    # and the two state updates (x and l, two nodes each); Q(s, a) is one node
    from genpolicy.critic import Critic, CriticConfig
    behavior = small_policy(seed=75, hidden=(8, 8), action_dim=2)
    policy = copy_policy(behavior)
    critic = Critic(1, 2, CriticConfig(hidden=(8, 8)), np.random.default_rng(76))
    behavior.model.freeze()
    critic.freeze()

    def nodes(t_train):
        return recorded_nodes(gmpg_loss(policy, behavior, critic, np.zeros((4, 1)),
                                        GmpgConfig(t_train=t_train, scheme="euler"),
                                        np.random.default_rng(77)))

    assert nodes(1) == 36
    assert nodes(2) - nodes(1) == 18


class TestGmpgMemory:
    def test_training_holds_one_step_tape_at_a_time(self):
        # a step's tape is freed before the next step builds its own
        ds, _ = make_tilted_gaussian_bandit(2, 1.0, 256, seed=73)

        def peak(steps):
            behavior = small_policy(seed=70, hidden=(32, 32), action_dim=2)
            policy = copy_policy(behavior)
            cfg = GmpgConfig(t_train=8, steps=steps, batch_size=64, lr=1e-3)
            return _traced_peak(lambda: train_gmpg(ds, LinearCritic(), policy, behavior, cfg,
                                                   np.random.default_rng(74)))

        one, two = peak(1), peak(2)
        assert two <= 1.3 * one, (two, one)

    def test_reverse_pass_peak_close_to_the_tape(self):
        # Beyond the tape the reverse pass holds, from the shapes: one
        # network call's transient (its rebuilt hidden stacks [a; da] and
        # their slopes 1 - a*a, the stacked-output gradients of two adjacent
        # layers, the slope term's B-row accumulator and the weight-gradient
        # temporaries), the parameter gradients, every stage's network-output
        # gradient (a trace's rows pass fills it before the network's reverse
        # rule runs; both unrolls) and the walk's topological list.
        batch, hidden, k, t_train = 64, (32, 32), 2, 8
        policy, loss_fn = _gmpg_setup(batch, hidden, k, GmpgConfig(t_train=t_train))
        tracemalloc.start()
        try:
            loss = loss_fn()
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        params = sum(p.data.size for p in policy.parameters())
        call = ((k + 2) * batch * sum(hidden) + 2 * (k + 1) * batch * max(hidden)
                + batch * max(hidden) + params)
        stages = 2 * t_train * (k + 1) * batch * k  # the action dimension is k
        assert peak <= held + 8 * (call + params + stages) + 256 * recorded_nodes(loss), (peak, held)

    @pytest.mark.parametrize("batch, hidden, action_dim, config", [
        (64, (32, 32), 2, GmpgConfig(t_train=4)),
        (48, (48, 48, 48), 1, GmpgConfig(t_train=2, scheme="rk4_38", variant="static",
                                         trace=TraceMode("hutchinson", 3))),
        (96, (48, 48), 2, GmpgConfig(t_train=3, scheme="midpoint")),
        (256, (64, 64), 2, GmpgConfig(t_train=8)),  # gmpg-bandit's shapes at a shorter unroll
        (128, (64, 64, 64), 2, GmpgConfig(t_train=4)),  # the paper's depth, where the rebuild saves most
    ])
    def test_tape_estimate_within_a_quarter(self, batch, hidden, action_dim, config):
        # measured as the bytes the built loss holds, closure-held arrays included
        policy, loss_fn = _gmpg_setup(batch, hidden, action_dim, config)
        tracemalloc.start()
        try:
            loss = loss_fn()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert loss._prev
        assert 0.75 * held <= gmpg_tape_bytes(policy, config, batch) <= 1.25 * held

    @pytest.mark.parametrize("action_dim", [1, 2])
    def test_default_config_tape_under_half_a_gib(self, action_dim):
        # the shipped defaults: batch 512, 256x3, t_train=1000, euler, exact
        # trace, dynamic; with every hidden row kept it read 5.9 and 6.1 GiB
        config = GmpgConfig()
        policy = GenerativePolicy(PolicyConfig(action_dim=action_dim), np.random.default_rng(0))
        assert gmpg_tape_bytes(policy, config, config.batch_size) <= 2**29


class TestGmpgConvergenceInT:
    """The discrete objective GMPG differentiates converges as the grid
    refines: from T to 2T the loss and the gradient change by about
    2^-order as much as from T/2 to T. Over T = 8..64 every change shrinks;
    the order read at the finest doubling (16, 32, 64) was 0.93 (loss) and
    0.98 (gradient) for euler, 2.04 and 2.01 for midpoint."""

    @pytest.mark.parametrize("scheme, order", [("euler", 1.0), ("midpoint", 2.0)])
    def test_loss_and_gradient_converge_at_the_scheme_order(self, scheme, order):
        losses, grads = [], []
        for t_train in (8, 16, 32, 64):
            policy, loss_fn = _gmpg_setup(16, (16, 16), 2, GmpgConfig(t_train=t_train, scheme=scheme))
            loss = loss_fn()
            loss.backward()
            losses.append(float(loss.data))
            grads.append(np.concatenate([p.grad.ravel() for p in policy.parameters()]))
        for values in (np.array(losses), np.array(grads)):
            change = [np.linalg.norm(values[i + 1] - values[i]) for i in range(3)]
            assert change[0] > change[1] > change[2] > 0.0, change
            assert abs(np.log2(change[1] / change[2]) - order) < 0.15, change


class TestKlDerivationCrossCheck:
    """Discrete 5-point sanity check that the two training expressions
    differ from true KL divergences by theta-independent constants."""

    def setup_method(self):
        rng = np.random.default_rng(123)
        self.mu = rng.dirichlet(np.ones(5))
        self.q = rng.standard_normal(5)
        self.v = float(np.dot(self.mu, self.q))
        self.beta = 1.3
        tilt = self.mu * np.exp(self.beta * (self.q - self.v))
        self.z = tilt.sum()
        self.pi_star = tilt / self.z
        self.models = [rng.dirichlet(np.ones(5)) for _ in range(10)]

    def test_forward_kl_expression_constant_offset(self):
        diffs = []
        for pi in self.models:
            expression = float(np.sum(self.mu * (np.exp(self.beta * (self.q - self.v)) / self.z)
                                      * (-np.log(pi))))
            direct = float(np.sum(self.pi_star * (np.log(self.pi_star) - np.log(pi))))
            diffs.append(expression - direct)
        assert np.ptp(diffs) < 1e-8
        # the constant is the entropy of the tilted optimum
        assert diffs[0] == pytest.approx(float(-np.sum(self.pi_star * np.log(self.pi_star))), abs=1e-10)

    def test_reverse_kl_expression_constant_offset(self):
        diffs = []
        for pi in self.models:
            expression = float(np.sum(pi * (-self.beta * self.q + np.log(pi) - np.log(self.mu))))
            direct = float(np.sum(pi * (np.log(pi) - np.log(self.pi_star))))
            diffs.append(expression - direct)
        assert np.ptp(diffs) < 1e-8
        assert diffs[0] == pytest.approx(-(self.beta * self.v + np.log(self.z)), abs=1e-10)
