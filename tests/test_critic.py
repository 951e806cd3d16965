import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from genpolicy.critic import Critic, CriticConfig, expectile_loss, iql_step, train_critic
from genpolicy.data import OfflineDataset
from genpolicy.optim import Adam
from genpolicy.tensor import Tensor


def expectile_oracle(values, weights, tau):
    """Scalar tau-expectile by root finding (independent of the critic)."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float) / np.sum(weights)

    def moment(v):
        w = np.abs(tau - (values <= v).astype(float))
        return float(np.sum(weights * w * (values - v)))

    lo, hi = values.min() - 1.0, values.max() + 1.0
    return brentq(moment, lo, hi, xtol=1e-12)


class TestExpectileLoss:
    def test_half_mse_at_tau_half(self):
        u = np.array([2.0, -1.0, 0.3])
        loss = expectile_loss(u, 0.5)
        assert loss.data.tobytes() == (0.5 * np.mean(u ** 2)).tobytes()

    def test_direct_evaluation(self):
        assert float(expectile_loss(np.array([2.0]), 0.7).data) == pytest.approx(2.8)
        assert float(expectile_loss(np.array([-2.0]), 0.7).data) == pytest.approx(1.2)

    def test_paper_default_tau(self):
        assert CriticConfig().tau == 0.7
        assert CriticConfig().gamma == 0.99

    @settings(max_examples=30, deadline=None)
    @given(tau=st.floats(0.05, 0.95), u=st.floats(-5, 5))
    def test_continuity_at_zero_and_nonnegativity(self, tau, u):
        val = float(expectile_loss(np.array([u]), tau).data)
        assert val >= 0.0
        near_zero = float(expectile_loss(np.array([1e-9]), tau).data)
        assert near_zero < 1e-15  # both branches vanish at u = 0

    def test_tau_domain(self):
        with pytest.raises(ValueError):
            expectile_loss(np.zeros(1), 0.0)
        with pytest.raises(ValueError):
            expectile_loss(np.zeros(1), 1.0)

    def test_gradient_matches_finite_differences(self):
        from oracles import param_grad_check
        rng = np.random.default_rng(0)
        u = Tensor(rng.standard_normal(8), requires_grad=True)
        err = param_grad_check(lambda: expectile_loss(u, 0.7), [u])
        assert err < 1e-3


def test_array_values_equal_tensor_paths_bitwise():
    critic = Critic(2, 1, CriticConfig(hidden=(16, 16)), np.random.default_rng(3))
    rng = np.random.default_rng(4)
    s, a = rng.standard_normal((7, 2)), rng.standard_normal((7, 1))
    q, v = critic.q_tensor(s, Tensor(a)), critic.v_tensor(s)
    assert q._prev and v._prev  # the tensor paths record a tape
    assert critic.q_values(s, a).tobytes() == q.data[:, 0].tobytes()
    assert critic.v_values(s).tobytes() == v.data[:, 0].tobytes()


def _bandit_dataset(rewards, counts):
    rows_a, rows_r = [], []
    for rv, c in zip(rewards, counts):
        rows_a += [rv] * c
        rows_r += [rv] * c
    n = len(rows_a)
    return OfflineDataset(s=np.zeros((n, 1)), a=np.array(rows_a)[:, None],
                          r=np.array(rows_r), s2=np.zeros((n, 1)), done=np.ones(n))


def _small_config(steps=3000):
    return CriticConfig(tau=0.9, gamma=0.99, lr=1e-3, hidden=(32, 32), steps=steps, batch_size=64)


class TestIqlTraining:
    def test_single_transition_fixed_point(self):
        ds = _bandit_dataset([1.0], [32])
        critic = train_critic(ds, CriticConfig(tau=0.7, lr=1e-3, hidden=(16, 16),
                                               steps=1500, batch_size=32),
                              np.random.default_rng(0))
        assert critic.q_values(ds.s[:1], ds.a[:1])[0] == pytest.approx(1.0, abs=0.05)
        assert critic.v_values(ds.s[:1])[0] == pytest.approx(1.0, abs=0.05)

    def test_two_action_bandit_v_hits_expectile(self):
        # rewards {0, 1} at 30/70 occupancy, tau = 0.9
        ds = _bandit_dataset([0.0, 1.0], [30, 70])
        critic = train_critic(ds, _small_config(), np.random.default_rng(1))
        q0 = critic.q_values(np.zeros((1, 1)), np.zeros((1, 1)))[0]
        q1 = critic.q_values(np.zeros((1, 1)), np.ones((1, 1)))[0]
        v = critic.v_values(np.zeros((1, 1)))[0]
        oracle = expectile_oracle([q0, q1], [0.3, 0.7], 0.9)
        assert abs(v - oracle) < 0.05

    def test_advantage_ordering_and_zero_point(self):
        ds = _bandit_dataset([0.0, 1.0], [30, 70])
        critic = train_critic(ds, _small_config(), np.random.default_rng(2))
        s = np.zeros((2, 1))
        a = np.array([[0.0], [1.0]])
        adv = critic.advantage(s, a)
        assert adv[1] > adv[0]  # better action has larger advantage
        q = critic.q_values(s, a)
        v = critic.v_values(s)
        assert np.allclose(adv, q - v)

    def test_bellman_consistency_on_chain(self):
        # s0 --(r=0.5)--> s1 --(r=1, terminal)-->; gamma = 0.99
        n = 64
        s = np.concatenate([np.zeros((n, 1)), np.ones((n, 1))])
        a = np.zeros((2 * n, 1))
        r = np.concatenate([np.full(n, 0.5), np.full(n, 1.0)])
        s2 = np.concatenate([np.ones((n, 1)), np.ones((n, 1))])
        done = np.concatenate([np.zeros(n), np.ones(n)])
        ds = OfflineDataset(s=s, a=a, r=r, s2=s2, done=done)
        cfg = CriticConfig(tau=0.7, gamma=0.99, lr=1e-3, hidden=(32, 32),
                           steps=8000, batch_size=128)
        critic = train_critic(ds, cfg, np.random.default_rng(3))
        v1 = critic.v_values(np.ones((1, 1)))[0]
        q1 = critic.q_values(np.ones((1, 1)), np.zeros((1, 1)))[0]
        q0 = critic.q_values(np.zeros((1, 1)), np.zeros((1, 1)))[0]
        assert abs(q1 - 1.0) < 0.05  # terminal: no bootstrap
        assert abs(q0 - (0.5 + 0.99 * v1)) < 0.05

    def test_iql_step_returns_finite_losses(self):
        ds = _bandit_dataset([0.0, 1.0], [4, 4])
        critic = Critic(1, 1, _small_config(), np.random.default_rng(4))
        opt_v = Adam(critic.v_net.parameters(), lr=1e-3)
        opt_q = Adam(critic.q_net.parameters(), lr=1e-3)
        vl, ql = iql_step(critic, (ds.s, ds.a, ds.r, ds.s2, ds.done), opt_v, opt_q)
        assert np.isfinite(vl) and np.isfinite(ql)


def _iql_batches(done, seed, steps=50, n=96, batch=32):
    """``steps`` mini-batches of a random 2-d state, 1-d action dataset
    whose ``done`` column is ``done(n)``."""
    rng = np.random.default_rng(seed)
    s, a, s2 = (rng.standard_normal((n, w)) for w in (2, 1, 2))
    r = rng.standard_normal(n)
    d = done(n)
    for _ in range(steps):
        idx = rng.integers(0, n, size=batch)
        yield s[idx], a[idx], r[idx], s2[idx], d[idx]


DONE_COLUMNS = {"all_terminal": np.ones,
                "mixed": lambda n: (np.arange(n) % 3 == 0).astype(float)}


@pytest.mark.parametrize("done", list(DONE_COLUMNS))
def test_iql_step_matches_two_forward_reference_bytewise(done):
    from oracles import iql_step_reference
    runs = []
    for step_fn in (iql_step, iql_step_reference):
        critic = Critic(2, 1, CriticConfig(tau=0.7, gamma=0.9, hidden=(16, 16)),
                        np.random.default_rng(5))
        opt_v = Adam(critic.v_net.parameters(), lr=1e-3)
        opt_q = Adam(critic.q_net.parameters(), lr=1e-3)
        losses = [step_fn(critic, batch, opt_v, opt_q)
                  for batch in _iql_batches(DONE_COLUMNS[done], seed=6)]
        runs.append((np.array(losses).tobytes(),
                     [p.data.tobytes() for p in critic.parameters()]))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


@pytest.mark.parametrize("done, v_calls", [("all_terminal", 0), ("mixed", 1)])
def test_iql_step_evaluates_q_once_and_v_of_next_state_only_when_needed(monkeypatch, done,
                                                                       v_calls):
    calls = {"q_tensor": 0, "v_values": 0}
    for name in calls:
        original = getattr(Critic, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Critic, name, counted)
    critic = Critic(2, 1, CriticConfig(hidden=(8,)), np.random.default_rng(7))
    opt_v = Adam(critic.v_net.parameters(), lr=1e-3)
    opt_q = Adam(critic.q_net.parameters(), lr=1e-3)
    for steps, batch in enumerate(_iql_batches(DONE_COLUMNS[done], seed=8, steps=3), 1):
        iql_step(critic, batch, opt_v, opt_q)
        assert calls == {"q_tensor": steps, "v_values": v_calls * steps}


def test_iql_losses_record_one_node_per_network_call(monkeypatch):
    # the V loss: V(s) and its expectile regression onto the constant Q(s, a)
    # (one sq_mean node); the Q loss: Q(s, a) and its regression onto the
    # constant target (one sq_mean node)
    from oracles import recorded_nodes
    counts, backward = [], Tensor.backward

    def counting(self):
        counts.append(recorded_nodes(self))
        return backward(self)

    monkeypatch.setattr(Tensor, "backward", counting)
    critic = Critic(2, 1, CriticConfig(hidden=(8, 8)), np.random.default_rng(9))
    opt_v = Adam(critic.v_net.parameters(), lr=1e-3)
    opt_q = Adam(critic.q_net.parameters(), lr=1e-3)
    iql_step(critic, next(_iql_batches(DONE_COLUMNS["mixed"], seed=10, steps=1)), opt_v, opt_q)
    assert counts == [2, 2]
