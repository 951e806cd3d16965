import tracemalloc
import warnings

import numpy as np
import pytest

from genpolicy.errors import NonFiniteError
from genpolicy.nn import FieldNetwork, GaussianFourier, Mlp
from genpolicy.optim import BLOCK, Adam
from genpolicy.tensor import Tensor

from oracles import concat, grad_check, matmul, tanh, zero_grad


def test_param_count_matches_layer_formula():
    net = Mlp([3, 256, 256, 256, 2], np.random.default_rng(0))
    expect = (3 + 1) * 256 + (256 + 1) * 256 * 2 + (256 + 1) * 2
    assert sum(p.data.size for p in net.parameters()) == expect


def test_mlp_takes_given_arrays_as_they_are():
    # a checkpoint load builds the network from its arrays and draws nothing
    rng = np.random.default_rng(3)
    params = [rng.standard_normal(shape) for shape in [(3, 4), (4,), (4, 2), (2,)]]
    net = Mlp([3, 4, 2], params=params)
    assert all(p.data is a and p.requires_grad for p, a in zip(net.parameters(), params))
    with pytest.raises(ValueError, match="shape"):
        Mlp([3, 4, 2], params=params[:2] + [params[2].T, params[3]])
    with pytest.raises(ValueError):
        Mlp([3, 4, 2], params=params[:2])
    with pytest.raises(TypeError):  # layer sizes are integers
        Mlp([3, 4.0, 2], params=params)
    with pytest.raises(ValueError, match="shape"):
        GaussianFourier(4, freqs=np.zeros(3))
    with pytest.raises(ValueError, match="rng"):  # neither weights nor a way to draw them
        Mlp([3, 4, 2])
    with pytest.raises(ValueError, match="rng"):
        GaussianFourier(4)


def test_zero_weight_net_returns_output_bias():
    rng = np.random.default_rng(0)
    net = Mlp([2, 8, 8, 3], rng)
    for w in net.weights:
        w.data = np.zeros_like(w.data)
    net.biases[-1].data = np.array([1.0, -2.0, 0.5])
    out = net(Tensor(rng.standard_normal((4, 2))))
    assert np.allclose(out.data, np.tile([1.0, -2.0, 0.5], (4, 1)))


def test_forward_jvp_matches_finite_differences():
    rng = np.random.default_rng(5)
    net = Mlp([3, 16, 16, 3], rng)
    x0 = rng.standard_normal((2, 3))
    u = rng.standard_normal((2, 3))
    _, jvp = net.forward_jvp(Tensor(x0), u)
    h = 1e-6
    hi = net(Tensor(x0 + h * u)).data
    lo = net(Tensor(x0 - h * u)).data
    assert np.allclose(jvp.data, (hi - lo) / (2 * h), atol=1e-6)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("hidden, width", [([8, 8], 3), ([8], 0), ([], 2)],
                         ids=["two-layers", "no-prefix", "no-hidden"])
def test_first_layer_input_gradient_under_a_jvp(hidden, width, k):
    # the tangent seeds are a constant of the first layer; x's gradient
    # comes from the primal rows and the slope's dependence on x
    rng = np.random.default_rng(18)
    net = Mlp([width + 2, *hidden, 2], rng)
    prefix = [rng.standard_normal((1, width))] if width else []
    u = rng.standard_normal((3 * k, 2))  # k blocks of 3 rows
    wts, dwts = rng.standard_normal((3, 2)), rng.standard_normal((3 * k, 2))

    def f(x):
        out, dout = net.forward_jvp(x, u, prefix)
        return (out * wts).sum() + (dout * dwts).sum()

    assert grad_check(f, Tensor(rng.standard_normal((3, 2)))) < 1e-6


def test_jvp_is_differentiable_wrt_parameters():
    # The JVP depends on every weight matrix (the final bias drops out of
    # the Jacobian, as it must: its gradient is all zeros).
    rng = np.random.default_rng(6)
    net = Mlp([2, 8, 2], rng)
    x = Tensor(rng.standard_normal((3, 2)))
    u = rng.standard_normal((3, 2))
    _, jvp = net.forward_jvp(x, u)
    jvp.sum().backward()
    assert all(w.grad is not None for w in net.weights)
    assert not np.any(net.biases[-1].grad)


@pytest.mark.parametrize("k", [1, 4])
def test_forward_jvp_stacked_tangents_equal_separate_calls(k):
    rng = np.random.default_rng(7)
    net = Mlp([3, 16, 16, 2], rng)
    x = Tensor(rng.standard_normal((5, 3)))
    tangents = [rng.standard_normal((5, 3)) for _ in range(k)]
    out, stacked = net.forward_jvp(x, np.concatenate(tangents))
    assert np.array_equal(out.data, net(x).data)
    assert stacked.shape == (5 * k, 2)
    for j, u in enumerate(tangents):
        single_out, single = net.forward_jvp(x, u)
        assert np.array_equal(single_out.data, out.data)
        assert np.allclose(stacked.data[5 * j:5 * (j + 1)], single.data, rtol=0.0, atol=1e-12)


def test_stacked_jvp_gradient_equals_sum_of_separate_gradients():
    rng = np.random.default_rng(8)
    net = Mlp([2, 8, 8, 2], rng)
    x = Tensor(rng.standard_normal((3, 2)))
    tangents = [rng.standard_normal((3, 2)) for _ in range(3)]

    def grads():
        return [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in net.parameters()]

    net.forward_jvp(x, np.concatenate(tangents))[1].sum().backward()
    stacked = grads()
    zero_grad(net.parameters())
    for u in tangents:
        net.forward_jvp(x, u)[1].sum().backward()
    for g, expect in zip(stacked, grads()):
        assert np.allclose(g, expect, rtol=0.0, atol=1e-12)


def test_forward_jvp_rejects_ragged_tangent_rows():
    rng = np.random.default_rng(9)
    net = Mlp([2, 4, 2], rng)
    with pytest.raises(ValueError):
        net.forward_jvp(Tensor(np.zeros((3, 2))), np.zeros((4, 2)))


def test_field_network_jvp_stacked_tangent_layout():
    rng = np.random.default_rng(10)
    net = FieldNetwork(x_dim=2, state_dim=3, hidden=[16], rng=rng)
    x = Tensor(rng.standard_normal((4, 2)))
    s = Tensor(rng.standard_normal((4, 3)))
    u = np.concatenate([np.tile(e, (4, 1)) for e in np.eye(2)])
    out, du = net.jvp(x, 0.5, s, u)
    assert out.shape == (4, 2)
    assert du.shape == (8, 2)
    for j in range(2):
        _, single = net.jvp(x, 0.5, s, u[4 * j:4 * (j + 1)])
        assert np.allclose(du.data[4 * j:4 * (j + 1)], single.data, rtol=0.0, atol=1e-12)


def _unfused_forward(mlp, x, prefix=()):
    """The layer loop without the fused node: the prefix columns and x
    concatenated, then tanh(h @ w + b)."""
    h = concat([Tensor(np.broadcast_to(p, (x.shape[0], p.shape[1]))) for p in prefix] + [x], axis=1)
    for w, b in zip(mlp.weights[:-1], mlp.biases[:-1]):
        h = tanh(matmul(h, w) + b)
    return matmul(h, mlp.weights[-1]) + mlp.biases[-1]


@pytest.mark.parametrize("head, schedule, objective",
                         [("velocity", "gvp", "cfm"), ("noise", "vpsde", "dsm"), ("score", "vpsde", "dsm")],
                         ids=["velocity", "noise", "score"])
def test_matching_loss_gradients_equal_unfused_reference(head, schedule, objective, monkeypatch):
    from genpolicy.matching import MatchingConfig, matching_loss
    from genpolicy.policy import GenerativePolicy, PolicyConfig
    from genpolicy.schedules import PathSchedule
    policy = GenerativePolicy(PolicyConfig(state_dim=1, action_dim=2, hidden=(16, 16),
                                           parameterization=head, schedule=PathSchedule(schedule)),
                              np.random.default_rng(12))
    params = policy.parameters()
    data = np.random.default_rng(13)
    s, a, w = data.standard_normal((32, 1)), data.standard_normal((32, 2)), data.uniform(0, 2, 32)

    def loss_and_grads():
        zero_grad(params)
        loss = matching_loss(policy.model, policy.config.schedule, a, w,
                             np.random.default_rng(14), condition=s,
                             config=MatchingConfig(objective=objective))
        loss.backward()
        return [loss.data.tobytes()] + [p.grad.tobytes() for p in params]

    fused = loss_and_grads()
    monkeypatch.setattr(Mlp, "__call__", _unfused_forward)
    assert loss_and_grads() == fused


def test_gaussian_fourier_shape_and_determinism():
    emb1 = GaussianFourier(32, np.random.default_rng(9))
    emb2 = GaussianFourier(32, np.random.default_rng(9))
    t = np.linspace(0, 1, 5).reshape(5, 1)
    assert emb1(t).shape == (5, 32)
    assert np.array_equal(emb1(t), emb2(t))
    ang = 2.0 * np.pi * t * emb1.freqs
    assert np.allclose(emb1(t), np.concatenate([np.sin(ang), np.cos(ang)], axis=1), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("how", ["drawn", "given"])
def test_gaussian_fourier_refuses_overflowing_frequencies_without_a_warning(how):
    # 2 pi w past the float range would make every feature NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="frequencies overflow"):
            if how == "drawn":
                GaussianFourier(8, np.random.default_rng(0), scale=1e308)
            else:
                GaussianFourier(4, freqs=np.array([1.0, 1e308]))


def test_field_network_condition_plumbing():
    rng = np.random.default_rng(1)
    net = FieldNetwork(x_dim=2, state_dim=3, hidden=[16], rng=rng)
    x = Tensor(rng.standard_normal((4, 2)))
    s = Tensor(rng.standard_normal((4, 3)))
    assert net(x, 0.5, s).shape == (4, 2)
    with pytest.raises(ValueError):
        net(x, 0.5, None)


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = Adam([p], lr=1e-3)
        before = p.data.copy()
        p.grad = np.zeros(2)
        opt.step()
        assert np.array_equal(p.data, before)

    def test_first_step_magnitude(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p], lr=1e-3)
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] == pytest.approx(-1e-3 / (1 + 1e-8), rel=1e-12)
        assert opt.step_count == 1

    def test_default_lr(self):
        opt = Adam([Tensor(np.zeros(1), requires_grad=True)])
        assert opt.lr == 1e-4

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam([p])
        p.grad = np.zeros(3)
        with pytest.raises(ValueError):
            opt.step()

    def test_non_finite_gradient_rejected(self):
        p = Tensor(np.zeros(2), requires_grad=True)
        opt = Adam([p])
        p.grad = np.array([np.nan, 0.0])
        with pytest.raises(NonFiniteError):
            opt.step()

    @pytest.mark.parametrize("bad, error", [(np.array([np.nan, 0.0]), NonFiniteError),
                                            (np.array([1e200, 0.0]), NonFiniteError),
                                            (np.array([1e151, 0.0]), NonFiniteError),
                                            (np.zeros(3), ValueError)],
                             ids=["nan", "g-squared-overflows", "past-the-bound", "shape"])
    def test_rejected_step_changes_nothing(self, bad, error):
        # the second parameter's gradient is bad: the first must not have moved either.
        # A finite 1e200 overflows g*g into v, whose infinity would zero the update;
        # 1e151 overflows nothing here (g*g is 1e302), but it is past the bound
        # G < 1e150, so the step is refused before anything is written.
        rng = np.random.default_rng(19)
        params = [Tensor(rng.standard_normal(2), requires_grad=True) for _ in range(2)]
        opt = Adam(params, lr=1e-2)
        for p in params:
            p.grad = rng.standard_normal(2)
        opt.step()
        before = [a.copy() for a in [p.data for p in params] + [opt.m, opt.v]]
        params[0].grad, params[1].grad = rng.standard_normal(2), bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, with no numpy warning
            with pytest.raises(error):
                opt.step()
        after = [p.data for p in params] + [opt.m, opt.v]
        assert opt.step_count == 1
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))

    @pytest.mark.parametrize("kwargs", [{"lr": 0.0}, {"lr": -1e-3}, {"lr": np.nan}, {"lr": np.inf},
                                        {"eps": 0.0}, {"eps": -1e-8}, {"eps": np.nan},
                                        {"eps": np.inf}, {"beta1": -0.1}, {"beta1": 1.0},
                                        {"beta1": np.nan}, {"beta2": -0.1}, {"beta2": 1.0},
                                        {"beta2": np.inf}],
                             ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_hyperparameters_it_cannot_step_with_refused(self, kwargs):
        # with eps = 0 a gradient whose square underflows (|g| = 1e-170) would
        # divide by zero and write -inf into the parameter; the bound needs
        # eps > 0 and 1 - beta^step > 0
        with pytest.raises(ValueError):
            Adam([Tensor(np.array([1.0, 2.0]), requires_grad=True)], **kwargs)

    def test_step_allocates_nothing_flat_sized(self):
        # one step on the paper's 256x3 widths (133k parameters) keeps its
        # traced peak under an eighth of one flat array: no copy of g, m, v or p
        net = Mlp([3, 256, 256, 256, 1], np.random.default_rng(23))
        opt = Adam(net.parameters(), lr=1e-3)
        rng = np.random.default_rng(24)
        for p in net.parameters():
            p.grad = rng.standard_normal(p.data.shape)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert opt.flat.size == 132865 and opt.step_count == 1
        assert peak < opt.flat.nbytes / 8

    def test_overflowing_update_rejected_without_a_warning(self):
        # finite moments, but the update carries a parameter past the float range
        p = Tensor(np.array([1.7e308, 0.0]), requires_grad=True)
        opt = Adam([p], lr=1e307)
        p.grad = np.array([-1.0, 1.0])
        before = [a.copy() for a in (opt.flat, opt.m, opt.v)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                opt.step()
        assert opt.step_count == 0
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, (opt.flat, opt.m, opt.v)))

    def test_flat_buffer_matches_the_per_tensor_update(self):
        # parameters and moments byte-equal to Adam applied tensor by tensor,
        # over steps where some parameters have no gradient: on one block, and
        # on three blocks (the last a remainder) with parameters straddling both edges
        from oracles import AdamReference
        rng = np.random.default_rng(20)
        for shapes in ([(3, 4), (4,), (), (2, 1)],
                       [(BLOCK - 5,), (7, 3), (BLOCK + 100,), (), (3, 411)]):
            arrays = [rng.standard_normal(shape) for shape in shapes]
            flat = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            alone = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            opt, ref = Adam(flat, lr=1e-2), AdamReference(alone, lr=1e-2)
            for step in range(5):
                for i, shape in enumerate(shapes):
                    g = None if (i + step) % 3 == 0 else rng.standard_normal(shape)
                    flat[i].grad, alone[i].grad = g, g
                opt.step()
                ref.step()
                assert all(p.data.tobytes() == q.data.tobytes() for p, q in zip(flat, alone))
                assert opt.m.tobytes() == np.concatenate([m.ravel() for m in ref.m]).tobytes()
                assert opt.v.tobytes() == np.concatenate([v.ravel() for v in ref.v]).tobytes()
            assert opt.step_count == ref.step_count == 5
            assert all(np.shares_memory(p.data, opt.flat) for p in flat)
        assert 2 * BLOCK < opt.flat.size < 3 * BLOCK

    def test_parameter_listed_twice_rejected(self):
        p, q = (Tensor(np.zeros(2), requires_grad=True) for _ in range(2))
        with pytest.raises(ValueError):
            Adam([p, q, p])

    def test_replaced_parameter_data_rejected_before_anything_changes(self):
        rng = np.random.default_rng(22)
        params = [Tensor(rng.standard_normal(2), requires_grad=True) for _ in range(2)]
        opt = Adam(params, lr=1e-2)
        for p in params:
            p.grad = rng.standard_normal(2)
        opt.step()
        params[1].data = params[1].data.copy()  # no longer the optimizer's view
        before = [a.copy() for a in [p.data for p in params] + [opt.m, opt.v, opt.flat]]
        with pytest.raises(ValueError):
            opt.step()
        after = [p.data for p in params] + [opt.m, opt.v, opt.flat]
        assert opt.step_count == 1
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        assert abs(p.data[0]) < 1e-3


def test_field_network_without_hidden_layers():
    # the first layer is then the output layer: prefix columns and the x-only tangent in one node
    rng = np.random.default_rng(16)
    net = FieldNetwork(x_dim=2, state_dim=1, hidden=[], rng=rng, t_emb_width=4)
    x0, s, u = rng.standard_normal((3, 2)), rng.standard_normal((3, 1)), rng.standard_normal((3, 2))
    out, du = net.jvp(Tensor(x0), 0.3, s, u)
    assert out.data.tobytes() == net(Tensor(x0), 0.3, s).data.tobytes()
    assert np.allclose(du.data, u @ net.mlp.weights[0].data[-2:], rtol=0.0, atol=1e-12)
    du.sum().backward()
    assert not np.any(net.mlp.biases[0].grad) and np.any(net.mlp.weights[0].grad[-2:])


def test_field_network_time_and_condition_take_no_gradient():
    rng = np.random.default_rng(17)
    net = FieldNetwork(x_dim=2, state_dim=1, hidden=[4], rng=rng)
    x = Tensor(rng.standard_normal((3, 2)))
    with pytest.raises(ValueError):
        net(x, 0.5, Tensor(np.ones((3, 1)), requires_grad=True))
    with pytest.raises(ValueError):
        net(x, Tensor(np.full((3, 1), 0.5), requires_grad=True), np.ones((3, 1)))
