import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genpolicy.errors import NonFiniteError
from genpolicy.tensor import Tensor, network, no_tape

from oracles import (concat, cos, exp, grad_check, log, matmul, network_reference, recorded_nodes,
                     reshape, sin, sqrt, tanh, zero_grad)


def _fd(f, x, h=1e-5):
    """Central finite differences of a scalar function of a flat array."""
    g = np.zeros_like(x)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi.flat[i] += h
        lo.flat[i] -= h
        g.flat[i] = (f(hi) - f(lo)) / (2 * h)
    return g


class TestBackward:
    def test_square_at_3(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x
        y.backward()
        assert x.grad == pytest.approx(6.0)

    def test_constant_has_zero_gradient(self):
        x = Tensor(np.ones(4), requires_grad=True)
        c = Tensor(np.arange(4.0))
        out = (c * c).sum() + (x * 0.0).sum()
        out.backward()
        assert np.array_equal(x.grad, np.zeros(4))
        assert c.grad is None

    def test_tanh_matmul_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((8, 8))
        x0 = rng.standard_normal(8)

        def f_np(x):
            return np.tanh(w @ x).sum()

        x = Tensor(x0, requires_grad=True)
        out = tanh(matmul(Tensor(w), reshape(x, 8, 1))).sum()
        out.backward()
        fd = _fd(f_np, x0)
        rel = np.abs(x.grad.ravel() - fd) / (np.abs(fd) + 1e-8)
        assert rel.max() < 1e-4

    def test_backward_rejects_non_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * x).backward()

    def test_shared_subexpression_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 5
        y.backward()
        assert x.grad == pytest.approx(5.0)

    def test_repeated_backward_through_interior_nodes_accumulates(self):
        x = Tensor(1.5, requires_grad=True)
        y = x * x
        z = y * y  # dz/dx = 4 x^3 = 13.5
        z.backward()
        z.backward()
        assert float(x.grad) == 27.0

    def test_interior_grads_freed_leaves_and_root_keep_theirs(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        w2, b2 = Tensor(rng.standard_normal((4, 4)), requires_grad=True), Tensor(np.zeros(4))
        h = network(x, [w, w2], [b, b2])
        out = reshape(concat([h.rows(0, 2), (h * h).rows(1)], axis=1), -1).sum() * 0.5 + (x * x).sum()
        out.backward()
        seen, stack, interior = set(), [out], []
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(node._prev)
                if node._prev and node is not out:
                    interior.append(node)
        assert len(interior) >= 6
        assert all(node.grad is None for node in interior)
        assert all(p.grad is not None for p in (x, w, b, w2))
        assert out.grad == 1.0

    def test_first_accumulation_copies_the_incoming_gradient(self):
        # add hands its own out.grad to both parents; neither may alias it
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        (x + y).sum().backward()
        x.grad += 1.0
        assert np.array_equal(y.grad, np.ones(3))

    def test_repeated_backward_accumulates(self):
        x = Tensor(1.5, requires_grad=True)
        y = x * x
        y.backward()
        first = float(x.grad)
        y.backward()
        assert float(x.grad) == pytest.approx(2 * first)
        zero_grad([x])
        assert x.grad is None


PRIMITIVES = [
    ("add", lambda a, b: (a + b).sum(), lambda a, b: (a + b).sum()),
    ("sub", lambda a, b: (a - b).sum(), lambda a, b: (a - b).sum()),
    ("mul", lambda a, b: (a * b).sum(), lambda a, b: (a * b).sum()),
    ("matmul", lambda a, b: matmul(reshape(a, 2, 3), reshape(b, 3, 2)).sum(),
     lambda a, b: (a.reshape(2, 3) @ b.reshape(3, 2)).sum()),
    ("exp", lambda a, b: (exp(a) * b).sum(), lambda a, b: (np.exp(a) * b).sum()),
    ("tanh", lambda a, b: (tanh(a) * b).sum(), lambda a, b: (np.tanh(a) * b).sum()),
    ("sin", lambda a, b: (sin(a) * b).sum(), lambda a, b: (np.sin(a) * b).sum()),
    ("cos", lambda a, b: (cos(a) * b).sum(), lambda a, b: (np.cos(a) * b).sum()),
    ("square", lambda a, b: (a.square() * b).sum(), lambda a, b: (a ** 2 * b).sum()),
    ("mean", lambda a, b: (a * b).mean(), lambda a, b: (a * b).mean()),
]


@pytest.mark.parametrize("name,f_t,f_np", PRIMITIVES, ids=[p[0] for p in PRIMITIVES])
def test_primitive_gradients_match_finite_differences(name, f_t, f_np):
    rng = np.random.default_rng(hash(name) % 2**32)
    a0 = rng.standard_normal(6)
    b0 = rng.standard_normal(6)
    a = Tensor(a0, requires_grad=True)
    out = f_t(a, Tensor(b0))
    out.backward()
    fd = _fd(lambda x: f_np(x, b0), a0)
    assert np.abs(a.grad - fd).max() / (np.abs(fd).max() + 1e-8) < 1e-4


def test_log_sqrt_gradients_on_positive_domain():
    rng = np.random.default_rng(7)
    a0 = rng.uniform(0.5, 2.0, size=5)
    for f_t, f_np in [(lambda a: log(a).sum(), lambda x: np.log(x).sum()),
                      (lambda a: sqrt(a).sum(), lambda x: np.sqrt(x).sum())]:
        a = Tensor(a0, requires_grad=True)
        f_t(a).backward()
        fd = _fd(f_np, a0)
        assert np.allclose(a.grad, fd, rtol=1e-6)


def test_broadcast_gradients():
    rng = np.random.default_rng(3)
    col0 = rng.standard_normal((4, 1))
    mat0 = rng.standard_normal((4, 3))
    col = Tensor(col0, requires_grad=True)
    mat = Tensor(mat0, requires_grad=True)
    out = (col * mat).sum()
    out.backward()
    assert col.grad.shape == (4, 1)
    assert np.allclose(col.grad, mat0.sum(axis=1, keepdims=True))
    assert np.allclose(mat.grad, np.broadcast_to(col0, (4, 3)))


def test_sum_axis_and_keepdims():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    out = (x.sum(axis=1) * np.array([2.0, 3.0])).sum()
    out.backward()
    assert np.allclose(x.grad, [[2, 2, 2], [3, 3, 3]])


@settings(max_examples=25, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_gradient_linearity(a, b):
    """grad(a*f + b*g) == a*grad(f) + b*grad(g)."""
    x0 = np.array([0.3, -1.2, 0.7])

    def gf():
        x = Tensor(x0, requires_grad=True)
        (tanh(x) * x).sum().backward()
        return x.grad

    def gg():
        x = Tensor(x0, requires_grad=True)
        (x.square() + sin(x)).sum().backward()
        return x.grad

    x = Tensor(x0, requires_grad=True)
    (a * (tanh(x) * x).sum() + b * (x.square() + sin(x)).sum()).backward()
    assert np.allclose(x.grad, a * gf() + b * gg(), rtol=1e-10, atol=1e-12)


def test_non_finite_forward_raises():
    with pytest.raises(NonFiniteError):
        log(Tensor(np.array([1.0, -1.0])))
    with pytest.raises(NonFiniteError):
        log(Tensor([0.0]))
    with pytest.raises(NonFiniteError):
        Tensor(np.array([1e200])).square()


def test_non_finite_input_rejected():
    with pytest.raises(NonFiniteError):
        Tensor(np.array([1.0, np.nan]))


def test_determinism_same_seed_bitwise():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((5, 5)), requires_grad=True)
        out = tanh(matmul(x, Tensor(rng.standard_normal((5, 5))))).sum()
        out.backward()
        return out.data.copy(), x.grad.copy()

    o1, g1 = run()
    o2, g2 = run()
    assert o1.tobytes() == o2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def _grads_of(fn, *arrays, g0):
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*leaves)
    (out * g0).sum().backward()
    return [out.data] + [t.grad for t in leaves]


def _layers(rng, widths):
    """Weight and bias arrays of the layers between ``widths``."""
    return ([rng.standard_normal((n, m)) for n, m in zip(widths[:-1], widths[1:])],
            [rng.standard_normal(m) for m in widths[1:]])


def _unfused(x, ws, bs, prefix=()):
    """The network without its node: the prefix blocks, repeated on every
    row, and x concatenated, then tanh(h @ w + b) per hidden layer and a
    linear last layer."""
    if prefix:
        rows = x.shape[0]
        x = concat([Tensor(np.repeat(p, rows // p.shape[0], axis=0)) for p in prefix] + [x])
    for w, b in zip(ws[:-1], bs[:-1]):
        x = tanh(matmul(x, w) + b)
    return matmul(x, ws[-1]) + bs[-1]


class TestNetworkNode:
    """``tensor.network``: one node for a whole MLP call (tanh hidden
    layers, a linear last layer), with constant prefix blocks and tangents."""

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_same_values_and_gradients_as_the_unfused_layers(self, depth):
        rng = np.random.default_rng(9 + depth)
        ws, bs = _layers(rng, [3, 4, 5, 2][:depth] + [2])
        x0, g0 = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))

        def run(f):
            return _grads_of(lambda x, *p: f(x, list(p[:depth]), list(p[depth:])),
                             x0, *ws, *bs, g0=g0)

        fused, ref = run(network), run(_unfused)
        assert all(f.tobytes() == r.tobytes() for f, r in zip(fused, ref))

    def test_one_node_per_call(self):
        rng = np.random.default_rng(11)
        ws, bs = _layers(rng, [3, 4, 4, 2])
        out = network(Tensor(rng.standard_normal((5, 3)), requires_grad=True),
                      [Tensor(w) for w in ws], [Tensor(b) for b in bs],
                      tangent=rng.standard_normal((10, 3)))
        assert out.shape == (15, 2)
        assert recorded_nodes(out) == 1

    def test_grad_check_with_broadcast_bias(self):
        rng = np.random.default_rng(10)
        (w0, w1), (b0, b1) = _layers(rng, [3, 2, 2])
        w, w2, b, b2 = Tensor(w0), Tensor(w1), Tensor(b0), Tensor(b1)
        x = Tensor(rng.standard_normal((4, 3)))
        wts = rng.standard_normal((4, 2))
        assert grad_check(lambda x: (network(reshape(x, 4, 3), [w, w2], [b, b2]) * wts).sum(),
                          Tensor(rng.standard_normal(12))) < 1e-6
        assert grad_check(lambda w: (network(x, [reshape(w, 3, 2), w2], [b, b2]) * wts).sum(),
                          Tensor(rng.standard_normal(6))) < 1e-6
        assert grad_check(lambda b: (network(x, [w, w2], [b, b2]) * wts).sum(),
                          Tensor(rng.standard_normal(2))) < 1e-6

    @pytest.mark.parametrize("depth", [1, 2, 3], ids=["linear", "one-hidden", "two-hidden"])
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("prefix_rows", [None, 1, 4], ids=["no-prefix", "row-prefix", "prefix"])
    def test_grad_check_with_tangents(self, depth, k, prefix_rows):
        # every argument of the node; with k > 0 the slope's own derivative is in play
        rng = np.random.default_rng(13 + k)
        rows, n = 4, 3
        prefix = [] if prefix_rows is None else [rng.standard_normal((prefix_rows, 2)),
                                                 rng.standard_normal((rows, 1))]
        width = n + sum(p.shape[1] for p in prefix)
        ws, bs = _layers(rng, [width, 5, 4][:depth] + [3])
        x0 = rng.standard_normal((rows, n))
        tangent = rng.standard_normal((k * rows, n)) if k else None
        wts = rng.standard_normal(((k + 1) * rows, 3))
        arrays = [x0] + ws + bs

        def f(i, arg):
            # the probe ``arg`` stands in for argument i of the network call
            args = [Tensor(a) for a in arrays]
            args[i] = arg
            out = network(args[0], args[1:depth + 1], args[depth + 1:], prefix, tangent)
            return (out * wts).sum()

        # Past one layer the bound is 1e-4: with a tanh layer in front, the
        # row-prefix k=0 case has a weight whose gradient is 3e-7, and central
        # differences miss it by 6e-5 of itself (truncation error, of order
        # h^2 times the third derivative); the unfused primitive ops show the
        # same error on the same coordinate.
        bound = 1e-6 if depth == 1 else 1e-4
        for i, a in enumerate(arrays):
            assert grad_check(lambda arg: f(i, arg), Tensor(a)) < bound, i

    @pytest.mark.parametrize("rows, shared_first", [(4, True), (4, False), (1, True)],
                             ids=["shared-first", "shared-last", "one-row"])
    def test_one_row_block_folds_into_the_bias_row(self, rows, shared_first):
        # values and gradients of the fold against the unfused layers over
        # the concatenated input, the one-row block repeated on every row
        rng = np.random.default_rng(21)
        blocks = [rng.standard_normal((1, 3)), rng.standard_normal((rows, 2))]
        blocks = blocks if shared_first else blocks[::-1]
        ws, bs = _layers(rng, [7, 4, 3])
        x0, g0 = rng.standard_normal((rows, 2)), rng.standard_normal((rows, 3))

        def run(f):
            return _grads_of(lambda x, w0, w1, b0, b1: f(x, [w0, w1], [b0, b1], blocks),
                             x0, *ws, *bs, g0=g0)

        fused, ref = run(network), run(_unfused)
        assert all(np.allclose(f, r, rtol=0.0, atol=1e-13) for f, r in zip(fused, ref))

    @pytest.mark.parametrize("depth", [1, 2], ids=["linear", "tanh"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_rows_are_the_call_and_its_jvp(self, depth, k):
        rng = np.random.default_rng(14)
        rows = 4
        prefix = [rng.standard_normal((1, 2))]
        ws, bs = _layers(rng, [5, 6, 3][:depth] + [3])
        x0, u = rng.standard_normal((rows, 3)), rng.standard_normal((k * rows, 3))
        args = [Tensor(w) for w in ws], [Tensor(b) for b in bs]
        out = network(Tensor(x0), *args, prefix, u).data
        alone = network(Tensor(x0), *args, prefix).data
        assert out[:rows].tobytes() == alone.tobytes()
        z = np.concatenate([np.repeat(prefix[0], rows, axis=0), x0], axis=1) @ ws[0] + bs[0]
        dz = [u[j * rows:(j + 1) * rows] @ ws[0][2:] for j in range(k)]
        if depth == 2:
            slope = 1.0 - np.tanh(z) ** 2
            z = np.tanh(z) @ ws[1] + bs[1]
            dz = [(d * slope) @ ws[1] for d in dz]
        assert np.allclose(out[:rows], z, rtol=0.0, atol=1e-12)
        for j in range(k):
            assert np.allclose(out[(j + 1) * rows:(j + 2) * rows], dz[j], rtol=0.0, atol=1e-12)

    def test_frozen_layers_take_no_gradient(self):
        # frozen weights get no gradient; the others, and x, get the same bytes
        rng = np.random.default_rng(15)
        ws, bs = _layers(rng, [3, 4, 4, 2])
        x0, u, g0 = rng.standard_normal((5, 3)), rng.standard_normal((5, 3)), rng.standard_normal((10, 2))

        def grads(frozen, x_grad):
            x = Tensor(x0, requires_grad=x_grad)
            params = [Tensor(a, requires_grad=i not in frozen) for i, a in enumerate(ws + bs)]
            (network(x, params[:3], params[3:], tangent=u) * g0).sum().backward()
            return [x.grad] + [p.grad for p in params]

        full = grads(set(), True)
        for frozen, x_grad in [({0, 3}, False), ({0, 1, 3, 4}, False), (set(range(6)), True),
                               ({1, 4}, True)]:
            part = grads(frozen, x_grad)
            assert (part[0] is None) != x_grad
            for i, (g, ref) in enumerate(zip(part[1:], full[1:])):
                assert g is None if i in frozen else g.tobytes() == ref.tobytes()
            if x_grad:
                assert part[0].tobytes() == full[0].tobytes()

    def test_rejects_non_2d_like_matmul(self):
        w, b = Tensor(np.ones((3, 2))), Tensor(np.zeros(2))
        for x in (Tensor(np.ones(3)), Tensor(np.ones((2, 2, 3)))):
            with pytest.raises(ValueError):
                matmul(x, w)
            with pytest.raises(ValueError):
                network(x, [w], [b])
        with pytest.raises(ValueError):
            network(Tensor(np.ones((4, 3))), [Tensor(np.ones(3))], [b])
        with pytest.raises(ValueError):  # tangent rows come in whole blocks
            network(Tensor(np.ones((4, 3))), [w], [b], tangent=np.ones((6, 3)))
        with pytest.raises(ValueError):  # and at least one of them
            network(Tensor(np.ones((4, 3))), [w], [b], tangent=np.ones((0, 3)))
        with pytest.raises(ValueError):  # the input is wider than the weight
            network(Tensor(np.ones((4, 4))), [w], [b])
        with pytest.raises(ValueError):  # the layers do not chain
            network(Tensor(np.ones((4, 3))), [w, w], [b, b])
        with pytest.raises(ValueError):  # the bias does not fit the weight
            network(Tensor(np.ones((4, 3))), [w], [Tensor(np.zeros(3))])
        with pytest.raises(ValueError):  # no rows
            network(Tensor(np.ones((0, 3))), [w], [b])

    def test_non_finite_weight_raises(self):
        from genpolicy.nn import Mlp
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        w.data[1, 0] = np.inf  # set after the leaf's own check, as a diverged update would
        with pytest.raises(NonFiniteError):
            network(Tensor(np.ones((4, 3))), [w], [Tensor(np.zeros(2))])
        net = Mlp([3, 4, 2], np.random.default_rng(0))
        net.weights[-1].data[0, 0] = np.inf
        with pytest.raises(NonFiniteError):
            net(Tensor(np.ones((4, 3))))

    def test_nan_in_a_hidden_layer_reaches_the_output(self):
        # the hidden activations are not checked on their own
        from genpolicy.nn import Mlp
        net = Mlp([3, 4, 4, 2], np.random.default_rng(0))
        net.weights[0].data[0, 1] = np.nan
        with pytest.raises(NonFiniteError):
            net(Tensor(np.ones((4, 3))))
        with pytest.raises(NonFiniteError):
            net.forward_jvp(Tensor(np.ones((4, 3))), np.ones((4, 3)))

    @pytest.mark.parametrize("k", [0, 2])
    def test_overflow_in_a_hidden_layer_raises_without_a_warning(self, k):
        # finite weights whose first-layer product overflows: the tanh would
        # saturate the inf to a finite 1 that the output check passes
        from genpolicy.nn import Mlp
        net = Mlp([3, 4, 4, 2], np.random.default_rng(0))
        net.weights[0].data[:] = 1e308
        x, before = Tensor(np.ones((4, 3))), np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="overflow"):
                net.forward_jvp(x, np.ones((k * 4, 3))) if k else net(x)
            with no_tape(), pytest.raises(NonFiniteError, match="overflow"):
                net(x)
        assert np.geterr() == before


class TestNetworkTangentLayout:
    """A tangent-carrying call keeps no hidden-layer row and reruns every
    hidden layer, primal and tangent rows, in the reverse pass; a plain
    call keeps each hidden layer's B primal rows. The values and gradients
    stay those of the node that kept every row
    (``oracles.network_reference``)."""

    @pytest.mark.parametrize("depth", [1, 2, 3], ids=["linear", "one-hidden", "two-hidden"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("prefix_rows", [None, 1, 4], ids=["no-prefix", "row-prefix", "prefix"])
    @pytest.mark.parametrize("frozen, x_grad", [
        ((), True), (("w", "b"), True), (("w0", "b0"), False), (("w1",), True)],
        ids=["trainable", "frozen", "first-layer-frozen", "second-weight-frozen"])
    def test_same_bytes_as_the_keep_every_row_node(self, depth, k, prefix_rows, frozen, x_grad):
        rng = np.random.default_rng(40 + 3 * depth + k)
        rows, n = 4, 3
        prefix = [] if prefix_rows is None else [rng.standard_normal((prefix_rows, 2)),
                                                 rng.standard_normal((rows, 1))]
        width = n + sum(p.shape[1] for p in prefix)
        ws, bs = _layers(rng, [width, 5, 4][:depth] + [3])
        x0, u = rng.standard_normal((rows, n)), rng.standard_normal((k * rows, n))
        g0 = rng.standard_normal(((k + 1) * rows, 3))
        names = [f"w{i}" for i in range(depth)] + [f"b{i}" for i in range(depth)]

        def run(f):
            x = Tensor(x0, requires_grad=x_grad)
            params = [Tensor(a, requires_grad=not any(nm.startswith(fz) for fz in frozen))
                      for nm, a in zip(names, ws + bs)]
            out = f(x, params[:depth], params[depth:], prefix, u)
            if out._prev:
                (out * g0).sum().backward()
            return [out.data, x.grad] + [p.grad for p in params]

        for got, ref in zip(run(network), run(network_reference)):
            assert (got is None) == (ref is None)
            assert got is None or got.tobytes() == ref.tobytes()

    @staticmethod
    def _held(f, hidden, k, prefix=False):
        """The bytes a taped call at B=64 over n=3 input columns allocates
        and still holds while its output lives; x, the tangent seeds and
        the parameters are made before tracing starts."""
        rng = np.random.default_rng(41)
        rows, n = 64, 3
        blocks = [rng.standard_normal((1, 2)), rng.standard_normal((rows, 1))] if prefix else []
        ws, bs = _layers(rng, [n + 3 * prefix, *hidden, 2])
        x0 = rng.standard_normal((rows, n))
        u = rng.standard_normal((k * rows, n)) if k else None
        x = Tensor(x0, requires_grad=True)
        params = [Tensor(a, requires_grad=True) for a in ws + bs]
        tracemalloc.start()
        try:
            out = f(x, params[:len(ws)], params[len(ws):], blocks, u)
            assert out._prev  # alive, with its tape, while measured
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("prefix", [False, True], ids=["no-prefix", "time-and-condition"])
    @pytest.mark.parametrize("hidden", [(32,), (32, 32), (32, 32, 32)],
                             ids=["one-hidden", "two-hidden", "three-hidden"])
    def test_tangent_call_keeps_no_hidden_row(self, hidden, prefix):
        # B=64, k=2: the node holds its (k+1)·B-row output and its first
        # layer's per-row input ([condition | x] with the prefix; x's own rows
        # without it); the tangent seeds are the caller's array
        rows, k, n = 64, 2, 3
        arrays = 8 * ((k + 1) * rows * 2 + prefix * rows * (1 + n))
        node = self._held(network, hidden, k, prefix)
        assert arrays <= node <= arrays + 4096, (node, arrays)
        # the reference keeps every hidden layer's (k+1)·B stacked rows and
        # the first layer's stacked input [x; seeds], (k+1)·B rows of width n
        more = 8 * (k + 1) * rows * (sum(hidden) + n)
        ref = self._held(network_reference, hidden, k, prefix)
        assert abs(ref - node - more) <= 2048, (ref, node, more)

    @pytest.mark.parametrize("hidden", [(32,), (32, 32), (32, 32, 32)],
                             ids=["one-hidden", "two-hidden", "three-hidden"])
    def test_plain_call_keeps_every_hidden_layers_rows(self, hidden):
        # k = 0 (the critic and matching losses): B rows per hidden layer
        # beside the B-row output, so the reverse pass reruns nothing
        rows = 64
        arrays = 8 * rows * (2 + sum(hidden))
        node = self._held(network, hidden, 0)
        assert arrays <= node <= arrays + 4096, (node, arrays)


class TestLossNodes:
    @pytest.mark.parametrize("b_shape", [(4, 3), (3,), (4, 1), ()])
    def test_sub_is_one_node_equal_to_adding_the_negation(self, b_shape):
        rng = np.random.default_rng(31)
        arrays, g0 = (rng.standard_normal((4, 3)), rng.standard_normal(b_shape)), rng.standard_normal((4, 3))
        one = _grads_of(lambda a, b: a - b, *arrays, g0=g0)
        composed = _grads_of(lambda a, b: a + b * (-1.0), *arrays, g0=g0)
        assert all(f.tobytes() == r.tobytes() for f, r in zip(one, composed))
        a, b = Tensor(arrays[0], requires_grad=True), Tensor(arrays[1], requires_grad=True)
        assert recorded_nodes(a - b) == 1

    @pytest.mark.parametrize("keepdims", [False, True])
    def test_mean_is_one_node_equal_to_the_scaled_sum(self, keepdims):
        rng = np.random.default_rng(32)
        a0 = rng.standard_normal((5, 3))

        def run(f):
            a = Tensor(a0, requires_grad=True)
            out = f(a)
            (out * 1.7).sum().backward()
            return out, a.grad

        (out, grad), (ref, ref_grad) = run(lambda a: a.mean(keepdims=keepdims)), \
            run(lambda a: a.sum(keepdims=keepdims) * (1.0 / a0.size))
        assert out.data.tobytes() == ref.data.tobytes() and out.shape == ref.shape
        assert grad.tobytes() == ref_grad.tobytes()
        assert recorded_nodes(Tensor(a0, requires_grad=True).mean()) == 1

    @pytest.mark.parametrize("case", ["scalar target", "array target", "row weight",
                                      "expectile"])
    def test_sq_mean_is_one_node_equal_to_the_composite(self, case):
        rng = np.random.default_rng(33)
        x0, c = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        w = np.abs(rng.standard_normal((6, 1)))
        if case == "scalar target":
            fused, composite = (lambda x: x.sq_mean(0.4),
                                lambda x: (x - 0.4).square().mean())
        elif case == "array target":
            fused, composite = (lambda x: x.sq_mean(c), lambda x: (x - c).square().mean())
        elif case == "row weight":  # a (B, 1) weight over (B, d) residuals
            fused, composite = (lambda x: x.sq_mean(c, w),
                                lambda x: ((x - c).square() * w).mean())
        else:  # the IQL V loss: the residual c - x, weighted by its sign
            u = c - x0
            ew = np.abs(0.7 - (u <= 0.0).astype(float))
            fused, composite = (lambda x: x.sq_mean(c, ew),
                                lambda x: ((Tensor(c) - x).square() * ew).mean())

        def run(f):
            x = Tensor(x0, requires_grad=True)
            out = f(x)
            (out * 1.3).backward()
            return out, x.grad

        (out, grad), (ref, ref_grad) = run(fused), run(composite)
        assert out.data.tobytes() == ref.data.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        assert recorded_nodes(fused(Tensor(x0, requires_grad=True))) == 1

    def test_sq_mean_matches_finite_differences(self):
        from oracles import param_grad_check
        rng = np.random.default_rng(34)
        x = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        c, w = rng.standard_normal((5, 2)), np.abs(rng.standard_normal((5, 1)))
        assert param_grad_check(lambda: x.sq_mean(c, w), [x]) < 1e-6

    def test_sq_mean_overflow_raises(self):
        x = Tensor(np.array([1e200]), requires_grad=True)
        with pytest.raises(NonFiniteError):
            x.sq_mean(0.0)


class TestNoTape:
    def test_same_values_and_no_graph(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        taped = concat([tanh(matmul(x, w)), x], axis=1)
        with no_tape():
            free = concat([tanh(matmul(x, w)), x], axis=1)
        assert free.data.tobytes() == taped.data.tobytes()
        assert taped._prev and taped._backward is not None
        assert free._prev == () and free._backward is None

    def test_nests(self):
        x = Tensor(1.5, requires_grad=True)
        with no_tape():
            with no_tape():
                assert (x * x)._prev == ()
            assert (x * x)._prev == ()  # the inner exit keeps the outer setting
        y = x * x
        assert y._prev
        y.backward()
        assert x.grad == pytest.approx(3.0)

    def test_restores_recording_after_an_error(self):
        x = Tensor(2.0, requires_grad=True)
        with pytest.raises(NonFiniteError):  # finite checks still run without a tape
            with no_tape():
                log(x * 0.0)
        (x * x).backward()
        assert x.grad == pytest.approx(4.0)


INPUTS = {
    "list": [1, 2, 3],
    "int": 2,
    "int-array": np.array([[2, -3], [0, 4]]),
    "float32": np.array([1.5, -0.25, 3.0], dtype=np.float32),
    "float16": np.array([0.5, 2.0], dtype=np.float16),
}


@pytest.mark.parametrize("value", INPUTS)
def test_every_tensor_holds_float64(value):
    t = Tensor(INPUTS[value])
    assert t.data.dtype == np.float64
    assert np.array_equal(t.data, np.asarray(INPUTS[value], dtype=np.float64))
    assert (t * t).data.dtype == (t - t).data.dtype == t.mean().data.dtype == np.float64


def test_float64_array_is_held_as_it_is():
    arr = np.zeros(3)
    assert Tensor(arr).data is arr


CONSTANTS = {
    "float": 0.7,
    "float64": np.array([0.5, -1.25, 2.0]),
    "float32": np.array([[1.5], [-0.25]], dtype=np.float32),
    "int": np.array([[2, -3, 1], [0, 4, -1]]),
}
CONSTANT_OPS = {
    "add": lambda x, c: x + c, "radd": lambda x, c: c + x,
    "sub": lambda x, c: x - c, "rsub": lambda x, c: c - x,
    "mul": lambda x, c: x * c, "rmul": lambda x, c: c * x,
}


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("op", CONSTANT_OPS)
@pytest.mark.parametrize("const", CONSTANTS)
def test_constant_operand_equals_wrapped_constant(const, op, dtype):
    # an array or number operand records no node of its own, and gives the
    # values and gradients of the same constant wrapped as a Tensor; float32
    # input, operand or constant, is float64 on both sides
    rng = np.random.default_rng(21)
    x0 = rng.standard_normal((2, 3)).astype(dtype)
    g0 = rng.standard_normal((2, 3))

    def run(c):
        x = Tensor(x0, requires_grad=True)
        out = CONSTANT_OPS[op](x, c)
        (out * g0).sum().backward()
        return out, x.grad

    (out, grad), (ref, ref_grad) = run(CONSTANTS[const]), run(Tensor(CONSTANTS[const]))
    assert out.data.dtype == ref.data.dtype == grad.dtype == ref_grad.dtype == np.float64
    assert out.data.tobytes() == ref.data.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()
    assert all(isinstance(p, Tensor) and p.requires_grad or p._prev for p in out._prev)


def test_non_finite_constant_operand_raises():
    x = Tensor(np.ones(3), requires_grad=True)
    for bad in (np.inf, np.array([1.0, np.nan, 1.0])):
        with pytest.raises(NonFiniteError):
            x * bad
        with pytest.raises(NonFiniteError):
            x + bad


class TestGradCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((4, 4))
        q = q + q.T

        def f(x):
            v = reshape(x, 4, 1)
            return (matmul(Tensor(q), v) * v).sum()

        err = grad_check(f, Tensor(rng.standard_normal(4)))
        assert err < 1e-6

    def test_mlp_loss_wrt_input(self):
        from genpolicy.nn import Mlp
        rng = np.random.default_rng(2)
        net = Mlp([2, 16, 16, 2], rng)
        target = rng.standard_normal((4, 2))

        def f(x):
            return (net(reshape(x, 4, 2)) - target).square().mean()

        err = grad_check(f, Tensor(rng.standard_normal(8)))
        assert err < 1e-4

    def test_mlp_loss_wrt_parameters(self):
        from genpolicy.nn import Mlp
        from oracles import param_grad_check
        rng = np.random.default_rng(2)
        net = Mlp([2, 16, 16, 2], rng)
        xb = Tensor(rng.standard_normal((4, 2)))
        target = rng.standard_normal((4, 2))

        err = param_grad_check(lambda: (net(xb) - target).square().mean(),
                               net.parameters(), sample=8, rng=rng)
        assert err < 1e-4

    def test_kink_reports_not_masks(self):
        # |x| has no valid FD-vs-AD agreement at 0; the mismatch must be
        # visible in the returned error, not silently absorbed.
        def f(x):
            return sqrt(x.square()).sum()

        with pytest.raises(NonFiniteError):
            grad_check(f, Tensor(np.zeros(1)))
