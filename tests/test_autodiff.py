import zlib

import numpy as np
import pytest

from dhpose import autodiff as ad
from oracles import central_difference, dense_ref, leaky_relu_mask_ref

RNG = np.random.default_rng


def scalarize(tensor, weights):
    """Reduce any-shaped tensor to a scalar with fixed random weights."""
    return ad.sum_(ad.mul(tensor, weights))


def grad_of(build, x0, seed=0):
    """Tape gradient of sum(build(x) * w) with respect to the leaf x."""
    rng = RNG(seed)
    tape = ad.Tape()
    x = tape.var(x0)
    y = build(tape, x)
    w = rng.normal(size=y.values.shape)
    out = scalarize(y, w)
    ad.backward(tape, out)

    def f(values):
        t2 = ad.Tape()
        x2 = t2.var(values)
        return float(ad.sum_(ad.mul(build(t2, x2), w)).values)

    return x.grad, f


# one entry per op kind; inputs chosen away from kinks and singularities
OP_CASES = {
    "add": (lambda t, x: ad.add(x, t.const(RNG(1).normal(size=(3, 4)))), (3, 4)),
    "add_broadcast": (lambda t, x: ad.add(x, t.const(RNG(1).normal(size=4))), (3, 4)),
    "sub": (lambda t, x: ad.sub(t.const(RNG(2).normal(size=(3, 4))), x), (3, 4)),
    "mul": (lambda t, x: ad.mul(x, t.const(RNG(3).normal(size=(3, 4)))), (3, 4)),
    "mul_broadcast": (lambda t, x: ad.mul(x, t.const(RNG(3).normal(size=(4,)))), (3, 4)),
    "div": (lambda t, x: ad.div(t.const(RNG(4).normal(size=(3, 4))), ad.add(x, 5.0)), (3, 4)),
    "neg": (lambda t, x: ad.neg(x), (3, 4)),
    "matmul": (lambda t, x: ad.matmul(x, t.const(RNG(5).normal(size=(4, 2)))), (3, 4)),
    "matmul_batched": (lambda t, x: ad.matmul(x, t.const(RNG(6).normal(size=(2, 4, 4)))), (2, 3, 4)),
    "square": (lambda t, x: ad.square(x), (3, 4)),
    "sqrt": (lambda t, x: ad.sqrt(ad.add(ad.square(x), 1.0)), (3, 4)),
    "sum_all": (lambda t, x: ad.sum_(x), (3, 4)),
    "sum_axis": (lambda t, x: ad.sum_(x, axis=1), (3, 4)),
    "sum_keepdims": (lambda t, x: ad.sum_(x, axis=0, keepdims=True), (3, 4)),
    "mean": (lambda t, x: ad.mean(x, axis=1), (3, 4)),
    "reshape": (lambda t, x: ad.reshape(x, (4, 3)), (3, 4)),
    "swapaxes": (lambda t, x: ad.swapaxes(x, 0, 1), (3, 4)),
    "getitem": (lambda t, x: x[:, 1:3], (3, 4)),
    "concat": (lambda t, x: ad.concat([x, ad.mul(x, 2.0)], axis=1), (3, 4)),
    "stack": (lambda t, x: ad.stack([x, ad.neg(x)], axis=0), (3, 4)),
    "lrelu_scale": (lambda t, x: ad.lrelu_scale(x, RNG(10).normal(size=(3, 4)) >= 0, 0.2), (3, 4)),
}


def _linear_case(act, wrt):
    """ad.linear differentiated with respect to one of its operands x, w and b."""
    fixed = {"x": RNG(7).normal(size=(3, 4)), "w": RNG(8).normal(size=(4, 2)),
             "b": RNG(9).normal(size=2)}

    def build(t, leaf):
        args = {k: leaf if k == wrt else t.const(v) for k, v in fixed.items()}
        return ad.linear(args["x"], args["w"], args["b"], act)[0]

    return build, fixed[wrt].shape


OP_CASES.update({f"linear_{act}_{wrt}": _linear_case(act, wrt)
                 for act in ("tanh", "lrelu", "linear") for wrt in ("x", "w", "b")})


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_op_gradients_match_central_differences(name):
    build, shape = OP_CASES[name]
    x0 = RNG(zlib.crc32(name.encode())).normal(size=shape) * 0.3
    grad, f = grad_of(build, x0)
    fd = central_difference(f, x0.copy(), h=1e-6)
    scale = np.maximum(np.abs(fd), 1.0)
    assert np.max(np.abs(grad - fd) / scale) < 1e-5, name


class Float32Consts(ad.Tape):
    """A tape whose array constants become float32.  0-d constants, which only
    scalar operands (``add(x, 1.0)``, ``mean``'s 1/n) make, are kept as they
    come, so a scalar wrapped as float64 would promote the graph and show."""

    def const(self, values):
        values = np.asarray(values)
        return super().const(values.astype(np.float32) if values.ndim else values)


class Float64Consts(ad.Tape):
    """The reference for ``Float32Consts``: the same float32-rounded array
    constants, computed in float64."""

    def const(self, values):
        values = np.asarray(values)
        return super().const(values.astype(np.float32).astype(np.float64) if values.ndim
                             else values)


def record_pullback_gradients(tape) -> list:
    """Wrap every pullback on ``tape`` to log ``(op, dtype)`` of the gradient
    ``backward`` hands it; backward drops that gradient afterwards."""
    log = []
    for n in tape.nodes:
        if n._bwd is not None:
            def logged(g, bwd=n._bwd, op=n.op):
                log.append((op, g.dtype))
                bwd(g)
            n._bwd = logged
    return log


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_float32_inputs_give_float32_values_and_gradients(name):
    build, shape = OP_CASES[name]
    x0 = (RNG(zlib.crc32(name.encode())).normal(size=shape) * 0.3).astype(np.float32)
    results = []
    for tape_type, dtype in ((Float64Consts, np.float64), (Float32Consts, np.float32)):
        tape = tape_type()
        x = tape.var(x0.astype(dtype))
        y = build(tape, x)
        w = RNG(1).normal(size=y.values.shape).astype(dtype)
        out = ad.mean(ad.mul(y, tape.const(w)))
        handed = record_pullback_gradients(tape)
        # read before backward, which releases every op node's values
        off_dtype = [n.op for n in tape.nodes if n.values.dtype != np.float32]
        y_values = y.values
        ad.backward(tape, out)
        results.append((tape, x, y_values, off_dtype, handed))
    tape, x, y_values, off_dtype, handed = results[1]
    assert off_dtype == []
    # every gradient: those passed through a pullback, and the leaves' own
    assert len(handed) >= 3  # mean's mul and sum, and at least the op under test
    assert [op for op, dtype in handed if dtype != np.float32] == []
    assert [n.op for n in tape.nodes if n.grad is not None and n.grad.dtype != np.float32] == []
    # against float64 on the same float32-rounded inputs; bound: 1e-5 of
    # max(1, |value|), about 100 float32 ulps
    _, x64, y64_values, _, _ = results[0]
    for got, want in ((y_values, y64_values), (x.grad, x64.grad)):
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) < 1e-5, name


@pytest.mark.parametrize("src, dst", [(np.float64, np.float32), (np.float32, np.float64)])
def test_astype_casts_values_and_returns_gradients_in_the_input_dtype(src, dst):
    tape = ad.Tape()
    x = tape.var(RNG(60).normal(size=(3, 4)).astype(src))
    y = ad.astype(x, dst)
    assert y.values.dtype == dst
    assert np.array_equal(y.values, x.values.astype(dst))
    w = RNG(61).normal(size=(3, 4)).astype(dst)
    ad.backward(tape, ad.sum_(ad.mul(y, tape.const(w))))
    assert x.grad.dtype == src
    assert np.array_equal(x.grad, w.astype(src))
    assert ad.astype(x, src) is x


def test_sum_gradient_is_ones():
    tape = ad.Tape()
    x = tape.var(RNG(0).normal(size=(4, 5)))
    ad.backward(tape, ad.sum_(x))
    assert np.array_equal(x.grad, np.ones((4, 5)))


def test_tanh_gradient_at_zero_is_one():
    tape = ad.Tape()
    x = tape.var(np.zeros((1, 3)))
    ad.backward(tape, ad.sum_(ad.linear(x, np.eye(3), np.zeros(3), "tanh")[0]))
    assert np.allclose(x.grad, 1.0, atol=0)


def test_fan_out_accumulates():
    tape = ad.Tape()
    x = tape.var(np.array([2.0]))
    y = ad.add(ad.mul(x, 3.0), ad.mul(x, 4.0))  # 7x
    ad.backward(tape, ad.sum_(y))
    assert x.grad[0] == 7.0


def test_backward_releases_the_graph_it_has_passed():
    tape = ad.Tape()
    x = tape.var(np.array([1.0, -2.0, 3.0]))
    w = tape.var(np.array([0.5, 4.0, -1.5]))
    c = tape.const(np.array([2.0, 0.0, 1.0]))
    xw = ad.mul(x, w)
    unreached = ad.mul(c, c)  # an op node no gradient reaches
    out = ad.sum_(ad.add(ad.square(ad.add(xw, xw)), unreached))  # sum((2 x w)^2 + c^2)
    after = ad.neg(xw)  # recorded after out: the sweep never passes it
    leaves = [(leaf, leaf.values, leaf.values.copy()) for leaf in (x, w, c)]
    ad.backward(tape, out)
    assert [n.op for n in tape.nodes[:-1] if n.parents
            and (n.values is not None or n.grad is not None or n._bwd is not None)] == []
    assert unreached.values is None and out.values is None
    assert np.array_equal(after.values, -(x.values * w.values))
    for leaf, values, before in leaves:
        assert leaf.values is values and np.array_equal(values, before)
    assert np.array_equal(x.grad, 8.0 * x.values * w.values ** 2)
    assert np.array_equal(w.grad, 8.0 * w.values * x.values ** 2)
    assert c.grad is None


def test_non_scalar_backward_rejected():
    tape = ad.Tape()
    x = tape.var(np.ones((2, 2)))
    y = ad.mul(x, 2.0)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(tape, y)


def test_matmul_shape_errors_carry_both_shapes():
    tape = ad.Tape()
    a = tape.var(np.ones((2, 3)))
    b = tape.var(np.ones((4, 2)))
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
        ad.matmul(a, b)


def test_three_layer_graph_matches_finite_differences():
    rng = RNG(7)
    w1, w2, w3 = rng.normal(size=(5, 6)), rng.normal(size=(6, 4)), rng.normal(size=(4, 1))
    x0 = rng.normal(size=(3, 5))

    def run(params):
        a, b, c = params
        tape = ad.Tape()
        h1, _ = ad.linear(tape.const(x0), tape.var(a), np.zeros(6), "tanh")
        h2, _ = ad.linear(h1, tape.var(b), np.zeros(4), "tanh")
        return tape, ad.sum_(ad.matmul(h2, tape.var(c)))

    tape, out = run((w1, w2, w3))
    ad.backward(tape, out)
    leaves = [n for n in tape.nodes if n.op == "var"]
    for idx, (leaf, w) in enumerate(zip(leaves, (w1, w2, w3))):
        def f(values, idx=idx):
            parts = [w1.copy(), w2.copy(), w3.copy()]
            parts[idx] = values
            _, o = run(parts)
            return float(o.values)

        fd = central_difference(f, w.copy(), h=1e-5)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(leaf.grad - fd) / scale) < 1e-5


def test_forward_backward_deterministic():
    def once():
        rng = RNG(42)
        tape = ad.Tape()
        x = tape.var(rng.normal(size=(8, 8)))
        y = ad.sum_(ad.linear(x, rng.normal(size=(8, 8)), np.zeros(8), "tanh")[0])
        value = y.values.copy()  # backward releases it
        ad.backward(tape, y)
        return value, x.grad.copy()

    v1, g1 = once()
    v2, g2 = once()
    assert np.array_equal(v1, v2)
    assert np.array_equal(g1, g2)


def test_tape_records_topological_order():
    tape = ad.Tape()
    x = tape.var(np.ones(2))
    y = ad.mul(x, 2.0)
    z = ad.add(y, x)
    order = {id(n): k for k, n in enumerate(tape.nodes)}
    for node in tape.nodes:
        for parent in node.parents:
            assert order[id(parent)] < order[id(node)]
    assert z.op == "add"


def test_linear_shape_errors_carry_all_shapes():
    tape = ad.Tape()
    x, w, b = tape.var(np.ones((2, 3))), tape.var(np.ones((4, 2))), tape.var(np.ones(2))
    with pytest.raises(ad.ShapeError, match=r"\(2, 3\).*\(4, 2\).*\(2,\)"):
        ad.linear(x, w, b, "tanh")


def test_basic_slice_gradient_is_placed_not_summed():
    tape = ad.Tape()
    x = tape.var(np.arange(12.0).reshape(3, 4))
    ad.backward(tape, ad.sum_(ad.mul(x[1:, ::2], 3.0)))
    expected = np.zeros((3, 4))
    expected[1:, ::2] = 3.0
    assert np.array_equal(x.grad, expected)


def test_repeated_fancy_index_gradient_sums():
    tape = ad.Tape()
    x = tape.var(np.zeros(4))
    ad.backward(tape, ad.sum_(x[np.array([1, 1, 3])]))
    assert np.array_equal(x.grad, [0.0, 2.0, 0.0, 1.0])


def test_tape_context_drops_its_nodes_on_exit():
    with ad.Tape() as tape:
        x = tape.var(np.ones(2))
        ad.backward(tape, ad.sum_(ad.square(x)))
        assert len(tape.nodes) == 3
    assert tape.nodes == []
    assert np.array_equal(x.grad, [2.0, 2.0])


@pytest.mark.parametrize("act", ["tanh", "lrelu", "linear"])
def test_linear_writes_the_reference_bits_and_leaves_its_inputs(act):
    rng = RNG(17)
    x0, w0, b0 = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
    tape = ad.Tape()
    x, w, b = tape.var(x0.copy()), tape.var(w0.copy()), tape.var(b0.copy())
    out, mask = ad.linear(x, w, b, act)
    assert np.array_equal(out.values, dense_ref(x0, w0, b0, act))
    if act == "lrelu":
        assert mask.dtype == bool
        assert np.array_equal(ad.times_lrelu_derivative(np.ones(mask.shape), mask, 0.2),
                              leaky_relu_mask_ref(x0 @ w0 + b0))
    ad.backward(tape, ad.sum_(ad.square(out)))
    for leaf, before in ((x, x0), (w, w0), (b, b0)):
        assert np.array_equal(leaf.values, before)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bool_mask_products_match_the_float_mask_bits(dtype):
    # the lrelu derivative built from the bool mask z >= 0, times z or a
    # gradient, against the same product with the float mask {1, slope} in
    # z's dtype: the product itself, dense_forward, lrelu_scale's forward and
    # pullback, and linear's pullback
    rng = RNG(18)
    info = np.finfo(dtype)
    edge = [0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal, info.tiny, -info.tiny,
            info.max, -info.max, np.inf, -np.inf, np.nan]
    spread = np.ldexp(rng.uniform(-1.0, 1.0, 2000), rng.integers(info.minexp, info.maxexp, 2000))
    z = np.concatenate([edge, spread, [0.5]]).astype(dtype).reshape(-1, 2)
    g = rng.normal(size=z.shape).astype(dtype)
    x, w, b = (rng.normal(size=shape).astype(dtype) for shape in ((40, 8), (8, 6), (6,)))

    def bits(a):
        assert a.dtype == dtype
        return a.view(np.int32 if dtype == np.float32 else np.int64)

    for slope in (0.2, 0.01, 0.3):
        ref = leaky_relu_mask_ref(z, slope).astype(dtype)
        mask = z >= 0.0
        assert np.array_equal(bits(ad.times_lrelu_derivative(z, mask, slope)), bits(z * ref))
        out, got_mask = ad.dense_forward(x, w, b, "lrelu", slope)
        assert np.array_equal(got_mask, x @ w + b >= 0.0)
        assert np.array_equal(bits(out), bits(dense_ref(x, w, b, "lrelu", slope)))
        tape = ad.Tape()
        a = tape.var(g)
        y = ad.lrelu_scale(a, mask, slope)
        assert np.array_equal(bits(y.values), bits(g * ref))
        with np.errstate(over="ignore", invalid="ignore"):  # the sum of z * ...
            ad.backward(tape, ad.sum_(ad.mul(y, tape.const(z))))
        assert np.array_equal(bits(a.grad), bits(z * ref))
        tape = ad.Tape()
        xt = tape.var(x)
        out, _ = ad.linear(xt, w, b, "lrelu", slope)
        up = rng.normal(size=out.shape).astype(dtype)
        ad.backward(tape, ad.sum_(ad.mul(out, tape.const(up))))
        pre = x @ w + b
        assert np.array_equal(bits(xt.grad),
                              bits((up * leaky_relu_mask_ref(pre, slope).astype(dtype)) @ w.T))
