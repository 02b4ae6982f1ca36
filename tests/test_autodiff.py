import zlib

import numpy as np
import pytest

from dhpose import autodiff as ad
from oracles import central_difference

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
    "sum_all": (lambda t, x: ad.sum_(x), (3, 4)),
    "mean": (lambda t, x: ad.mean(x), (3, 4)),
    "reshape": (lambda t, x: ad.reshape(x, (4, 3)), (3, 4)),
    "getitem": (lambda t, x: x[:, 1:3], (3, 4)),
    "concat": (lambda t, x: ad.concat([x, ad.mul(x, 2.0)], axis=1), (3, 4)),
}


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
    doubled = ad.add(xw, xw)
    unreached = ad.mul(c, c)  # an op node no gradient reaches
    out = ad.sum_(ad.add(ad.mul(doubled, doubled), unreached))  # sum((2 x w)^2 + c^2)
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
        ad.backward(tape, ad.sum_(ad.mul(x, x)))
        assert len(tape.nodes) == 3
    assert tape.nodes == []
    assert np.array_equal(x.grad, [2.0, 2.0])
