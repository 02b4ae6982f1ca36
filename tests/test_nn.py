import re
import zlib

import numpy as np
import pytest

from dhpose import autodiff as ad
from dhpose import gan, nn
from dhpose.textio import ParseError
from oracles import (central_difference, dense_ref, float64_copy, leaky_relu_mask_ref,
                     linear_frame_critic, replaced, weight_slots, weights)

RNG = np.random.default_rng


def forward(net, x, tape=None, params=None):
    """The net's tape forward pass of a numpy input."""
    tape = tape or ad.Tape()
    return nn.mlp_apply(net, tape.const(np.asarray(x, dtype=np.float64)), tape, params)


def input_gradient(net, x):
    """Gradient of the summed output with respect to the input, the
    operands of its chain and the forward trace."""
    out, trace = nn.mlp_trace(net, x)
    return (*nn.mlp_vjp(net, trace, np.ones_like(out)), trace)


def frame_inputs(n, rng):
    """Random x3d, xcos and x2d streams of ``n`` poses, by name."""
    return dict(zip(gan.FRAME_STREAMS, (rng.normal(size=(n, 48)), rng.normal(size=(n, 14)),
                                        rng.normal(size=(n, 32)))))


def reference_forward(net, x):
    """Independent straightforward re-implementation of the forward stack."""
    h = np.array(x, dtype=float)
    for layer in net.layers:
        z = h.dot(layer.w) + layer.b
        if layer.act == "tanh":
            h = np.tanh(z)
        elif layer.act == "lrelu":
            h = np.maximum(z, 0) + 0.2 * np.minimum(z, 0)
        else:
            h = z
    return h


class TestForward:
    def test_identity_layer_passes_through(self):
        net = nn.Mlp([nn.LayerSpec(np.eye(4), np.zeros(4), "linear")])
        x = RNG(0).normal(size=(3, 4))
        out = forward(net, x)
        assert np.array_equal(out.values, x)

    def test_zero_tanh_layer_gives_zeros(self):
        net = nn.Mlp([nn.LayerSpec(np.zeros((4, 5)), np.zeros(5), "tanh")])
        out = forward(net, RNG(1).normal(size=(2, 4)))
        assert np.all(out.values == 0)

    def test_matches_independent_reimplementation(self):
        net = float64_copy(nn.mlp_init([6, 8, 3], ["tanh", "linear"], RNG(0)))
        x = RNG(0).normal(size=(5, 6))
        out = forward(net, x)
        assert np.max(np.abs(out.values - reference_forward(net, x))) < 1e-12

    @pytest.mark.parametrize("act,dtype",
                             [pytest.param(a, np.float64, id=a) for a in nn.ACTIVATIONS]
                             + [pytest.param(a, np.float32, id=f"{a}-float32")
                                for a in nn.ACTIVATIONS])
    def test_eval_and_tape_write_the_reference_bits(self, act, dtype):
        # both passes run in the weights' dtype: float32 from mlp_init, or a
        # float64 copy
        net = nn.mlp_init([6, 8, 5, 3], [act] * 3, RNG(2))
        if dtype == np.float64:
            net = float64_copy(net)
        before = [a.copy() for a in weights(net)]
        x = RNG(3).normal(size=(7, 6))
        x0 = x.copy()
        ref = x0.astype(dtype)
        for layer in net.layers:
            ref = dense_ref(ref, layer.w, layer.b, layer.act)
        assert ref.dtype == dtype
        assert np.array_equal(nn.mlp_eval(net, x), ref)
        tape = ad.Tape()
        out = nn.mlp_apply(net, tape.const(x.astype(dtype)), tape, nn.mlp_leaves(tape, net))
        assert np.array_equal(out.values, ref)
        if dtype == np.float64:
            assert np.array_equal(forward(net, x).values, ref)
        assert np.array_equal(x, x0)
        for value, old in zip(weights(net), before, strict=True):
            assert np.array_equal(value, old)

    def test_shape_mismatch_reports_both_shapes(self):
        net = nn.mlp_init([6, 3], ["linear"], RNG(0))
        with pytest.raises(nn.ShapeError, match=r"\(2, 5\).*6"):
            forward(net, np.zeros((2, 5)))

    @pytest.mark.parametrize("w, b", [((4, 2), (3,)), ((4,), (4,))])
    def test_layer_shape_errors_carry_both_shapes(self, w, b):
        with pytest.raises(nn.ShapeError, match=re.escape(f"w {w}, b {b}")):
            nn.LayerSpec(np.ones(w), np.ones(b), "tanh")

    def test_a_pass_is_one_node_whose_parents_are_the_input_and_the_leaves(self):
        net = nn.mlp_init([3, 4, 1], ["tanh", "linear"], RNG(0))
        tape = ad.Tape()
        x = tape.const(RNG(1).normal(size=(2, 3)).astype(np.float32))
        leaves = nn.mlp_leaves(tape, net)
        before = len(tape.nodes)
        out = nn.mlp_apply(net, x, tape, leaves)
        assert tape.nodes[before:] == [out]
        assert out.parents == (x, *(leaf for pair in leaves for leaf in pair))
        assert np.array_equal(out.values, nn.mlp_eval(net, x.values))
        # without leaves the weights are constants, and the input is the one parent
        constant = nn.mlp_apply(net, x, tape)
        assert tape.nodes[before + 1:] == [constant] and constant.parents == (x,)
        assert not constant.requires_grad

    def test_a_tensor_input_is_cast_to_the_weights_dtype(self):
        net = nn.mlp_init([3, 2], ["lrelu"], RNG(2))
        tape = ad.Tape()
        x = tape.var(RNG(3).normal(size=(4, 3)))
        out = nn.mlp_apply(net, x, tape)
        cast = out.parents[0]
        assert cast.op == "astype" and cast.parents == (x,)
        assert np.array_equal(cast.values, x.values.astype(np.float32))
        assert out.values.dtype == np.float32
        ad.backward(tape, ad.sum_(out))
        assert x.grad.dtype == np.float64

    def test_leaf_pairs_must_match_the_layers(self):
        net = nn.mlp_init([3, 4, 1], ["tanh", "linear"], RNG(0))
        tape = ad.Tape()
        with pytest.raises(nn.ShapeError, match="1 leaf pairs for 2 layers"):
            nn.mlp_apply(net, np.zeros((2, 3)), tape, nn.mlp_leaves(tape, net)[:1])

    @pytest.mark.parametrize("act", nn.ACTIVATIONS)
    def test_a_pass_writes_the_reference_bits_and_leaves_its_inputs(self, act):
        rng = RNG(17)
        x0, w0, b0 = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        net = nn.Mlp([nn.LayerSpec(w0.copy(), b0.copy(), act)])
        tape = ad.Tape()
        x = tape.var(x0.copy())
        leaves = nn.mlp_leaves(tape, net)
        out = nn.mlp_apply(net, x, tape, leaves)
        assert np.array_equal(out.values, dense_ref(x0, w0, b0, act))
        if act == "lrelu":
            mask = nn.dense_forward(x0, w0, b0, act)[1]
            assert mask.dtype == bool
            assert np.array_equal(nn.times_lrelu_derivative(np.ones(mask.shape), mask),
                                  leaky_relu_mask_ref(x0 @ w0 + b0))
        ad.backward(tape, ad.sum_(ad.mul(out, out)))
        for leaf, before in ((x, x0), (leaves[0][0], w0), (leaves[0][1], b0)):
            assert np.array_equal(leaf.values, before)

    def test_forward_backward_deterministic(self):
        def once():
            rng = RNG(42)
            tape = ad.Tape()
            x = tape.var(rng.normal(size=(8, 8)))
            net = nn.Mlp([nn.LayerSpec(rng.normal(size=(8, 8)), np.zeros(8), "tanh")])
            y = ad.sum_(nn.mlp_apply(net, x, tape))
            value = y.values.copy()  # backward releases it
            ad.backward(tape, y)
            return value, x.grad.copy()

        v1, g1 = once()
        v2, g2 = once()
        assert np.array_equal(v1, v2)
        assert np.array_equal(g1, g2)


# one float64 layer (3, 4) -> 2, differentiated with respect to one of x, w and b
LAYER = {"x": RNG(7).normal(size=(3, 4)), "w": RNG(8).normal(size=(4, 2)),
         "b": RNG(9).normal(size=2)}


def one_layer_loss(act, wrt, values, dtype=np.float64):
    """``sum(out * u)`` of a one-layer pass, ``u`` fixed, with ``values`` in
    place of the operand ``wrt``, which is a differentiable leaf (x) or in a
    ``mlp_leaves`` pair (w and b; the other operands are constants).  Every
    array is cast to ``dtype``.  Returns the tape, the loss and that leaf."""
    args = {k: (values if k == wrt else v).astype(dtype) for k, v in LAYER.items()}
    net = nn.Mlp([nn.LayerSpec(args["w"], args["b"], act)])
    tape = ad.Tape()
    if wrt == "x":
        x = leaf = tape.var(args["x"])
        out = nn.mlp_apply(net, x, tape)
    else:
        leaves = nn.mlp_leaves(tape, net)
        leaf = leaves[0]["wb".index(wrt)]
        out = nn.mlp_apply(net, args["x"], tape, leaves)
    u = tape.const(RNG(1).normal(size=out.shape).astype(dtype))
    return tape, ad.sum_(ad.mul(out, u)), leaf


def layer_case_start(act, wrt):
    return RNG(zlib.crc32(f"linear_{act}_{wrt}".encode())).normal(size=LAYER[wrt].shape) * 0.3


@pytest.mark.parametrize("wrt", ["x", "w", "b"])
@pytest.mark.parametrize("act", nn.ACTIVATIONS)
def test_one_layer_gradients_match_central_differences(act, wrt):
    x0 = layer_case_start(act, wrt)
    tape, loss, leaf = one_layer_loss(act, wrt, x0)
    ad.backward(tape, loss)
    fd = central_difference(lambda v: float(one_layer_loss(act, wrt, v)[1].values), x0.copy(),
                            h=1e-6)
    scale = np.maximum(np.abs(fd), 1.0)
    assert np.max(np.abs(leaf.grad - fd) / scale) < 1e-5


@pytest.mark.parametrize("wrt", ["x", "w", "b"])
@pytest.mark.parametrize("act", nn.ACTIVATIONS)
def test_one_layer_float32_values_and_gradients(act, wrt):
    # against float64 on the same float32-rounded arrays; bound: 1e-5 of
    # max(1, |value|), about 100 float32 ulps
    x0 = layer_case_start(act, wrt).astype(np.float32)
    results = []
    for dtype in (np.float64, np.float32):
        tape, loss, leaf = one_layer_loss(act, wrt, x0, dtype)
        out = loss.parents[0].parents[0]
        assert out.values.dtype == loss.values.dtype == dtype
        out_values = out.values
        ad.backward(tape, loss)
        assert leaf.grad.dtype == dtype
        results.append((out_values, leaf.grad))
    (y64, g64), (y32, g32) = results
    for got, want in ((y32, y64), (g32, g64)):
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) < 1e-5


def test_tanh_gradient_at_zero_is_one():
    tape = ad.Tape()
    x = tape.var(np.zeros((1, 3)))
    net = nn.Mlp([nn.LayerSpec(np.eye(3), np.zeros(3), "tanh")])
    ad.backward(tape, ad.sum_(nn.mlp_apply(net, x, tape)))
    assert np.allclose(x.grad, 1.0, atol=0)


def test_chained_passes_match_finite_differences():
    # three one-layer nets, each its own node, fed one into the next
    rng = RNG(7)
    w1, w2, w3 = rng.normal(size=(5, 6)), rng.normal(size=(6, 4)), rng.normal(size=(4, 1))
    x0 = rng.normal(size=(3, 5))
    acts = ("tanh", "tanh", "linear")

    def run(params):
        tape = ad.Tape()
        nets = [nn.Mlp([nn.LayerSpec(w, np.zeros(w.shape[1]), act)])
                for w, act in zip(params, acts)]
        leaves = [nn.mlp_leaves(tape, net) for net in nets]
        h = tape.const(x0)
        for net, pairs in zip(nets, leaves):
            h = nn.mlp_apply(net, h, tape, pairs)
        return tape, ad.sum_(h), [pairs[0][0] for pairs in leaves]

    tape, out, leaves = run((w1, w2, w3))
    ad.backward(tape, out)
    for idx, (leaf, w) in enumerate(zip(leaves, (w1, w2, w3))):
        def f(values, idx=idx):
            parts = [w1.copy(), w2.copy(), w3.copy()]
            parts[idx] = values
            return float(run(parts)[1].values)

        fd = central_difference(f, w.copy(), h=1e-5)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(leaf.grad - fd) / scale) < 1e-5


def test_only_a_var_input_gets_a_gradient():
    net = float64_copy(nn.mlp_init([4, 6, 2], ["lrelu", "tanh"], RNG(30)))
    x0 = RNG(31).normal(size=(3, 4))
    u = RNG(32).normal(size=(3, 2))
    tape = ad.Tape()
    const, var = tape.const(x0), tape.var(x0.copy())
    leaves = nn.mlp_leaves(tape, net)
    ad.backward(tape, ad.add(ad.sum_(ad.mul(nn.mlp_apply(net, const, tape, leaves), u)),
                             ad.sum_(ad.mul(nn.mlp_apply(net, var, tape), u))))
    assert const.grad is None
    assert all(leaf.grad is not None for pair in leaves for leaf in pair)
    fd = central_difference(lambda v: float(np.sum(nn.mlp_eval(net, v) * u)), x0.copy(), h=1e-6)
    scale = np.maximum(np.abs(fd), 1.0)
    assert np.max(np.abs(var.grad - fd) / scale) < 1e-5


def test_constant_leaves_get_no_gradient_and_leave_the_input_gradient_as_without_leaves():
    net = float64_copy(nn.mlp_init([4, 5, 2], ["lrelu", "linear"], RNG(33)))
    x0 = RNG(34).normal(size=(3, 4))
    grads = []
    for const in (True, False):
        tape = ad.Tape()
        x = tape.var(x0.copy())
        leaves = ([(tape.const(layer.w), tape.const(layer.b)) for layer in net.layers]
                  if const else None)
        ad.backward(tape, ad.sum_(nn.mlp_apply(net, x, tape, leaves)))
        if const:
            assert all(leaf.grad is None for pair in leaves for leaf in pair)
        grads.append(x.grad)
    assert np.array_equal(grads[0], grads[1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bool_mask_products_match_the_float_mask_bits(dtype):
    # the lrelu derivative built from the bool mask z >= 0, times z or a
    # gradient, against the same product with the float mask {1, LRELU_SLOPE}
    # in z's dtype: the product itself, dense_forward and a pass's pullback
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

    ref = leaky_relu_mask_ref(z, nn.LRELU_SLOPE).astype(dtype)
    mask = z >= 0.0
    assert np.array_equal(bits(nn.times_lrelu_derivative(z, mask)), bits(z * ref))
    out, got_mask = nn.dense_forward(x, w, b, "lrelu")
    assert np.array_equal(got_mask, x @ w + b >= 0.0)
    assert np.array_equal(bits(out), bits(dense_ref(x, w, b, "lrelu", nn.LRELU_SLOPE)))
    assert np.array_equal(bits(nn.times_lrelu_derivative(g, mask)), bits(g * ref))
    # a pass's pullback
    tape = ad.Tape()
    xt = tape.var(x)
    out = nn.mlp_apply(nn.Mlp([nn.LayerSpec(w, b, "lrelu")]), xt, tape)
    up = rng.normal(size=out.shape).astype(dtype)
    ad.backward(tape, ad.sum_(ad.mul(out, tape.const(up))))
    pre = x @ w + b
    assert np.array_equal(bits(xt.grad),
                          bits((up * leaky_relu_mask_ref(pre, nn.LRELU_SLOPE).astype(dtype)) @ w.T))


class TestParameterGradients:
    def test_against_finite_differences(self):
        net = float64_copy(nn.mlp_init([5, 7, 4, 1], ["tanh", "lrelu", "linear"], RNG(3)))
        x = RNG(4).normal(size=(6, 5))
        tape = ad.Tape()
        leaves = nn.mlp_leaves(tape, net)
        out = ad.sum_(forward(net, x, tape, leaves))
        ad.backward(tape, out)
        for slot, value, leaf in weight_slots({"net": net}, {"net": leaves}):
            def f(values, slot=slot):
                return float(nn.mlp_eval(replaced({"net": net}, slot, values)["net"], x).sum())

            fd = central_difference(f, value.copy(), h=1e-5)
            scale = np.maximum(np.abs(fd), 1.0)
            assert np.max(np.abs(leaf.grad - fd) / scale) < 1e-5, slot


class TestInputGradient:
    def test_linear_critic_gradient_is_weight_vector(self):
        w = RNG(5).normal(size=(6, 1))
        net = nn.Mlp([nn.LayerSpec(w, np.array([0.3]), "linear")])
        x = RNG(6).normal(size=(4, 6))
        g = input_gradient(net, x)[0]
        assert np.allclose(g, np.tile(w[:, 0], (4, 1)), atol=1e-15)

    def test_sum_critic_norm_is_sqrt_n(self):
        n = 9
        net = nn.Mlp([nn.LayerSpec(np.ones((n, 1)), np.zeros(1), "linear")])
        g = input_gradient(net, np.zeros((3, n)))[0]
        assert np.allclose(np.linalg.norm(g, axis=1), np.sqrt(n), atol=1e-12)

    def test_matches_finite_differences_of_the_scalar(self):
        net = float64_copy(nn.mlp_init([4, 8, 1], ["tanh", "linear"], RNG(7)))
        x0 = RNG(8).normal(size=(1, 4))
        g = input_gradient(net, x0)[0]
        fd = central_difference(lambda v: float(nn.mlp_eval(net, v.reshape(1, 4))[0, 0]),
                                x0.copy(), h=1e-6)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(g - fd) / scale) < 1e-5

    def test_lrelu_net_matches_finite_differences_of_the_scalar(self):
        # the critics' activation: the pullback must apply the lrelu mask
        net = float64_copy(nn.mlp_init([4, 8, 1], ["lrelu", "linear"], RNG(15)))
        x0 = RNG(16).normal(size=(1, 4))
        g = input_gradient(net, x0)[0]
        fd = central_difference(lambda v: float(nn.mlp_eval(net, v.reshape(1, 4))[0, 0]),
                                x0.copy(), h=1e-6)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(g - fd) / scale) < 1e-5

    def test_double_backprop_matches_finite_differences(self):
        # weight gradients of |grad_x D|^2 from the closed-form pullback
        # against central differences, on the critics' activations
        net = float64_copy(nn.mlp_init([3, 5, 4, 1], ["lrelu", "lrelu", "linear"], RNG(9)))
        x = RNG(10).normal(size=(2, 3))
        g, operands, trace = input_gradient(net, x)
        grads, upstream = nn.mlp_vjp_pullback(net, trace, operands, 2.0 * g)
        assert operands == trace == [None] * len(net.layers)  # released as it goes
        assert upstream.shape == (2, 1)
        for i, layer in enumerate(net.layers):
            for field, grad in (("w", grads[i]), ("b", 0.0)):  # biases move no mask here
                def f(values, slot=("net", i, field)):
                    g = input_gradient(replaced({"net": net}, slot, values)["net"], x)[0]
                    return float(np.sum(g * g))

                fd = central_difference(f, getattr(layer, field).copy(), h=1e-5)
                scale = np.maximum(np.abs(fd), 1.0)
                assert np.max(np.abs(grad - fd) / scale) < 1e-4, (i, field)

    def test_vjp_of_a_multi_output_net_matches_finite_differences(self):
        # an encoder's chain pulls back a slice of the head's input gradient,
        # not ones: d(sum(out * u))/dx for a random upstream u
        net = float64_copy(nn.mlp_init([4, 6, 3], ["lrelu", "tanh"], RNG(21)))
        x0 = RNG(22).normal(size=(2, 4))
        u = RNG(23).normal(size=(2, 3))
        out, trace = nn.mlp_trace(net, x0)
        g, operands = nn.mlp_vjp(net, trace, u)
        assert g.shape == x0.shape
        assert [op.shape for op in operands] == [(2, 6), (2, 3)]
        fd = central_difference(lambda v: float(np.sum(nn.mlp_eval(net, v) * u)), x0.copy(),
                                h=1e-6)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(g - fd) / scale) < 1e-5

    def test_trace_keeps_lrelu_masks_and_tanh_outputs_only(self):
        net = nn.mlp_init([3, 5, 4, 2], ["lrelu", "tanh", "linear"], RNG(11))
        x = RNG(12).normal(size=(6, 3))
        out, (mask, tanh_out, linear) = nn.mlp_trace(net, x)
        h = x.astype(np.float32) @ net.layers[0].w + net.layers[0].b
        assert mask.dtype == bool and np.array_equal(mask, h >= 0.0)
        assert tanh_out.dtype == np.float32 and tanh_out.shape == (6, 4)
        assert linear is None
        assert np.array_equal(out, nn.mlp_eval(net, x))

    def test_pullback_refuses_a_tanh_layer(self):
        net = nn.mlp_init([3, 5, 1], ["tanh", "linear"], RNG(9))
        g, operands, trace = input_gradient(net, RNG(10).normal(size=(2, 3)))
        with pytest.raises(ValueError, match="layer 0 is tanh"):
            nn.mlp_vjp_pullback(net, trace, operands, g)

    def test_non_scalar_net_rejected(self):
        critic = linear_frame_critic(1.0)
        critic.nets["head"] = nn.mlp_init([3, 2], ["linear"], RNG(11))
        with pytest.raises(ValueError, match="scalar"):
            gan.frame_penalty(critic, frame_inputs(2, RNG(11)), 1.0, ad.Tape())


class TestGradientPenalty:
    """The critics' penalty, ``gan.frame_penalty``, on ``linear_frame_critic``."""

    def test_constant_critic_gives_alpha(self):
        critic = linear_frame_critic(0.0)
        critic.nets["head"].layers[0].b = np.array([3.7])
        pen = gan.frame_penalty(critic, frame_inputs(6, RNG(12)), 1.0, ad.Tape())
        assert pen.values == pytest.approx(1.0, abs=0)

    def test_alpha_ten_constant_critic(self):
        inputs = {k: np.zeros((4, w)) for k, w in zip(gan.FRAME_STREAMS, (48, 14, 32))}
        pen = gan.frame_penalty(linear_frame_critic(0.0), inputs, 10.0, ad.Tape())
        assert pen.values == pytest.approx(10.0, abs=0)

    def test_unit_norm_linear_critic_gives_zero(self):
        pen = gan.frame_penalty(linear_frame_critic(1.0), frame_inputs(8, RNG(13)), 10.0,
                                ad.Tape())
        assert pen.values == pytest.approx(0.0, abs=1e-15)

    def test_norm_four_critic_gives_alpha_times_nine(self):
        # away from norms 0 and 1, where |g| and |g|^2 agree
        pen = gan.frame_penalty(linear_frame_critic(2.0), frame_inputs(8, RNG(15)), 10.0,
                                ad.Tape())
        assert float(pen.values) == 90.0

    def test_zero_norm_gives_finite_zero_weight_gradients(self):
        # sqrt's subgradient at 0 is 0: no 0 / 0 reaches the weights
        critic = linear_frame_critic(0.0)
        critic.nets["head"].layers[0].b = np.array([3.7])
        tape = ad.Tape()
        leaves = gan.critic_leaves(tape, critic)
        pen = gan.frame_penalty(critic, frame_inputs(6, RNG(16)), 10.0, tape, leaves)
        assert float(pen.values) == 10.0
        ad.backward(tape, pen)
        for name, pairs in leaves.items():
            for w, b in pairs:
                assert w.grad is not None and np.all(w.grad == 0.0), name
                assert b.grad is None, name

    def test_records_one_node_whose_parents_are_the_weights(self):
        critic = linear_frame_critic(2.0)
        tape = ad.Tape()
        leaves = gan.critic_leaves(tape, critic)
        before = len(tape.nodes)
        pen = gan.frame_penalty(critic, frame_inputs(4, RNG(17)), 10.0, tape, leaves)
        assert tape.nodes[before:] == [pen]
        assert pen.parents == tuple(w for pairs in leaves.values() for w, _ in pairs)
        constant = gan.frame_penalty(critic, frame_inputs(4, RNG(17)), 10.0, tape)
        assert tape.nodes[before + 1:] == [constant] and constant.op == "const"
        assert float(constant.values) == float(pen.values) == 90.0

    def test_float32_weight_gradients_keep_the_weights_dtype(self, camera, pairs):
        # a motion critic as training runs it, against its float64 copy
        cfg = gan.TrainConfig(mode="video", frames=3, enc_hidden=(6,), head_hidden=(4,))
        critic = gan.build_critic(gan.MOTION_BRANCHES, cfg, 14, RNG(19))
        rng = RNG(20)
        streams = gan.feature_batch(rng.normal(size=(5, 3, 16, 3)),
                                    rng.normal(size=(5, 3, 16, 2)) * 50, camera, pairs)
        grads = []
        for model in (critic, float64_copy(critic)):
            tape = ad.Tape()
            leaves = gan.critic_leaves(tape, model)
            pen = gan.motion_penalty(model, streams, 10.0, tape, leaves)
            assert pen.values.dtype == model.nets["head3d"].layers[0].w.dtype
            ad.backward(tape, pen)
            grads.append([w.grad for pairs_ in leaves.values() for w, _ in pairs_])
        for g32, g64 in zip(*grads, strict=True):
            assert g32.dtype == np.float32
            # bound: 1e-5 of max(1, |value|), about 100 float32 ulps, as for
            # the float32 op checks (1.3e-7 measured)
            assert np.max(np.abs(g32 - g64) / np.maximum(np.abs(g64), 1.0)) < 1e-5

    @staticmethod
    def random_frame_critic(seed):
        cfg = gan.TrainConfig(enc_hidden=(6,), head_hidden=(4,))
        return float64_copy(gan.build_critic(gan.FRAME_BRANCHES, cfg, 14, RNG(seed)))

    def weight_gradients(self, critic, streams, build):
        """Each net's weight gradients, by name, after backward of ``build(tape,
        leaves)`` on a fresh tape with ``critic_leaves``."""
        tape = ad.Tape()
        leaves = gan.critic_leaves(tape, critic)
        ad.backward(tape, build(tape, leaves))
        return {name: [w.grad for w, _ in pairs] for name, pairs in leaves.items()}

    def test_leaves_of_some_nets_get_the_gradients_of_a_full_run(self):
        # nets without leaves, or with constant ones, are skipped; the others
        # get exactly what they get when every net has leaves
        critic = self.random_frame_critic(24)
        streams = frame_inputs(5, RNG(25))
        full = self.weight_gradients(
            critic, streams, lambda t, p: gan.frame_penalty(critic, streams, 10.0, t, p))
        tape = ad.Tape()
        leaves = gan.critic_leaves(tape, critic)
        params = {"head": leaves["head"],
                  "enc_cos": [(tape.const(layer.w), tape.const(layer.b))
                              for layer in critic.nets["enc_cos"].layers]}
        pen = gan.frame_penalty(critic, streams, 10.0, tape, params)
        assert pen.parents == tuple(w for name in ("enc_cos", "head") for w, _ in params[name])
        ad.backward(tape, pen)
        for w, expected in zip((w for w, _ in leaves["head"]), full["head"], strict=True):
            assert np.array_equal(w.grad, expected)
        assert all(w.grad is None for w, _ in params["enc_cos"])
        assert all(w.grad is None for name in ("enc3d", "enc2d") for w, _ in leaves[name])

    def test_pullback_scales_with_its_seed_and_accumulates_across_nodes(self):
        # 3 * pen + pen on the same leaves: four times the gradients of pen
        critic = self.random_frame_critic(26)
        streams = frame_inputs(5, RNG(27))
        single = self.weight_gradients(
            critic, streams, lambda t, p: gan.frame_penalty(critic, streams, 10.0, t, p))
        both = self.weight_gradients(
            critic, streams,
            lambda t, p: ad.add(ad.mul(gan.frame_penalty(critic, streams, 10.0, t, p), 3.0),
                                gan.frame_penalty(critic, streams, 10.0, t, p)))
        for name, grads in single.items():
            for g1, g4 in zip(grads, both[name], strict=True):
                assert np.any(g1 != 0.0), name
                assert np.allclose(g4, 4.0 * g1, rtol=1e-12, atol=0.0), name

    def test_tanh_layer_rejected_by_name(self):
        critic = linear_frame_critic(1.0)
        critic.nets["enc_cos"] = nn.mlp_init([14, 1], ["tanh"], RNG(18))
        with pytest.raises(ValueError, match="layer 0 of 'enc_cos' is tanh"):
            gan.frame_penalty(critic, frame_inputs(2, RNG(18)), 1.0, ad.Tape())

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            gan.frame_penalty(linear_frame_critic(1.0), frame_inputs(2, RNG(14)), -1.0,
                              ad.Tape())


class TestAdam:
    def test_defaults(self):
        state = nn.AdamState()
        assert state.lr == 1e-4
        assert (nn.ADAM_BETA1, nn.ADAM_BETA2, nn.ADAM_EPS) == (0.9, 0.999, 1e-8)

    def test_zero_gradient_keeps_parameters(self):
        state = nn.AdamState()
        params = [np.array([1.0, -2.0])]
        new = nn.adam_step(state, params, [np.zeros(2)])
        assert np.max(np.abs(new[0] - params[0])) < 1e-12

    def test_first_step_closed_form(self):
        # m_hat = g, v_hat = g^2 -> update = lr * g / (|g| + eps)
        state = nn.AdamState(lr=1e-4)
        new = nn.adam_step(state, [np.array([0.0])], [np.array([1.0])])
        assert new[0][0] == pytest.approx(-1e-4, abs=1e-6)

    def test_deterministic_sequence(self):
        def run():
            state = nn.AdamState(lr=1e-3)
            p = [np.array([0.5, -0.5])]
            for i in range(10):
                p = nn.adam_step(state, p, [np.array([1.0, -2.0]) * (i + 1)])
            return p[0]

        assert np.array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(nn.ShapeError):
            nn.adam_step(nn.AdamState(), [np.zeros(3)], [np.zeros(4)])

    def test_length_mismatch_rejected(self):
        with pytest.raises(nn.ShapeError, match="2 parameters, 1 gradients and 0 moments"):
            nn.adam_step(nn.AdamState(), [np.zeros(3), np.zeros(2)], [np.zeros(3)])
        state = nn.AdamState()
        nn.adam_step(state, [np.zeros(3)], [np.ones(3)])
        with pytest.raises(nn.ShapeError, match="2 parameters, 2 gradients and 1 moments"):
            nn.adam_step(state, [np.zeros(3), np.zeros(2)], [np.ones(3), np.ones(2)])

    def test_inputs_are_left_unchanged_and_new_arrays_returned(self):
        rng = RNG(21)
        params = [rng.normal(size=(3, 4)), rng.normal(size=4)]
        grads = [rng.normal(size=(3, 4)).astype(np.float32), rng.normal(size=4)]
        kept = [a.copy() for a in params + grads]
        state = nn.AdamState(lr=1e-2)
        for _ in range(2):
            new = nn.adam_step(state, params, grads)
            for a, old in zip(params + grads, kept, strict=True):
                assert np.array_equal(a, old)
            assert len(new) == len(params)
            for a, p in zip(new, params):
                assert a.dtype == p.dtype and not np.shares_memory(a, p)
                assert not any(np.shares_memory(a, m) for m in state.m + state.v)
                assert not np.array_equal(a, p)

    def test_ten_steps_equal_the_textbook_formula_bitwise(self):
        rng = RNG(18)
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        state = nn.AdamState(lr=lr)
        params = [rng.normal(size=(3, 4)), rng.normal(size=4)]
        ref = [p.copy() for p in params]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        for t in range(1, 11):
            grads = [rng.normal(size=p.shape) for p in params]
            kept = [g.copy() for g in grads]
            params = nn.adam_step(state, params, grads)
            for k in range(len(ref)):
                m[k] = b1 * m[k] + (1.0 - b1) * kept[k]
                v[k] = b2 * v[k] + (1.0 - b2) * kept[k] * kept[k]
                m_hat = m[k] / (1.0 - b1 ** t)
                v_hat = v[k] / (1.0 - b2 ** t)
                ref[k] = ref[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
                assert np.array_equal(params[k], ref[k]), (t, k)
                assert np.array_equal(state.m[k], m[k]) and np.array_equal(state.v[k], v[k])
                assert np.array_equal(grads[k], kept[k])  # gradients are read, not written


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = RNG(15)
        nets = {"gen": nn.mlp_init([8, 16, 4], ["tanh", "linear"], rng),
                "critic": nn.mlp_init([4, 8, 1], ["lrelu", "linear"], rng)}
        path = tmp_path / "model.ckpt"
        nn.save_checkpoint(path, nets, seed=123, extra={"mode": "single"})
        loaded, seed, extra = nn.load_checkpoint(path)
        assert seed == 123
        assert extra["mode"].fields("meta", "mode", str) == ["meta", "mode", "single"]
        assert set(loaded) == {"gen", "critic"}
        for name in nets:
            for l0, l1 in zip(nets[name].layers, loaded[name].layers):
                assert l0.act == l1.act
                # float32 weights in float32 storage: reloaded exactly
                for a0, a1 in ((l0.w, l1.w), (l0.b, l1.b)):
                    assert a1.dtype == a0.dtype == np.float32
                    assert np.array_equal(a0, a1)

    def test_bytes_deterministic(self, tmp_path):
        net = {"gen": nn.mlp_init([4, 4], ["linear"], RNG(16))}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        nn.save_checkpoint(p1, net, seed=7)
        nn.save_checkpoint(p2, net, seed=7)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_is_text(self, tmp_path):
        net = {"gen": nn.mlp_init([3, 2], ["linear"], RNG(17))}
        path = tmp_path / "c.ckpt"
        nn.save_checkpoint(path, net, seed=1)
        head = path.read_bytes().split(b"binary", 1)[0].decode()
        assert "dhpose-checkpoint v1" in head
        assert "layer gen 0 3 2 linear" in head

    @pytest.mark.parametrize("bad", [b"", b"seed", b"layer gen 0 3", b"seed x"])
    def test_malformed_header_line_is_a_value_error_naming_the_line(self, tmp_path, bad):
        net = {"gen": nn.mlp_init([3, 2], ["linear"], RNG(19))}
        path = tmp_path / "bad.ckpt"
        nn.save_checkpoint(path, net, seed=1)
        head, blob = path.read_bytes().split(b"binary", 1)
        lines = head.split(b"\n")
        lines.insert(2, bad)  # after the magic and seed lines
        path.write_bytes(b"\n".join(lines) + b"binary" + blob)
        with pytest.raises(ValueError, match="line 3"):
            nn.load_checkpoint(path)

    def test_layers_that_do_not_chain_are_a_parse_error_at_the_second(self, tmp_path):
        rng = RNG(21)
        net = nn.Mlp([nn.mlp_init([4, 3], ["tanh"], rng).layers[0],
                      nn.mlp_init([5, 2], ["linear"], rng).layers[0]])
        path = tmp_path / "split.ckpt"
        nn.save_checkpoint(path, {"gen": net}, seed=1)  # its byte count matches its layers
        with pytest.raises(ParseError, match="line 5: layer 1 of net 'gen' reads 5 values; "
                                             "layer 0 emits 3") as err:
            nn.load_checkpoint(path)
        assert err.value.line_no == 5

    @pytest.mark.parametrize("edit, line_no, says", [
        ((b"net gen layers 2", b"net gen layers 7"), 3, "net 'gen' has 2 layer lines, not 7"),
        ((b"net gen layers 2", b"net gen layers 0"), 3, "net 'gen' needs at least one layer"),
        ((b"layer gen 1 ", b"layer gen 9 "), 5, "layer 9 of net 'gen' is its layer 1"),
        ((b"layer gen 1 ", b"layer foo 1 "), 5, "a layer of net 'foo' outside that net's"),
        ((b"layer gen 0 4 3", b"layer gen 0 0 3"), 4, "layer sizes must be positive, got 0 x 3"),
        ((b"net gen layers 2\n", b"net gen layers 2\nnet gen layers 2\n"), 4,
         "net 'gen' is declared twice"),
    ])
    def test_layer_lines_must_form_the_net_their_net_line_declares(self, tmp_path, edit,
                                                                    line_no, says):
        net = {"gen": nn.mlp_init([4, 3, 2], ["tanh", "linear"], RNG(22))}
        path = tmp_path / "bad.ckpt"
        nn.save_checkpoint(path, net, seed=1)
        head, blob = path.read_bytes().split(b"binary", 1)
        path.write_bytes(head.replace(*edit) + b"binary" + blob)
        with pytest.raises(ParseError, match=f"line {line_no}: {says}") as err:
            nn.load_checkpoint(path)
        assert err.value.line_no == line_no

    def test_truncated_blob_names_the_expected_and_actual_byte_counts(self, tmp_path):
        net = {"gen": nn.mlp_init([8, 16, 4], ["tanh", "linear"], RNG(20))}
        path = tmp_path / "short.ckpt"
        nn.save_checkpoint(path, net, seed=1)
        path.write_bytes(path.read_bytes()[:-100])
        nbytes = 4 * (8 * 16 + 16 + 16 * 4 + 4)
        with pytest.raises(ParseError, match=f"short.ckpt: parse error at line 6: binary payload "
                                             f"truncated: expected {nbytes} bytes, "
                                             f"got {nbytes - 100}") as err:
            nn.load_checkpoint(path)
        assert err.value.line_no == 6

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"not a checkpoint\n")
        with pytest.raises(ValueError, match="not a checkpoint"):
            nn.load_checkpoint(path)
