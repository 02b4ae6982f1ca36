import numpy as np
import pytest

from dhpose import autodiff as ad
from dhpose import gan, nn
from dhpose.textio import ParseError
from oracles import (central_difference, dense_ref, float64_copy, linear_frame_critic, replaced,
                     weight_slots, weights)

RNG = np.random.default_rng


def forward(net, x, tape=None, params=None):
    """The net's tape forward pass of a numpy input."""
    tape = tape or ad.Tape()
    return nn.mlp_apply(net, tape.const(np.asarray(x, dtype=np.float64)), tape, params)[0]


def input_gradient(net, x, tape, params=None):
    """Gradient of the summed output with respect to the input, as tape ops."""
    out, trace = nn.mlp_apply(net, tape.const(np.asarray(x, dtype=np.float64)), tape, params)
    return nn.mlp_vjp(trace, tape.const(np.ones_like(out.values)))


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
        net = nn.mlp_init([6, 8, 3], ["tanh", "linear"], RNG(0))
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
        out, _ = nn.mlp_apply(net, tape.const(x.astype(dtype)), tape, nn.mlp_leaves(tape, net))
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

    def test_intermediates_recorded_on_tape(self):
        net = nn.mlp_init([3, 4, 1], ["tanh", "linear"], RNG(0))
        tape = ad.Tape()
        x = RNG(1).normal(size=(2, 3))
        forward(net, x, tape)
        layers = [n for n in tape.nodes if n.op == "linear"]
        assert len(layers) == len(net.layers)
        h = x
        for node, layer in zip(layers, net.layers):
            h = reference_forward(nn.Mlp([layer]), h)
            assert np.array_equal(node.values, h)


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
        g = input_gradient(net, x, ad.Tape())
        assert np.allclose(g.values, np.tile(w[:, 0], (4, 1)), atol=1e-15)

    def test_sum_critic_norm_is_sqrt_n(self):
        n = 9
        net = nn.Mlp([nn.LayerSpec(np.ones((n, 1)), np.zeros(1), "linear")])
        g = input_gradient(net, np.zeros((3, n)), ad.Tape())
        assert np.allclose(np.linalg.norm(g.values, axis=1), np.sqrt(n), atol=1e-12)

    def test_matches_finite_differences_of_the_scalar(self):
        net = float64_copy(nn.mlp_init([4, 8, 1], ["tanh", "linear"], RNG(7)))
        x0 = RNG(8).normal(size=(1, 4))
        g = input_gradient(net, x0, ad.Tape())
        fd = central_difference(lambda v: float(nn.mlp_eval(net, v.reshape(1, 4))[0, 0]),
                                x0.copy(), h=1e-6)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(g.values - fd) / scale) < 1e-5

    def test_lrelu_net_matches_finite_differences_of_the_scalar(self):
        # the critics' activation: the pullback must apply the lrelu mask
        net = float64_copy(nn.mlp_init([4, 8, 1], ["lrelu", "linear"], RNG(15)))
        x0 = RNG(16).normal(size=(1, 4))
        g = input_gradient(net, x0, ad.Tape())
        fd = central_difference(lambda v: float(nn.mlp_eval(net, v.reshape(1, 4))[0, 0]),
                                x0.copy(), h=1e-6)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(g.values - fd) / scale) < 1e-5

    def test_double_backprop_matches_finite_differences(self):
        # parameter gradient of |grad_x D|^2 against central differences
        net = float64_copy(nn.mlp_init([3, 5, 1], ["tanh", "linear"], RNG(9)))
        x = RNG(10).normal(size=(2, 3))

        tape = ad.Tape()
        leaves = nn.mlp_leaves(tape, net)
        g = input_gradient(net, x, tape, leaves)
        ad.backward(tape, ad.sum_(ad.square(g)))
        for slot, value, leaf in weight_slots({"net": net}, {"net": leaves}):
            def f(values, slot=slot):
                g = input_gradient(replaced({"net": net}, slot, values)["net"], x, ad.Tape())
                return float(ad.sum_(ad.square(g)).values)

            fd = central_difference(f, value.copy(), h=1e-5)
            scale = np.maximum(np.abs(fd), 1.0)
            err = np.max(np.abs((leaf.grad if leaf.grad is not None else 0) - fd) / scale)
            assert err < 1e-4, slot

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

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            gan.frame_penalty(linear_frame_critic(1.0), frame_inputs(2, RNG(14)), -1.0,
                              ad.Tape())


class TestAdam:
    def test_defaults(self):
        state = nn.AdamState()
        assert state.lr == 1e-4
        assert (state.beta1, state.beta2, state.eps) == (0.9, 0.999, 1e-8)

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
