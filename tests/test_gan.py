import copy
import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from dhpose import autodiff as ad
from dhpose import constraints as ct
from dhpose import dataset as dsio
from dhpose import gan
from dhpose import nn
from dhpose import skeleton as sk
from dhpose.features import joint_cosines
from oracles import float64_copy, generate_ref, weight_slots, weights
from test_skeleton import assert_tape_gradient

RNG = np.random.default_rng


def tiny_config(**kw):
    base = dict(mode="single", epochs=2, beta_epoch=2, seed=0, batch_size=16,
                critic_steps=2, gen_hidden=(32, 32), enc_hidden=(16, 16), head_hidden=(8,))
    base.update(kw)
    return gan.TrainConfig(**base)


def zero_nets(critic):
    for net in critic.nets.values():
        for layer in net.layers:
            layer.w = np.zeros_like(layer.w)
            layer.b = np.zeros_like(layer.b)


class TestLatent:
    def test_default_z_dim_is_128(self):
        assert gan.TrainConfig().z_dim == 128

    def test_deterministic_under_seed(self):
        a = gan.sample_latent(10, 128, RNG(5))
        b = gan.sample_latent(10, 128, RNG(5))
        assert np.array_equal(a, b)

    def test_standard_normal_moments(self):
        z = gan.sample_latent(100_000, 8, RNG(6))
        assert np.max(np.abs(z.mean(axis=0))) < 0.02
        assert np.max(np.abs(z.var(axis=0) - 1.0)) < 0.05

    def test_positive_count_required(self):
        with pytest.raises(ValueError, match="count"):
            gan.sample_latent(0, 8, RNG(0))


class TestGenerate:
    def test_every_sample_validates(self, table):
        cfg = tiny_config()
        gen = gan.build_generator(cfg, RNG(1))
        out = gan.generate(gen, gan.sample_latent(64, cfg.z_dim, RNG(2)))
        for row in out.params:
            assert ct.validate_params(row, table).ok

    def test_video_bone_lengths_shared_across_frames(self):
        cfg = tiny_config(mode="video", frames=5)
        gen = gan.build_generator(cfg, RNG(3))
        out = gan.generate(gen, gan.sample_latent(8, cfg.z_dim, RNG(4)))
        assert out.params.shape == (8, 5, 48)
        spread = np.abs(out.params[:, :, 33:] - out.params[:, :1, 33:])
        assert np.max(spread) == 0.0
        lengths = sk.bone_lengths(gen.topology, out.pose3d)
        rel = np.abs(lengths - lengths[:, :1]) / lengths[:, :1]
        assert np.max(rel) < 1e-9

    def test_zero_weights_and_zero_latent_give_midrange_pose(self, table, topology):
        cfg = tiny_config()
        gen = gan.build_generator(cfg, RNG(5))
        for layer in gen.net.layers:
            layer.w = np.zeros_like(layer.w)
            layer.b = np.zeros_like(layer.b)
        out = gan.generate(gen, np.zeros((1, cfg.z_dim)))
        mid_params = (table.lo + table.hi) / 2
        lo, hi = gen.bounds.arrays()
        mid_globals = (lo + hi) / 2
        expected = sk.forward_kinematics_batch(topology, mid_params[None], mid_globals[None])[0]
        assert np.max(np.abs(out.pose3d[0] - expected)) < 1e-12

    def test_wrong_latent_width_rejected(self):
        cfg = tiny_config()
        gen = gan.build_generator(cfg, RNG(6))
        with pytest.raises(ad.ShapeError):
            gan.generate(gen, np.zeros((4, cfg.z_dim + 1)))

    def test_net_width_invariant_enforced(self, topology, table, camera):
        bad = nn.mlp_init([16, 50], ["linear"], RNG(7))
        with pytest.raises(ValueError, match="54"):
            gan.DhGenerator(net=bad, topology=topology, table=table, camera=camera)

    def test_mode_names_the_frame_count(self, topology, table, camera):
        # the mode is no second setting, so no mode can disagree with the frames
        for frames, mode in ((1, "single"), (3, "video")):
            net = nn.mlp_init([16, gan._out_width(frames)], ["linear"], RNG(7))
            gen = gan.DhGenerator(net=net, topology=topology, table=table, camera=camera,
                                  frames=frames)
            assert gen.mode == mode
        net = nn.mlp_init([16, 15], ["linear"], RNG(7))
        with pytest.raises(ValueError, match="at least 1 frame, got 0"):
            gan.DhGenerator(net=net, topology=topology, table=table, camera=camera, frames=0)

    def test_split_at_one_frame_is_the_48_parameters_then_the_globals(self, table):
        gen = gan.build_generator(tiny_config(), RNG(90))
        raw = RNG(91).normal(0, 2, (7, 54))
        lo, hi = gen.bounds.arrays()
        with ad.Tape() as tape:
            params, globals_ = gan._split_raw(gen, tape.const(raw))
            want_params = ct.squash(tape.const(raw[:, :48]), table.lo, table.hi).values
            want_globals = ct.squash(tape.const(raw[:, 48:]), lo, hi).values
        assert np.array_equal(params.values, want_params)
        assert np.array_equal(globals_.values, want_globals)

    @staticmethod
    def _earlier_video_columns(t):
        """The earlier video layout was 15 shared lengths, then each frame's
        33 angles and 6 globals: column j of the layout now was column [j] then."""
        frame = 15 + 39 * np.arange(t)[:, None]
        return np.r_[(frame + np.arange(33)).ravel(), np.arange(15),
                     (frame + 33 + np.arange(6)).ravel()]

    def test_video_split_is_the_earlier_split_of_permuted_columns(self, table):
        t, b = 3, 5
        gen = gan.build_generator(tiny_config(mode="video", frames=t), RNG(92))
        old = RNG(93).normal(0, 2, (b, 15 + 39 * t))
        lo, hi = gen.bounds.arrays()
        with ad.Tape() as tape:
            params, globals_ = gan._split_raw(gen,
                                              tape.const(old[:, self._earlier_video_columns(t)]))
            lengths = ct.squash(tape.const(old[:, :15]), table.lo[33:], table.hi[33:]).values
            per = old[:, 15:].reshape(b * t, 39)
            angles = ct.squash(tape.const(per[:, :33]), table.lo[:33], table.hi[:33]).values
            want_globals = ct.squash(tape.const(per[:, 33:]), lo, hi).values
        want_params = np.concatenate([angles, np.repeat(lengths, t, axis=0)], axis=1)
        assert np.array_equal(params.values, want_params)
        assert np.array_equal(globals_.values, want_globals)

    @pytest.mark.parametrize("mode, frames", [("single", 1), ("video", 3)])
    def test_init_gives_each_output_the_weights_a_seed_drew_for_it_before(self, mode, frames):
        # a seed's video generator starts where it did under the earlier layout
        cfg = tiny_config(mode=mode, frames=frames)
        gen = gan.build_generator(cfg, RNG(97))
        sizes = [cfg.z_dim, *cfg.gen_hidden, gan._out_width(frames)]
        drawn = nn.mlp_init(sizes, ["tanh", "tanh", "linear"], RNG(97))
        columns = self._earlier_video_columns(frames) if frames > 1 else np.arange(54)
        *hidden, last = drawn.layers
        want = [a for layer in hidden for a in (layer.w, layer.b)] + [last.w[:, columns], last.b]
        for k, (w0, w1) in enumerate(zip(want, weights(gen.net), strict=True)):
            assert w1.flags.c_contiguous and np.array_equal(w0, w1), k

    def test_tape_path_matches_numpy_path(self):
        cfg = tiny_config()
        gen = gan.build_generator(cfg, RNG(8))
        z = gan.sample_latent(6, cfg.z_dim, RNG(9))
        out = gan.generate(gen, z)
        tape = ad.Tape()
        leaves = nn.mlp_leaves(tape, gen.net)
        fk = gan.generate_on_tape(gen, z, tape, leaves)
        assert np.max(np.abs(fk.pose3d.values - out.pose3d)) < 1e-12
        assert np.max(np.abs(fk.params.values - out.params)) < 1e-12

    def test_tape_path_matches_numpy_path_video(self):
        cfg = tiny_config(mode="video", frames=4)
        gen = gan.build_generator(cfg, RNG(10))
        z = gan.sample_latent(3, cfg.z_dim, RNG(11))
        out = gan.generate(gen, z)
        tape = ad.Tape()
        leaves = nn.mlp_leaves(tape, gen.net)
        fk = gan.generate_on_tape(gen, z, tape, leaves)
        assert np.max(np.abs(fk.pose3d.values.reshape(3, 4, 16, 3) - out.pose3d)) < 1e-12

    def test_tape_motion_streams_match_the_numpy_streams(self, pairs):
        # the critic trains on the numpy streams, so the generator step must
        # score its fakes on the same ones (root2d in normalized coordinates)
        cfg = tiny_config(mode="video", frames=9)
        gen = gan.build_generator(cfg, RNG(60))
        z = gan.sample_latent(5, cfg.z_dim, RNG(61))
        out = gan.generate(gen, z)
        want = gan.feature_batch(out.pose3d, out.pose2d, gen.camera, pairs)
        tape = ad.Tape()
        leaves = nn.mlp_leaves(tape, gen.net)
        got = gan.generate_on_tape(gen, z, tape, leaves).streams
        assert got.keys() == want.keys()
        for k in want:
            assert got[k].values.shape == want[k].shape, k
            # float32 streams: one rounding of the float64 values
            assert np.max(np.abs(got[k].values - want[k]) / np.maximum(np.abs(want[k]), 1.0)) \
                < 2 * np.finfo(np.float32).eps, k

    @pytest.mark.parametrize("mode,seed", [("single", 8), ("video", 10)])
    def test_numpy_and_tape_nets_write_the_same_raw_bits(self, monkeypatch, mode, seed):
        cfg = tiny_config(mode=mode, frames=4 if mode == "video" else 1)
        gen = gan.build_generator(cfg, RNG(seed))
        z = gan.sample_latent(5, cfg.z_dim, RNG(seed + 1))
        outs = {}

        def recording(name, fn):
            def run(*args, **kwargs):
                outs[name] = fn(*args, **kwargs)
                return outs[name]
            return run

        monkeypatch.setattr(nn, "mlp_eval", recording("numpy", nn.mlp_eval))
        monkeypatch.setattr(nn, "mlp_apply", recording("tape", nn.mlp_apply))
        gan.generate_poses(gen, z)
        tape = ad.Tape()
        leaves = nn.mlp_leaves(tape, gen.net)
        gan.generate_on_tape(gen, z, tape, leaves)
        numpy_raw, tape_raw = outs["numpy"], outs["tape"].values
        assert numpy_raw.dtype == tape_raw.dtype == nn.COMPUTE_DTYPE
        assert np.array_equal(numpy_raw, tape_raw)


class TestGeometryOps:
    """The cosine tape node (FK's is tested with ``skeleton.fk``).  Geometry is
    float64-only, so its central-difference check lives here, not in the
    float32-checked OP_CASES."""

    def test_cosine_gradient(self, topology, pairs):
        rng = RNG(74)
        p0, g0 = rng.uniform(-1, 1, (3, 48)), rng.uniform(-1, 1, (3, 6))
        pose = sk.forward_kinematics_batch(topology, p0, g0) + RNG(75).normal(size=(3, 16, 3)) * 0.05
        assert_tape_gradient(lambda x: gan._cosines(x, pairs), pose, 76)

    def test_cosine_forward_values_are_joint_cosines(self, topology, pairs):
        rng = RNG(77)
        pose = sk.forward_kinematics_batch(topology, rng.uniform(-1, 1, (5, 48)),
                                           rng.uniform(-1, 1, (5, 6)))
        assert np.array_equal(gan._cosines(ad.Tape().var(pose), pairs).values,
                              joint_cosines(pose, pairs))

    def test_generator_pipeline_node_count_at_train_video_sizes(self):
        # the benchmark's train-video sizes: default nets, T=9, batch 64
        cfg = gan.TrainConfig(mode="video", frames=9, batch_size=64, seed=79)
        gen = gan.build_generator(cfg, RNG(79))
        tape = ad.Tape()
        leaves = nn.mlp_leaves(tape, gen.net)
        before = len(tape.nodes)
        gan.generate_on_tape(gen, gan.sample_latent(64, cfg.z_dim, RNG(80)), tape, leaves)
        assert len(tape.nodes) - before < 200


class TestFrameCritic:
    def _streams(self, pairs, n=8, seed=12):
        cfg = tiny_config()
        gen = gan.build_generator(cfg, RNG(seed))
        out = gan.generate(gen, gan.sample_latent(n, cfg.z_dim, RNG(seed + 1)))
        return gan.feature_batch(out.pose3d, out.pose2d, gen.camera, pairs)

    def test_zero_weights_score_zero(self, pairs):
        cfg = tiny_config()
        critic = gan.build_critic(gan.FRAME_BRANCHES, cfg, 14, RNG(13))
        zero_nets(critic)
        assert np.all(gan.discriminate(critic, self._streams(pairs)) == 0.0)

    def test_deterministic(self, pairs):
        cfg = tiny_config()
        critic = gan.build_critic(gan.FRAME_BRANCHES, cfg, 14, RNG(14))
        streams = self._streams(pairs)
        s1 = gan.discriminate(critic, streams)
        s2 = gan.discriminate(critic, streams)
        assert np.array_equal(s1, s2)

    @pytest.mark.parametrize("mode,frames", [("single", 1), ("video", 3)])
    def test_camera_rows_must_match_the_batch(self, pairs, mode, frames):
        data = dsio.make_band_corpus(6, 1, mode=mode, frames=frames)
        with pytest.raises(ad.ShapeError, match="camera batch"):
            gan.feature_batch(data.pose3d, data.pose2d, data.cams[:5], pairs)

    def test_cosine_stream_wired_in(self, pairs):
        cfg = tiny_config()
        critic = gan.build_critic(gan.FRAME_BRANCHES, cfg, 14, RNG(15))
        streams = self._streams(pairs)
        s1 = gan.discriminate(critic, streams)
        xcos2 = streams["xcos"].copy()
        xcos2[:, 3] += 0.25
        s2 = gan.discriminate(critic, dict(streams, xcos=xcos2))
        assert np.max(np.abs(s1 - s2)) > 0.0


class TestMotionCritic:
    def _streams(self, pairs, n=6, frames=4, seed=16):
        cfg = tiny_config(mode="video", frames=frames)
        gen = gan.build_generator(cfg, RNG(seed))
        out = gan.generate(gen, gan.sample_latent(n, cfg.z_dim, RNG(seed + 1)))
        return gan.feature_batch(out.pose3d, out.pose2d, gen.camera, pairs), cfg

    def test_zero_weights_score_zero(self, pairs):
        streams, cfg = self._streams(pairs)
        critic = gan.build_critic(gan.MOTION_BRANCHES, cfg, 14, RNG(17))
        zero_nets(critic)
        assert np.all(gan.discriminate(critic, streams) == 0.0)

    def test_score_is_sum_of_branches(self, pairs):
        streams, cfg = self._streams(pairs)
        critic = gan.build_critic(gan.MOTION_BRANCHES, cfg, 14, RNG(18))
        tape = ad.Tape()
        total, parts = gan.motion_score(critic, streams, tape)
        assert len(parts) == len(critic.branches) == 3
        assert np.allclose(total.values, sum(p.values for p in parts), atol=1e-12)

    def test_branch_ablation_removes_exactly_its_contribution(self, pairs):
        streams, cfg = self._streams(pairs)
        critic = gan.build_critic(gan.MOTION_BRANCHES, cfg, 14, RNG(19))
        tape = ad.Tape()
        before, parts = gan.motion_score(critic, streams, tape)
        contribution = parts[2].values.copy()  # the head2d branch
        for layer in critic.nets["head2d"].layers:
            layer.w = np.zeros_like(layer.w)
            layer.b = np.zeros_like(layer.b)
        after = gan.discriminate(critic, streams)
        assert np.allclose(before.values[:, 0] - after, contribution[:, 0], atol=1e-12)

    def test_frame_order_changes_the_score(self, pairs, topology, camera):
        from dhpose.camera import project_pose
        cfg = tiny_config(mode="video", frames=5)
        critic = gan.build_critic(gan.MOTION_BRANCHES, cfg, 14, RNG(20))
        rng = RNG(21)
        params = np.zeros((5, 48))
        params[:, :33] = np.linspace(0, 0.6, 5)[:, None] * rng.uniform(-1, 1, 33)
        g = np.zeros((5, 6))
        g[:, 5] = 4.0
        seq3d = sk.forward_kinematics_batch(topology, params, g)
        seq2d = project_pose(seq3d, camera)
        ordered = gan.feature_batch(seq3d[None], seq2d[None], camera, pairs)
        perm = np.array([2, 0, 4, 1, 3])
        shuffled = gan.feature_batch(seq3d[perm][None], seq2d[perm][None], camera, pairs)
        s_ord = gan.discriminate(critic, ordered)
        s_shuf = gan.discriminate(critic, shuffled)
        assert abs(float(s_ord[0] - s_shuf[0])) > 1e-9

    def test_root2d_is_the_normalized_root_trajectory(self, pairs, camera):
        streams, cfg = self._streams(pairs)
        out = gan.generate(gan.build_generator(cfg, RNG(16)),
                           gan.sample_latent(6, cfg.z_dim, RNG(17)))
        root = (out.pose2d[:, :, sk.ROOT_KEYPOINT] - [camera.cx, camera.cy]) / [camera.fx, camera.fy]
        want = (root[:, 1:] - root[:, :-1]).reshape(6, -1)
        assert np.max(np.abs(streams["root2d"] - want)) < 1e-15

    def test_static_sequence_has_zero_difference_streams(self, pairs, topology, camera):
        from dhpose.camera import project_pose
        pose = sk.rest_pose(topology) + [0, 0, 4.0]
        seq3d = np.stack([pose] * 4)[None]
        seq2d = project_pose(seq3d, camera)
        streams = gan.feature_batch(seq3d, seq2d, camera, pairs)
        assert np.all(streams["diff3d"] == 0)
        assert np.all(streams["cosdiff"] == 0)
        assert np.all(streams["root2d"] == 0)


class TestBuildCritic:
    @pytest.mark.parametrize("mode,frames", [("single", 1), ("video", 2), ("video", 3),
                                             ("video", 9)])
    def test_stream_widths_are_the_widths_feature_batch_emits(self, pairs, mode, frames):
        data = dsio.make_band_corpus(2, 3, mode=mode, frames=frames)
        streams = gan.feature_batch(data.pose3d, data.pose2d, data.cams, pairs)
        names = gan.FRAME_STREAMS + (gan.MOTION_STREAMS if mode == "video" else ())
        assert list(streams) == list(names)
        widths = gan.stream_widths(len(pairs.pairs), frames)
        assert {k: v.shape[1] for k, v in streams.items()} == {k: widths[k] for k in names}

    @pytest.mark.parametrize("branches", [gan.FRAME_BRANCHES, gan.MOTION_BRANCHES],
                             ids=["frame", "motion"])
    def test_nets_are_each_branch_encoders_then_head(self, branches):
        cfg = tiny_config(mode="video", frames=3)
        critic = gan.build_critic(branches, cfg, 14, RNG(60))
        assert critic.branches is branches
        assert list(critic.nets) == [name for _, encoders, head in branches
                                     for name in (*encoders, head)]
        widths = gan.stream_widths(14, 3)
        for streams, encoders, head in branches:
            assert [critic.nets[e].in_dim for e in encoders] == [widths[k] for k in streams]
            assert critic.nets[head].in_dim == len(encoders) * cfg.enc_hidden[-1]
            assert critic.nets[head].out_dim == 1


class TestSchedule:
    def test_before_threshold(self):
        assert gan.gamma_schedule(3, 4) == 0

    def test_at_threshold(self):
        assert gan.gamma_schedule(4, 4) == 1

    def test_late(self):
        assert gan.gamma_schedule(100, 4) == 1

    def test_monotone_step(self):
        values = [gan.gamma_schedule(e, 4) for e in range(10)]
        assert values == sorted(values)
        assert set(values) == {0, 1}

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError, match="epoch"):
            gan.gamma_schedule(-1, 4)


def sum_critic():
    """Frame critic computing exactly sum(x) over all three streams."""
    def identity_enc(dim):
        return nn.Mlp([nn.LayerSpec(np.eye(dim), np.zeros(dim), "linear")])

    head = nn.Mlp([nn.LayerSpec(np.ones((48 + 14 + 32, 1)), np.zeros(1), "linear")])
    return gan.Critic(gan.FRAME_BRANCHES, {"enc3d": identity_enc(48), "enc_cos": identity_enc(14),
                                           "enc2d": identity_enc(32), "head": head})


class TestCriticLoss:
    def _batches(self, pairs, seed=22, n=8):
        cfg = tiny_config()
        gen = gan.build_generator(cfg, RNG(seed))
        a = gan.generate(gen, gan.sample_latent(n, cfg.z_dim, RNG(seed + 1)))
        b = gan.generate(gen, gan.sample_latent(n, cfg.z_dim, RNG(seed + 2)))
        real = gan.feature_batch(a.pose3d, a.pose2d, gen.camera, pairs)
        fake = gan.feature_batch(b.pose3d, b.pose2d, gen.camera, pairs)
        return real, fake, cfg

    def test_zero_critic_gives_alpha(self, pairs):
        real, fake, cfg = self._batches(pairs)
        critic = gan.build_critic(gan.FRAME_BRANCHES, cfg, 14, RNG(23))
        zero_nets(critic)
        loss, _ = gan.critic_loss({"frame": critic}, real, fake, 10.0, RNG(0), ad.Tape())
        assert float(loss.values) == pytest.approx(10.0, abs=0)

    def test_active_critics_gate_the_motion_critic(self):
        assert list(gan.init_train_state(tiny_config()).critics) == ["frame"]
        state = gan.init_train_state(tiny_config(mode="video", frames=3))
        assert list(state.critics) == ["frame", "motion"]
        assert list(state.adam) == ["gen", *state.critics]
        off, on = (gan.active_critics(state.critics, gamma) for gamma in (0, 1))
        assert list(off) == ["frame"] and off["frame"] is state.critics["frame"]
        assert list(on) == ["frame", "motion"]
        assert all(on[name] is state.critics[name] for name in on)

    def test_identical_batches_and_unit_critic_alpha_zero(self, pairs):
        real, fake, _ = self._batches(pairs)
        critic = sum_critic()
        loss, _ = gan.critic_loss({"frame": critic}, real, real, 0.0, RNG(2), ad.Tape())
        assert float(loss.values) == pytest.approx(0.0, abs=1e-9)

    def test_shape_mismatch_rejected(self, pairs):
        real, fake, _ = self._batches(pairs)
        short = {k: v[:-1] for k, v in fake.items()}
        with pytest.raises(ad.ShapeError, match="x3d shapes differ"):
            gan.critic_loss({"frame": sum_critic()}, real, short, 1.0, RNG(3), ad.Tape())

    def test_stream_set_mismatch_rejected(self, pairs):
        cfg = tiny_config(mode="video", frames=3)
        gen = gan.build_generator(cfg, RNG(36))
        a = gan.generate(gen, gan.sample_latent(4, cfg.z_dim, RNG(37)))
        real = gan.feature_batch(a.pose3d, a.pose2d, gen.camera, pairs)
        fake = {k: v for k, v in real.items() if k != "root2d"}
        with pytest.raises(ad.ShapeError, match="differ in streams \\['root2d'\\]"):
            gan.critic_loss({"frame": sum_critic()}, real, fake, 1.0, RNG(5), ad.Tape())
        single = gan.feature_batch(a.pose3d[:, 0], a.pose2d[:, 0], gen.camera, pairs)
        with pytest.raises(ad.ShapeError, match="cosdiff"):
            gan.critic_loss({"frame": sum_critic()}, single, real, 1.0, RNG(6), ad.Tape())

    def test_gamma_one_needs_motion_streams(self, pairs):
        real, fake, cfg = self._batches(pairs)
        dm = gan.build_critic(gan.MOTION_BRANCHES, tiny_config(mode="video", frames=3), 14, RNG(30))
        with pytest.raises(ad.ShapeError, match="motion"):
            gan.critic_loss({"frame": sum_critic(), "motion": dm}, real, fake, 1.0, RNG(4),
                            ad.Tape())


class TestGeneratorLoss:
    """Generator and critics on float64 copies of their weights, so that the
    loss matches ``discriminate`` to 1e-12."""

    def _fake(self, seed=31):
        cfg = tiny_config()
        gen = float64_copy(gan.build_generator(cfg, RNG(seed)))
        tape = ad.Tape()
        leaves = nn.mlp_leaves(tape, gen.net)
        z = gan.sample_latent(6, cfg.z_dim, RNG(seed + 1))
        return gan.generate_on_tape(gen, z, tape, leaves), tape, cfg, leaves

    def test_zero_critics_give_zero(self):
        fake, tape, cfg, _ = self._fake()
        critic = float64_copy(gan.build_critic(gan.FRAME_BRANCHES, cfg, 14, RNG(32)))
        zero_nets(critic)
        loss = gan.generator_loss({"frame": critic}, fake, tape)
        assert float(loss.values) == 0.0

    def test_gamma_zero_is_negative_frame_expectation(self):
        fake, tape, cfg, _ = self._fake()
        critic = float64_copy(gan.build_critic(gan.FRAME_BRANCHES, cfg, 14, RNG(33)))
        loss = gan.generator_loss({"frame": critic}, fake, tape)
        scores = gan.discriminate(critic, {k: t.values for k, t in fake.streams.items()})
        assert float(loss.values) == pytest.approx(-scores.mean(), abs=1e-12)

    def test_head_bias_shift_moves_loss_linearly(self):
        fake, tape, cfg, _ = self._fake()
        critic = float64_copy(gan.build_critic(gan.FRAME_BRANCHES, cfg, 14, RNG(34)))
        l1 = float(gan.generator_loss({"frame": critic}, fake, tape).values)
        critic.nets["head"].layers[-1].b = critic.nets["head"].layers[-1].b + 2.5
        l2 = float(gan.generator_loss({"frame": critic}, fake, ad.Tape()).values)
        assert l2 == pytest.approx(l1 - 2.5, abs=1e-9)

    def test_gradients_reach_generator_through_kinematics(self):
        fake, tape, cfg, leaves = self._fake()
        critic = float64_copy(gan.build_critic(gan.FRAME_BRANCHES, cfg, 14, RNG(35)))
        loss = gan.generator_loss({"frame": critic}, fake, tape)
        ad.backward(tape, loss)
        total = sum(float(np.abs(t.grad).sum()) for pair in leaves for t in pair
                    if t.grad is not None)
        assert total > 0.0


class TestEndToEndGradients:
    """Finite-difference checks of the complete differentiable paths.

    The loss values for the difference quotients come from the plain numpy
    pipeline, so these also pin tape forward == numpy forward.  The nets are
    float64 copies: float32 weights are too coarse for h = 1e-6."""

    def _spot_check(self, nets, leaves, loss_value, rng, tol):
        for key, value, leaf in weight_slots(nets, leaves):
            flat = value.ravel()
            for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                old = flat[idx]
                h = 1e-6
                flat[idx] = old + h
                hi = loss_value()
                flat[idx] = old - h
                lo = loss_value()
                flat[idx] = old
                fd = (hi - lo) / (2 * h)
                got = leaf.grad.ravel()[idx] if leaf.grad is not None else 0.0
                assert abs(got - fd) <= tol * max(1.0, abs(fd)), (key, idx, got, fd)

    @staticmethod
    def _critics(cfg, rng) -> dict:
        """Float64 copies of the critics a T-frame run trains with gamma on:
        the frame critic, and the motion critic when T >= 2."""
        critics = {"frame": float64_copy(gan.build_critic(gan.FRAME_BRANCHES, cfg, 14, rng))}
        if cfg.frames > 1:
            critics["motion"] = float64_copy(gan.build_critic(gan.MOTION_BRANCHES, cfg, 14, rng))
        return critics

    @staticmethod
    def _by_net(per_critic: dict) -> dict:
        """Every critic's per-net entries in one dict: net names are unique."""
        return {name: v for entries in per_critic.values() for name, v in entries.items()}

    @pytest.mark.parametrize("mode, frames", [("single", 1), ("video", 3)])
    def test_generator_loss_gradient_through_the_full_pipeline(self, pairs, mode, frames):
        cfg = gan.TrainConfig(mode=mode, frames=frames, z_dim=6, gen_hidden=(8,),
                              enc_hidden=(6,), head_hidden=(4,), epochs=2, beta_epoch=2,
                              seed=50, batch_size=2)
        gen = float64_copy(gan.build_generator(cfg, RNG(50)))
        critics = self._critics(cfg, RNG(51))
        z = gan.sample_latent(3, cfg.z_dim, RNG(52))

        def loss_value():
            out = generate_ref(gen, z)
            streams = gan.feature_batch(out.pose3d, out.pose2d, gen.camera, pairs)
            return -sum(gan.discriminate(critic, streams).mean() for critic in critics.values())

        tape = ad.Tape()
        leaves = nn.mlp_leaves(tape, gen.net)
        fake = gan.generate_on_tape(gen, z, tape, leaves)
        loss = gan.generator_loss(critics, fake, tape)
        assert float(loss.values) == pytest.approx(loss_value(), abs=1e-12)
        ad.backward(tape, loss)
        self._spot_check({"gen": gen.net}, {"gen": leaves}, loss_value, RNG(53), tol=1e-4)

    @pytest.mark.parametrize("mode, frames", [("single", 1), ("video", 3)])
    def test_critic_loss_gradient_with_interpolated_penalty(self, pairs, mode, frames):
        cfg = gan.TrainConfig(mode=mode, frames=frames, z_dim=6, gen_hidden=(8,),
                              enc_hidden=(5,), head_hidden=(3,), epochs=2, beta_epoch=2,
                              seed=54, batch_size=2)
        gen = gan.build_generator(cfg, RNG(54))
        critics = self._critics(cfg, RNG(55))
        a = gan.generate(gen, gan.sample_latent(3, cfg.z_dim, RNG(56)))
        b = gan.generate(gen, gan.sample_latent(3, cfg.z_dim, RNG(57)))
        real = gan.feature_batch(a.pose3d, a.pose2d, gen.camera, pairs)
        fake = gan.feature_batch(b.pose3d, b.pose2d, gen.camera, pairs)

        def loss_value():
            return float(gan.critic_loss(critics, real, fake, 10.0, RNG(58),
                                         ad.Tape())[0].values)

        tape = ad.Tape()
        leaves = {name: gan.critic_leaves(tape, critic) for name, critic in critics.items()}
        loss, _ = gan.critic_loss(critics, real, fake, 10.0, RNG(58), tape, leaves)
        assert float(loss.values) == pytest.approx(loss_value(), abs=1e-12)
        ad.backward(tape, loss)
        for name, critic in critics.items():
            assert list(leaves[name]) == list(critic.nets)
        nets = self._by_net({name: critic.nets for name, critic in critics.items()})
        self._spot_check(nets, self._by_net(leaves), loss_value, RNG(59), tol=1e-4)


class TestTrainEpoch:
    @pytest.mark.parametrize("config_frames, data_frames", [(3, 5), (1, 3), (3, 1)])
    def test_data_of_another_frame_count_is_refused_before_any_draw(self, config_frames,
                                                                      data_frames):
        mode = {1: "single"}.get(config_frames, "video")
        state = gan.init_train_state(tiny_config(mode=mode, frames=config_frames, batch_size=4))
        before = state.rng.bit_generator.state
        data = dsio.make_band_corpus(6, 9, mode={1: "single"}.get(data_frames, "video"),
                                     frames=data_frames)
        with pytest.raises(ValueError, match=f"config has {config_frames} frames per sample, "
                                             f"the data {data_frames}"):
            gan.train_epoch(state, data)
        assert state.rng.bit_generator.state == before

    def test_metrics_deterministic_and_violation_free(self):
        cfg = tiny_config(seed=40)
        data = dsio.make_band_corpus(32, 7)

        def run():
            state = gan.init_train_state(cfg)
            return gan.train_epoch(state, data)

        m1, m2 = run(), run()
        assert m1 == m2
        assert m1["violations"] == 0
        assert m1["gamma"] == 0

    def test_motion_terms_zero_before_threshold(self, tmp_path):
        cfg = tiny_config(mode="video", frames=3, epochs=5, beta_epoch=4, seed=41,
                          batch_size=4, critic_steps=1)
        data = dsio.make_band_corpus(8, 8, mode="video", frames=3)
        state = gan.init_train_state(cfg)
        history = [gan.train_epoch(state, data) for _ in range(5)]
        for epoch in range(4):
            assert history[epoch]["gamma"] == 0
            assert history[epoch]["motion_gap"] == 0.0
            assert history[epoch]["motion_penalty"] == 0.0
        assert history[4]["gamma"] == 1
        assert history[4]["motion_penalty"] != 0.0

    def test_log_is_the_terms_of_one_critic_loss_on_a_fresh_batch(self, monkeypatch):
        cfg = tiny_config(mode="video", frames=3, seed=50, batch_size=4, critic_steps=2,
                          beta_epoch=1)
        data = dsio.make_band_corpus(8, 16, mode="video", frames=3)
        state = gan.init_train_state(cfg)
        calls = []
        critic_loss = gan.critic_loss

        def recording_loss(*args, **kwargs):
            loss, terms = critic_loss(*args, **kwargs)
            calls.append((args, kwargs, terms))
            return loss, terms

        monkeypatch.setattr(gan, "critic_loss", recording_loss)
        for gamma in (0, 1):
            m = gan.train_epoch(state, data)
            assert m["gamma"] == gamma
            # each step's call, then the log's: the same objective with constant weights
            assert len(calls) == (gamma + 1) * (m["steps"] * cfg.critic_steps + 1)
            args, kwargs, terms = calls[-1]
            assert len(args) == 6 and not kwargs
            assert list(args[0]) == list(terms)
            assert args[1] is not calls[-2][0][1]
            assert m["penalty"] == terms["frame"]["penalty"]
            if gamma:
                motion = terms["motion"]
                assert m["motion_penalty"] == motion["penalty"] != 0.0
                assert m["motion_gap"] == float(motion["real"].mean() - motion["fake"].mean())
            else:
                assert list(terms) == ["frame"]
                assert m["motion_penalty"] == m["motion_gap"] == 0.0

    def test_epoch_synthesis_matches_corpus_size(self, tmp_path):
        cfg = tiny_config(seed=42, batch_size=8, critic_steps=1)
        data = dsio.make_band_corpus(24, 9)
        state = gan.init_train_state(cfg)
        metrics = gan.train_epoch(state, data, synth_dir=str(tmp_path))
        assert metrics["synth_count"] == 24
        rows = dsio.load_dataset(metrics["synth_path"])
        assert len(rows) == 24
        assert np.all(rows.provenance == dsio._PROVENANCES.index("synthetic"))

    def test_empty_data_rejected(self):
        cfg = tiny_config(seed=43)
        data = dsio.make_band_corpus(4, 10)
        data.pose3d = data.pose3d[:0]
        with pytest.raises(ValueError, match="empty"):
            gan.train_epoch(gan.init_train_state(cfg), data)

    def test_non_finite_loss_aborts_with_snapshot(self):
        cfg = tiny_config(seed=45, batch_size=4, critic_steps=1)
        data = dsio.make_band_corpus(8, 12)
        state = gan.init_train_state(cfg)
        state.critics["frame"].nets["head"].layers[0].w[:] = np.nan
        with pytest.raises(gan.TrainingDivergedError) as err:
            gan.train_epoch(state, data)
        assert err.value.snapshot["what"] == "critic loss"
        assert err.value.snapshot["epoch"] == 0

    def test_steps_free_their_tapes_without_the_collector(self, monkeypatch):
        # every tape tensor points at its tape and the tape lists its tensors; a
        # step that leaves that cycle standing keeps its memory until a collection
        cfg = tiny_config(mode="video", frames=3, seed=46, batch_size=4, critic_steps=1,
                          beta_epoch=1)
        data = dsio.make_band_corpus(8, 13, mode="video", frames=3)
        state = gan.init_train_state(cfg)
        real = gan._real_minibatch(state, data, np.arange(4))
        fake, _ = gan._fake_minibatch(state, 4)
        refs = []
        backward = ad.backward

        def recording_backward(tape, out):
            backward(tape, out)
            refs.append((weakref.ref(tape), weakref.ref(out)))

        monkeypatch.setattr(ad, "backward", recording_backward)
        gc.disable()
        try:
            gan.critic_update(state, real, fake, 1)
            assert [r() for r in refs[0]] == [None, None]
            gan.generator_update(state, 4, 1)
            assert [r() for r in refs[1]] == [None, None]
        finally:
            gc.enable()

    def test_adam_runs_after_the_tape_is_cleared(self, monkeypatch):
        cfg = tiny_config(mode="video", frames=3, seed=45, batch_size=4, critic_steps=1,
                          beta_epoch=1)
        data = dsio.make_band_corpus(8, 12, mode="video", frames=3)
        state = gan.init_train_state(cfg)
        real = gan._real_minibatch(state, data, np.arange(4))
        fake, _ = gan._fake_minibatch(state, 4)
        nodes = []  # the tape's node count at each Adam update
        adam_update = nn.adam_update

        def recording_adam(adam, nets, leaves):
            leaves = list(leaves)
            nodes.append(len(leaves[0][0][0].tape.nodes))
            adam_update(adam, nets, leaves)

        monkeypatch.setattr(nn, "adam_update", recording_adam)
        gan.critic_update(state, real, fake, 1)
        assert nodes == [0, 0]  # frame critic, motion critic
        gan.generator_update(state, 4, 1)
        assert nodes == [0, 0, 0]

    def test_critic_step_heap_peak_is_bounded_by_its_forward_pass(self, monkeypatch):
        # (peak - start) / (live at backward's start - start) is 1.23 with spent
        # gradients freed and Adam run after the tape closes; 2.17 with Adam
        # under the open tape and every gradient kept
        cfg = tiny_config(mode="video", frames=3, seed=3, batch_size=8, critic_steps=1,
                          beta_epoch=1, gen_hidden=(64, 64), enc_hidden=(32, 32),
                          head_hidden=(16,))
        data = dsio.make_band_corpus(8, 5, mode="video", frames=3)
        state = gan.init_train_state(cfg)
        real = gan._real_minibatch(state, data, np.arange(8))
        fake, _ = gan._fake_minibatch(state, 8)
        gan.critic_update(state, real, fake, 1)  # Adam's moments exist from here on
        forward = []
        backward = ad.backward

        def measuring_backward(tape, out):
            forward.append(tracemalloc.get_traced_memory()[0])
            backward(tape, out)

        monkeypatch.setattr(ad, "backward", measuring_backward)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            gan.critic_update(state, real, fake, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / (forward[0] - start) < 1.6

    def test_critic_step_backward_adds_little_to_the_heap(self, monkeypatch):
        # backward's heap growth (its peak above the live heap at its start)
        # stays below the gradients it leaves on the critic leaves (123 KB):
        # 85 KB with backward releasing each node it has passed; 164 KB with
        # every value kept until the tape closes
        cfg = tiny_config(mode="video", frames=3, seed=3, batch_size=8, critic_steps=1,
                          beta_epoch=1, gen_hidden=(64, 64), enc_hidden=(32, 32),
                          head_hidden=(16,))
        data = dsio.make_band_corpus(8, 5, mode="video", frames=3)
        state = gan.init_train_state(cfg)
        real = gan._real_minibatch(state, data, np.arange(8))
        fake, _ = gan._fake_minibatch(state, 8)
        gan.critic_update(state, real, fake, 1)  # Adam's moments exist from here on
        growth, grads = [], []
        backward = ad.backward

        def measuring_backward(tape, out):
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            backward(tape, out)
            growth.append(tracemalloc.get_traced_memory()[1] - live)
            grads.append(sum(n.grad.nbytes for n in tape.nodes
                             if not n.parents and n.grad is not None))

        monkeypatch.setattr(ad, "backward", measuring_backward)
        tracemalloc.start()
        try:
            gan.critic_update(state, real, fake, 1)
        finally:
            tracemalloc.stop()
        assert growth[0] < grads[0]

    def test_d_gap_is_the_step_score_gap_before_its_update(self, monkeypatch):
        cfg = tiny_config(mode="video", frames=3, seed=47, batch_size=4, critic_steps=1,
                          beta_epoch=1)
        data = dsio.make_band_corpus(8, 14, mode="video", frames=3)
        state = gan.init_train_state(cfg)
        real = gan._real_minibatch(state, data, np.arange(4))
        fake, _ = gan._fake_minibatch(state, 4)
        before = copy.deepcopy(state.critics["frame"])
        with ad.Tape() as tape:
            params = gan.critic_leaves(tape, before)
            s_real, s_fake = (gan.frame_score(before, b, tape, params)[0].values[:, 0]
                              for b in (real, fake))
        calls = []
        mlp_eval = nn.mlp_eval

        def counting_eval(*args):
            calls.append(args)
            return mlp_eval(*args)

        monkeypatch.setattr(nn, "mlp_eval", counting_eval)
        m = gan.critic_update(state, real, fake, 1)
        assert len(calls) == 0
        assert m["d_gap"] == float(s_real.mean() - s_fake.mean())
        after = state.critics["frame"].nets["head"].layers[0].w
        assert not np.array_equal(after, before.nets["head"].layers[0].w)

    def test_critic_step_computes_and_updates_float32_weights(self, monkeypatch):
        cfg = tiny_config(mode="video", frames=3, seed=48, batch_size=4, critic_steps=1,
                          beta_epoch=1)
        data = dsio.make_band_corpus(8, 15, mode="video", frames=3)
        state = gan.init_train_state(cfg)
        real = gan._real_minibatch(state, data, np.arange(4))
        fake, _ = gan._fake_minibatch(state, 4)
        before = [weights(*critic.nets.values()) for critic in state.critics.values()]
        adams = copy.deepcopy([state.adam[name] for name in state.critics])
        leaves, calls = [], []
        critic_leaves, adam_step = gan.critic_leaves, nn.adam_step

        def recording_leaves(*args, **kwargs):
            leaves.append(critic_leaves(*args, **kwargs))
            return leaves[-1]

        def recording_adam(adam, params, grads):
            calls.append((params, grads))
            return adam_step(adam, params, grads)

        monkeypatch.setattr(gan, "critic_leaves", recording_leaves)
        monkeypatch.setattr(nn, "adam_step", recording_adam)
        gan.critic_update(state, real, fake, 1)
        assert len(leaves) == len(calls) == 2
        f32 = {np.dtype(np.float32)}
        for (params, grads), net_leaves, adam, critic, old in zip(
                calls, leaves, adams, state.critics.values(), before, strict=True):
            # a leaf is its layer's array, not a copy, and Adam reads that array
            values = [t.values for pairs in net_leaves.values() for pair in pairs for t in pair]
            assert all(v is a for v, a in zip(values, old, strict=True))
            assert all(p is a for p, a in zip(params, old, strict=True))
            assert {v.dtype for v in values} == {g.dtype for g in grads} == f32
            expected = adam_step(adam, old, grads)
            after = weights(*critic.nets.values())
            assert {a.dtype for a in after} == f32
            for k, (a, e) in enumerate(zip(after, expected, strict=True)):
                assert np.array_equal(a, e), k
        for adam in (state.adam[name] for name in state.critics):
            assert {a.dtype for a in adam.m + adam.v} == f32

    def test_generator_step_keeps_geometry_float64_and_streams_float32(self, monkeypatch):
        cfg = tiny_config(mode="video", frames=3, seed=49, batch_size=4, critic_steps=1,
                          beta_epoch=1)
        state = gan.init_train_state(cfg)
        before = weights(state.gen.net)
        outs, net_inputs = [], []
        generate_on_tape, mlp_apply = gan.generate_on_tape, nn.mlp_apply

        def recording_generate(gen, z, tape, gen_params):
            fake = generate_on_tape(gen, z, tape, gen_params)
            # the values, read before the step's backward releases them
            outs.append(({name: getattr(fake, name).values
                          for name in ("params", "globals_", "pose3d")},
                         {k: t.values for k, t in fake.streams.items()},
                         [t.values for pair in gen_params for t in pair]))
            return fake

        def recording_apply(net, x, tape, params=None):
            out = mlp_apply(net, x, tape, params)
            net_inputs.append((net, out.parents[0].values))  # the input as the net reads it
            return out

        monkeypatch.setattr(gan, "generate_on_tape", recording_generate)
        monkeypatch.setattr(nn, "mlp_apply", recording_apply)
        m = gan.generator_update(state, 4, 1)
        geometry, streams, leaves = outs[0]
        # the net's leaves are its float32 weight arrays themselves
        assert all(v is a for v, a in zip(leaves, before, strict=True))
        for values in geometry.values():
            assert values.dtype == np.float64
        assert len(streams) == 9
        for values in streams.values():
            assert values.dtype == np.float64
        # the generator's pass, then one per encoder and head of both critics
        assert len(net_inputs) == 1 + 4 + 9
        for _, values in net_inputs:
            assert values.dtype == np.float32
        # each encoder reads its float64 stream rounded once
        x3d = geometry["pose3d"].reshape(-1, 48)
        assert np.array_equal(streams["x3d"], x3d)
        enc3d = state.critics["frame"].nets["enc3d"]
        assert np.array_equal(next(v for net, v in net_inputs if net is enc3d),
                              x3d.astype(np.float32))
        assert m["violations"] == 0
        after = weights(state.gen.net)
        assert len(after) == len(before)
        for k, (a, b) in enumerate(zip(after, before)):
            assert a.dtype == b.dtype == np.float32
            assert not np.array_equal(a, b), k
        adam = state.adam["gen"]
        assert {a.dtype for a in adam.m + adam.v} == {np.dtype(np.float32)}

    def test_smoke_separation_short(self):
        # critic-only training separates band poses from untrained-generator fakes
        cfg = tiny_config(seed=44, batch_size=64, critic_steps=1,
                          enc_hidden=(32, 32), head_hidden=(16,))
        data = dsio.make_band_corpus(256, 11)
        state = gan.init_train_state(cfg)
        for _ in range(60):
            idx = state.rng.integers(0, len(data), 64)
            real = gan._real_minibatch(state, data, idx)
            fake, _ = gan._fake_minibatch(state, 64)
            gan.critic_update(state, real, fake, 0)
        real = gan._real_minibatch(state, data, np.arange(len(data)))
        fake, _ = gan._fake_minibatch(state, 256)
        s_real = gan.discriminate(state.critics["frame"], real)
        s_fake = gan.discriminate(state.critics["frame"], fake)
        assert s_real.mean() - s_fake.mean() > 0.0


class TestConfigAndCheckpoints:
    def test_config_json_round_trip(self):
        cfg = tiny_config(mode="video", frames=9, epochs=7, beta_epoch=4, seed=5)
        again = gan.TrainConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_config_validation(self):
        with pytest.raises(ValueError, match="beta_epoch"):
            gan.TrainConfig(epochs=3, beta_epoch=4).validate()
        with pytest.raises(ValueError, match="mode"):
            gan.TrainConfig(mode="both").validate()

    def test_generator_checkpoint_round_trip(self, tmp_path):
        # a trained generator reloads to the generator that wrote it, bit for bit
        cfg = tiny_config(seed=46, epochs=1, beta_epoch=1)
        state = gan.init_train_state(cfg)
        gan.train_epoch(state, dsio.make_band_corpus(32, 46))
        path = tmp_path / "gen.ckpt"
        gan.save_generator(state.gen, path, seed=46)
        loaded = gan.load_generator(path)
        for k, (w0, w1) in enumerate(zip(weights(state.gen.net), weights(loaded.net), strict=True)):
            assert w0.dtype == w1.dtype and np.array_equal(w0, w1), k
        z = gan.sample_latent(4, cfg.z_dim, RNG(47))
        a = gan.generate(state.gen, z)
        b = gan.generate(loaded, z)
        for name in ("params", "pose3d", "pose2d"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_checkpoint_keeps_the_bounds_exactly(self, tmp_path):
        bounds = gan.GlobalBounds((-0.1, -1 / 3, -0.2, 0.49, 0.1 + 0.2, 7.99),
                                  (0.1, 2 / 3, np.pi / 7, 0.51, 0.6, 8.01))
        gen = gan.build_generator(tiny_config(seed=49, bounds=bounds), RNG(49))
        path = tmp_path / "gen.ckpt"
        gan.save_generator(gen, path, seed=49)
        assert gan.load_generator(path).bounds == bounds
        # a checkpoint without the lines loads with the default bounds, and any table
        nn.save_checkpoint(path, {"gen": gen.net}, 49, extra={"mode": "single", "frames": "1"})
        table = ct.default_constraint_table()
        other = ct.ConstraintTable(table.lo / 2, table.hi / 2, table.names, table.kinds)
        loaded = gan.load_generator(path, table=other)
        assert loaded.bounds == gan.GlobalBounds() and loaded.table is other

    @staticmethod
    def _without_layout_line(path):
        """The checkpoint as written before the raw layout had a name."""
        path.write_bytes(path.read_bytes().replace(b"meta layout angles-lengths-globals\n", b""))

    def test_video_checkpoint_without_layout_line_is_refused(self, tmp_path):
        path = tmp_path / "gen.ckpt"
        gan.save_generator(gan.build_generator(tiny_config(mode="video", frames=3), RNG(94)),
                           path, seed=94)
        self._without_layout_line(path)
        with pytest.raises(ValueError, match="gen.ckpt: this 3-frame checkpoint predates the "
                                             "raw output layout .*; retrain it"):
            gan.load_generator(path)

    def test_single_checkpoint_without_layout_line_loads_bit_for_bit(self, tmp_path):
        cfg = tiny_config(seed=95)
        gen = gan.build_generator(cfg, RNG(95))
        path = tmp_path / "gen.ckpt"
        gan.save_generator(gen, path, seed=95)
        self._without_layout_line(path)
        loaded = gan.load_generator(path)
        for k, (w0, w1) in enumerate(zip(weights(gen.net), weights(loaded.net), strict=True)):
            assert np.array_equal(w0, w1), k
        z = gan.sample_latent(4, cfg.z_dim, RNG(96))
        assert np.array_equal(gan.generate(gen, z).pose2d, gan.generate(loaded, z).pose2d)

    def test_checkpoint_topology_mismatch_detected(self, tmp_path, topology):
        cfg = tiny_config(seed=48)
        gen = gan.build_generator(cfg, RNG(48))
        path = tmp_path / "gen.ckpt"
        nn.save_checkpoint(path, {"gen": gen.net}, 48,
                           extra={"mode": "single", "frames": "1", "topology": "deadbeef0000"})
        with pytest.raises(ValueError, match="gen.ckpt: checkpoint was trained against topology"):
            gan.load_generator(path)
