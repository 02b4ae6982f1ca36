"""Acceptance suite: every primary criterion at its stated tolerance and
time budget, one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
timing lines as they happen).
"""

import time
import zlib

import numpy as np
import pytest

from dhpose import autodiff as ad
from dhpose import cli
from dhpose import constraints as ct
from dhpose import dataset as dsio
from dhpose import gan
from dhpose import nn
from dhpose import skeleton as sk
from dhpose.camera import CameraIntrinsics, project_pose
from dhpose.features import joint_cosines
from oracles import (central_difference, fk_naive, float64_copy, linear_frame_critic, replaced,
                     weight_slots)
from test_skeleton import rigidity_error

RNG = np.random.default_rng


def report(name, budget, t0):
    elapsed = time.perf_counter() - t0
    print(f"PASS {name}: {elapsed:.2f} s (budget {budget} s)")
    assert elapsed < budget, f"{name} exceeded its {budget} s budget ({elapsed:.2f} s)"


def test_criterion_fk_oracle_equivalence(topology):
    t0 = time.perf_counter()
    rng = RNG(100)
    params = rng.uniform(-1.2, 1.2, (1000, 48))
    params[:, 33:] *= 0.05  # keep link lengths physical
    globals_ = rng.uniform(-2.0, 2.0, (1000, 6))
    fast = sk.forward_kinematics_batch(topology, params, globals_)
    worst = 0.0
    for i in range(1000):
        ref = fk_naive(topology, params[i], globals_[i])
        worst = max(worst, float(np.max(np.abs(fast[i] - ref))))
    assert worst < 1e-9, f"FK deviates from the naive oracle by {worst:.3g}"
    report("FK oracle equivalence (1000 inputs, 1e-9)", 5, t0)


def test_criterion_rigidity_suite(topology):
    t0 = time.perf_counter()
    rng = RNG(101)
    # orthonormality of the rotation block of every frame FK composes
    params = rng.uniform(-1.5, 1.5, (1000, 48))
    params[:, 33:] *= 0.05
    ortho, det = rigidity_error(sk.chain_frames(topology, params)[1])
    assert ortho <= 1e-9, f"a frame's rotation is off orthonormal by {ortho:.3g}"
    assert det <= 1e-9, f"a frame's rotation has |det - 1| = {det:.3g}"
    # bone lengths fixed while angles are randomized
    params = np.zeros((1000, 48))
    params[:, :33] = rng.uniform(-1.5, 1.5, (1000, 33))
    poses = sk.forward_kinematics_batch(topology, params, rng.uniform(-1, 1, (1000, 6)))
    lengths = sk.bone_lengths(topology, poses)
    rel = np.abs(lengths - lengths[0]) / lengths[0]
    assert np.max(rel) < 1e-9
    report("rigidity suite (1000 samples, 1e-9)", 5, t0)


def test_criterion_constraint_soundness(table, topology):
    t0 = time.perf_counter()
    rng = RNG(102)
    knee_ids = [table.id_of("l_knee_flex"), table.id_of("r_knee_flex")]
    total = 0
    for _ in range(10):
        raw = rng.standard_normal((100_000, 48))
        with ad.Tape() as tape:
            squashed = ct.squash(tape.const(raw), table.lo, table.hi).values
        assert ct.count_violations(squashed, table) == 0
        for k in knee_ids:
            assert np.all(squashed[:, k] > -np.pi)
            assert np.all(squashed[:, k] < 0.0)
        total += raw.shape[0]
    assert total == 1_000_000
    # the per-sample operation agrees with the bulk check
    with ad.Tape() as tape:
        rows = ct.squash(tape.const(rng.standard_normal((1000, 48))), table.lo, table.hi).values
    for row in rows:
        assert ct.validate_params(row, table).ok
    report("constraint soundness (1e6 squashes, knees strictly inside)", 30, t0)


def test_criterion_squash_boundary_behavior(table):
    t0 = time.perf_counter()
    with ad.Tape() as tape:
        mid = ct.squash(tape.const(np.zeros(48)), table.lo, table.hi).values
    # tanh(0) is exactly 0, so raw=0 lands exactly on lo + (hi-lo)/2; the
    # algebraically equal (lo+hi)/2 may differ in the last ulp
    assert np.array_equal(mid, table.lo + (table.hi - table.lo) / 2)
    assert np.max(np.abs(mid - (table.lo + table.hi) / 2)) < 1e-15
    with ad.Tape() as tape:
        hi = ct.squash(tape.const(np.full(48, 20.0)), table.lo, table.hi).values
        lo = ct.squash(tape.const(np.full(48, -20.0)), table.lo, table.hi).values
    assert np.max(np.abs(hi - table.hi)) < 1e-8
    assert np.max(np.abs(lo - table.lo)) < 1e-8
    report("squash boundary behavior (midpoint, saturation)", 5, t0)


def test_criterion_telescoping_identities(pairs, topology, camera):
    t0 = time.perf_counter()
    rng = RNG(103)
    for _ in range(100):
        frames = int(rng.integers(2, 12))
        params = np.zeros((frames, 48))
        params[:, :33] = rng.uniform(-0.9, 0.9, (frames, 33))
        g = np.zeros((frames, 6))
        g[:, :3] = rng.uniform(-1, 1, (frames, 3))
        g[:, 5] = 4.0
        seq3d = sk.forward_kinematics_batch(topology, params, g)
        seq2d = rng.normal(size=(frames, 16, 2)) * 50
        # the motion critic's difference streams
        m = gan.feature_batch(seq3d[None], seq2d[None], camera, pairs)
        d3 = m["diff3d"].reshape(frames - 1, 16, 3)
        s3 = d3.sum(axis=(0, 1))
        brute3 = np.zeros(3)
        for t in range(frames - 1):
            for i in range(16):
                brute3 += d3[t, i]
        assert np.max(np.abs(s3 - brute3)) < 1e-12
        assert np.max(np.abs(s3 - (seq3d[-1] - seq3d[0]).sum(axis=0))) < 1e-12
        cos = m["cosseq"].reshape(frames, -1)
        dc = m["cosdiff"].reshape(frames - 1, -1)
        sc = dc.sum()
        brute_c = 0.0
        for t in range(frames - 1):
            for i in range(cos.shape[1]):
                brute_c += dc[t, i]
        assert abs(sc - brute_c) < 1e-12
        assert abs(sc - (cos[-1] - cos[0]).sum()) < 1e-12
        root = m["seq2d"].reshape(frames, 16, 2)[:, 0]
        d2 = m["root2d"].reshape(frames - 1, 2)
        s2 = d2.sum(axis=0)
        brute2 = np.zeros(2)
        for t in range(frames - 1):
            brute2 += d2[t]
        assert np.max(np.abs(s2 - brute2)) < 1e-12
        assert np.max(np.abs(s2 - (root[-1] - root[0]))) < 1e-12
    report("telescoping identities (100 sequences, 1e-12)", 2, t0)


def test_criterion_angle_ambiguity(topology, table, pairs):
    t0 = time.perf_counter()
    # identical cosines, wrists far apart, for mirrored elbow flexion
    elbow_id = table.id_of("l_elbow_flex")
    plus = np.zeros(48)
    plus[elbow_id] = np.pi / 2
    minus = np.zeros(48)
    minus[elbow_id] = -np.pi / 2  # unclamped: fed straight to FK
    pose_plus = sk.forward_kinematics(topology, plus, sk.GlobalTransform.identity())
    pose_minus = sk.forward_kinematics(topology, minus, sk.GlobalTransform.identity())
    cos_plus = joint_cosines(pose_plus, pairs)
    cos_minus = joint_cosines(pose_minus, pairs)
    upper = pairs.bones.index((10, 11))
    fore = pairs.bones.index((11, 12))
    k = next(k for k, (i, j) in enumerate(pairs.pairs) if {i, j} == {upper, fore})
    assert abs(cos_plus[k] - cos_minus[k]) <= 1e-12
    wrist_gap = np.linalg.norm(pose_plus[12] - pose_minus[12])
    assert wrist_gap > 0.01, f"wrists only {wrist_gap:.4f} m apart"
    # the bounded generator cannot emit negative elbow flexion
    cfg = gan.TrainConfig(gen_hidden=(64, 64), seed=104, epochs=5, beta_epoch=4)
    gen = gan.build_generator(cfg, RNG(104), topology, table)
    elbow_ids = [table.id_of("l_elbow_flex"), table.id_of("r_elbow_flex")]
    knee_ids = [table.id_of("l_knee_flex"), table.id_of("r_knee_flex")]
    seen = 0
    rng = RNG(105)
    for _ in range(10):
        z = gan.sample_latent(10_000, cfg.z_dim, rng)
        params, _, _ = gan.generate_poses(gen, z)
        flat = params.reshape(-1, 48)
        for e in elbow_ids:
            assert np.all(flat[:, e] > 0.0), "negative elbow flexion generated"
        for k in knee_ids:  # both knees stay in the flexion-only quadrant
            assert np.all((flat[:, k] > -np.pi) & (flat[:, k] < 0.0))
        seen += flat.shape[0]
    assert seen == 100_000
    report("angle ambiguity (cosine equal, wrists >1 cm, 1e5 clean elbows)", 30, t0)


def test_criterion_autodiff_gradient_checks(pairs, camera):
    t0 = time.perf_counter()
    from test_autodiff import OP_CASES, grad_of

    for name, (build, shape) in sorted(OP_CASES.items()):
        x0 = RNG(zlib.crc32(name.encode())).normal(size=shape) * 0.3
        grad, f = grad_of(build, x0)
        fd = central_difference(f, x0.copy(), h=1e-6)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(grad - fd) / scale) <= 1e-5, name

    # random 3-layer critic: parameter gradients against central differences
    # float64 copies of the nets: float32 weights are too coarse for these steps
    net = float64_copy(nn.mlp_init([6, 10, 8, 1], ["tanh", "lrelu", "linear"], RNG(106)))
    x = RNG(107).normal(size=(4, 6))
    tape = ad.Tape()
    leaves = nn.mlp_leaves(tape, net)
    ad.backward(tape, ad.sum_(nn.mlp_apply(net, tape.const(x), tape, leaves)))
    for slot, value, leaf in weight_slots({"net": net}, {"net": leaves}):
        def f(values, slot=slot):
            return float(nn.mlp_eval(replaced({"net": net}, slot, values)["net"], x).sum())

        fd = central_difference(f, value.copy(), h=1e-5)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(leaf.grad - fd) / scale) <= 1e-5, slot

    # double backprop: every parameter gradient of the penalties training
    # runs, on a tiny frame critic and a tiny motion critic (T = 3)
    cfg = gan.TrainConfig(mode="video", frames=3, enc_hidden=(4,), head_hidden=(3,))
    rng = RNG(108)
    streams = gan.feature_batch(rng.normal(size=(3, 3, 16, 3)),
                                rng.normal(size=(3, 3, 16, 2)) * 50, camera, pairs)
    critics = (
        (float64_copy(gan.build_critic(gan.FRAME_BRANCHES, cfg, 14, RNG(109))),
         lambda critic, tape, p: gan.frame_penalty(critic, streams, 10.0, tape, p)),
        (float64_copy(gan.build_critic(gan.MOTION_BRANCHES, cfg, 14, RNG(110))),
         lambda critic, tape, p: gan.motion_penalty(critic, streams, 10.0, tape, p)))
    for critic, penalty in critics:
        tape = ad.Tape()
        leaves = gan.critic_leaves(tape, critic)
        ad.backward(tape, penalty(critic, tape, leaves))
        for slot, value, leaf in weight_slots(critic.nets, leaves):
            def f(values, slot=slot):
                trial = gan.Critic(critic.branches, replaced(critic.nets, slot, values))
                with ad.Tape() as t:
                    return float(penalty(trial, t, None).values)

            fd = central_difference(f, value.copy(), h=1e-5)
            scale = np.maximum(np.abs(fd), 1.0)
            err = np.max(np.abs((leaf.grad if leaf.grad is not None else 0.0) - fd) / scale)
            assert err <= 1e-4, slot
    report("autodiff gradient checks (ops 1e-5, double backprop 1e-4)", 30, t0)


def test_criterion_gradient_penalty_analytic_cases():
    t0 = time.perf_counter()
    rng = RNG(110)
    streams = dict(zip(gan.FRAME_STREAMS, (rng.normal(size=(5, 48)), rng.normal(size=(5, 14)),
                                           rng.normal(size=(5, 32)))))
    # all-zero weights: zero input gradient
    pen = gan.frame_penalty(linear_frame_critic(0.0), streams, 10.0, ad.Tape())
    assert float(pen.values) == 10.0
    # weight 1 from one x3d input into one head channel: unit input gradient
    pen0 = gan.frame_penalty(linear_frame_critic(1.0), streams, 10.0, ad.Tape())
    assert float(pen0.values) == 0.0
    report("gradient-penalty analytic cases (alpha*1 and 0, exact)", 5, t0)


def test_criterion_schedule_gate():
    t0 = time.perf_counter()
    assert gan.gamma_schedule(3, 4) == 0
    assert gan.gamma_schedule(4, 4) == 1
    report("schedule gate (3,4)->0 and (4,4)->1, exact", 5, t0)


def test_criterion_smoke_gan_run():
    t0 = time.perf_counter()

    def run_once():
        cfg = gan.TrainConfig(mode="single", epochs=5, beta_epoch=4, seed=112,
                              batch_size=256, critic_steps=1)
        data = dsio.make_band_corpus(2048, 113)
        state = gan.init_train_state(cfg)
        for _ in range(200):
            idx = state.rng.integers(0, len(data), cfg.batch_size)
            real = gan._real_minibatch(state, data, idx)
            fake, bad = gan._fake_minibatch(state, cfg.batch_size)
            assert bad == 0
            gan.critic_update(state, real, fake, 0)
        eval_idx = np.arange(1024)
        real = gan._real_minibatch(state, data, eval_idx % len(data))
        fake, _ = gan._fake_minibatch(state, 1024)
        with ad.Tape() as tape:
            s_real = gan.frame_score(state.critics["frame"], real, tape)[0].values
            s_fake = gan.frame_score(state.critics["frame"], fake, tape)[0].values
        return float(s_real.mean() - s_fake.mean())

    gap1 = run_once()
    gap2 = run_once()
    assert gap1 > 0.0, f"critic failed to separate real from fake (gap {gap1:.4f})"
    assert gap1 == gap2, "smoke run is not deterministic under a fixed seed"
    print(f"  smoke separation gap: {gap1:.4f}")
    report("smoke GAN run (200 critic steps, separation > 0, deterministic)", 180, t0)


def test_criterion_synthesis_determinism(tmp_path, topology, table):
    t0 = time.perf_counter()
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert cli.run_cli(["synth", "--count", "10000", "--seed", "77", "--out", str(a)]) == 0
    assert cli.run_cli(["synth", "--count", "10000", "--seed", "77", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes(), "same-seed synthesis differs"
    cams, pose3d, pose2d = dsio.load_dataset(a, topology).columns()
    assert np.all(cams == cams[0])
    uv = project_pose(pose3d, CameraIntrinsics.from_array(cams[0]))
    assert np.max(np.abs(uv - pose2d)) < 1e-6
    assert len(cams) == 10_000
    report("synthesis determinism and consistency (10k records, 1e-6 px)", 60, t0)


def test_criterion_video_physicality(topology):
    t0 = time.perf_counter()
    cfg = gan.TrainConfig(mode="video", frames=9, seed=114, epochs=5, beta_epoch=4,
                          gen_hidden=(128, 128))
    gen = gan.build_generator(cfg, RNG(114))
    out = gan.generate(gen, gan.sample_latent(100, cfg.z_dim, RNG(115)))
    lengths = sk.bone_lengths(topology, out.pose3d)  # (100, 9, 15)
    rel = np.abs(lengths - lengths[:, :1]) / lengths[:, :1]
    assert np.max(rel) < 1e-9
    report("video physicality (100 nine-frame sequences, 1e-9)", 10, t0)
