import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhpose import features as ft
from dhpose import gan
from dhpose import skeleton as sk
from dhpose.camera import default_camera


def _pair_index(pairs, b1, b2):
    for k, (i, j) in enumerate(pairs.pairs):
        if {i, j} == {b1, b2}:
            return k
    raise AssertionError(f"no pair of bones {b1}, {b2}")


def motion(seq3d, pairs, seq2d=None):
    """The motion critic's six streams of one (T, K, 3) sequence, each flat;
    the 2D sequence defaults to zeros."""
    seq3d = np.asarray(seq3d, dtype=np.float64)
    if seq2d is None:
        seq2d = np.zeros(seq3d.shape[:-1] + (2,))
    streams = gan.feature_batch(seq3d[None], np.asarray(seq2d)[None], default_camera(), pairs)
    return {k: streams[k][0] for k in gan.MOTION_STREAMS}


def brute_force_sum(diffs):
    """Literal double sum, one term at a time."""
    total = np.zeros(diffs.shape[2:]) if diffs.ndim > 2 else 0.0
    for t in range(diffs.shape[0]):
        for i in range(diffs.shape[1]):
            total = total + diffs[t, i]
    return total


class TestAdjacentPairs:
    def test_exactly_14_pairs(self, pairs):
        assert len(pairs.pairs) == 14

    def test_each_pair_shares_one_keypoint(self, pairs):
        for i, j in pairs.pairs:
            assert len(set(pairs.bones[i]) & set(pairs.bones[j])) == 1

    def test_trunk_pairs_with_both_hip_bones(self, pairs):
        spine_bone = pairs.bones.index((0, 7))
        hips = {pairs.bones.index((0, 1)), pairs.bones.index((0, 4))}
        trunk_partners = {j for i, j in pairs.pairs if i == spine_bone}
        trunk_partners |= {i for i, j in pairs.pairs if j == spine_bone}
        assert hips <= trunk_partners


class TestJointCosines:
    def test_perpendicular_bones(self, topology, pairs):
        pose = sk.rest_pose(topology)
        cos = ft.joint_cosines(pose, pairs)
        spine_bone = pairs.bones.index((0, 7))
        hip_bone = pairs.bones.index((0, 1))
        k = _pair_index(pairs, spine_bone, hip_bone)
        assert cos[k] == pytest.approx(0.0, abs=1e-12)

    def test_collinear_bones(self, topology, pairs):
        pose = sk.rest_pose(topology)
        cos = ft.joint_cosines(pose, pairs)
        femur = pairs.bones.index((4, 5))
        tibia = pairs.bones.index((5, 6))
        k = _pair_index(pairs, femur, tibia)
        assert cos[k] == pytest.approx(1.0, abs=1e-12)

    def test_45_degree_pair(self):
        bones = ((0, 1), (1, 2))
        pairs = ft.AdjacentBonePairs(bones=bones, pairs=((0, 1),))
        pose = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 1.0, 0]])
        cos = ft.joint_cosines(pose, pairs)
        assert cos[0] == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    def test_degenerate_bone_raises(self):
        bones = ((0, 1), (1, 2))
        pairs = ft.AdjacentBonePairs(bones=bones, pairs=((0, 1),))
        pose = np.array([[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]])
        with pytest.raises(ft.DegenerateBoneError, match="bone 0"):
            ft.joint_cosines(pose, pairs)

    def test_rigid_invariance(self, topology, pairs):
        rng = np.random.default_rng(0)
        params = np.zeros((25, 48))
        params[:, :33] = rng.uniform(-1, 1, (25, 33))
        g = np.concatenate([rng.uniform(-3, 3, (25, 3)), rng.uniform(-2, 2, (25, 3))], axis=1)
        pose = sk.forward_kinematics_batch(topology, params, np.zeros((25, 6)))
        moved = sk.forward_kinematics_batch(topology, params, g)
        assert np.max(np.abs(ft.joint_cosines(pose, pairs)
                             - ft.joint_cosines(moved, pairs))) < 1e-9

    def test_batch_shape(self, topology, pairs):
        seq = np.stack([sk.rest_pose(topology)] * 4)
        assert ft.joint_cosines(seq, pairs).shape == (4, 14)


class TestTrajectories:
    """The motion critic's difference streams (``gan.motion_streams``)."""

    def test_static_sequence_all_zero(self, topology, pairs):
        seq = np.stack([sk.rest_pose(topology)] * 5)
        seq2d = np.stack([np.random.default_rng(1).normal(size=(16, 2))] * 5)
        m = motion(seq, pairs, seq2d)
        for key in ("diff3d", "cosdiff", "root2d"):
            assert np.all(m[key] == 0), key

    def test_uniform_shift(self, topology, pairs):
        base = sk.rest_pose(topology)
        diffs = motion(np.stack([base, base + [0.01, 0, 0]]), pairs)["diff3d"].reshape(16, 3)
        assert np.allclose(diffs, [0.01, 0, 0])
        assert np.allclose(diffs.sum(axis=0), [0.16, 0, 0])  # 16 joints x 0.01

    def test_single_frame_has_no_motion_streams(self, topology, pairs):
        pose = sk.rest_pose(topology)[None, None]
        streams = gan.feature_batch(pose, np.zeros(pose.shape[:-1] + (2,)), default_camera(),
                                    pairs)
        assert list(streams) == list(gan.FRAME_STREAMS)

    def test_cosine_step(self):
        bones = ((0, 1), (1, 2))
        pairs = ft.AdjacentBonePairs(bones=bones, pairs=((0, 1),))
        f0 = np.array([[0.0, 0, 0], [1, 0, 0], [2, 1, 0]])     # cos 45 deg
        f1 = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])     # cos 0 -> 1
        diffs = motion(np.stack([f0, f1]), pairs)["cosdiff"]
        assert diffs[0] == pytest.approx(1 - np.sqrt(2) / 2, abs=1e-12)
        assert diffs.sum() == pytest.approx(1 - np.sqrt(2) / 2, abs=1e-12)

    def test_cosine_going_zero_to_half_diffs_by_half(self):
        bones = ((0, 1), (1, 2))
        pairs = ft.AdjacentBonePairs(bones=bones, pairs=((0, 1),))
        f0 = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0]])                       # cos 0
        f1 = np.array([[0.0, 0, 0], [1, 0, 0], [1.5, np.sqrt(3) / 2, 0]])        # cos 0.5
        diffs = motion(np.stack([f0, f1]), pairs)["cosdiff"]
        assert diffs[0] == pytest.approx(0.5, abs=1e-12)

    def test_root_trajectory_arithmetic(self, topology, pairs):
        cam = default_camera()
        seq2d = np.zeros((4, 16, 2))
        for t in range(4):
            seq2d[t, 0] = [2.0 * t, -1.0 * t]
        seq3d = np.stack([sk.rest_pose(topology)] * 4)
        diffs = motion(seq3d, pairs, seq2d)["root2d"].reshape(3, 2)
        # normalized image coordinates: pixels over the focal lengths
        assert np.allclose(diffs, [[2 / cam.fx, -1 / cam.fy]] * 3)
        assert np.allclose(diffs.sum(axis=0), [6 / cam.fx, -3 / cam.fy])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 12), st.integers(0, 2 ** 31 - 1))
    def test_telescoping_identities(self, frames, seed):
        rng = np.random.default_rng(seed)
        seq3d = rng.normal(size=(frames, 16, 3))
        seq2d = rng.normal(size=(frames, 16, 2)) * 100
        m = motion(seq3d, ft.adjacent_bone_pairs(sk.default_topology()), seq2d)
        diffs = m["diff3d"].reshape(frames - 1, 16, 3)
        total = diffs.sum(axis=(0, 1))
        assert np.max(np.abs(total - brute_force_sum(diffs))) < 1e-12
        endpoint = (seq3d[-1] - seq3d[0]).sum(axis=0)
        assert np.max(np.abs(total - endpoint)) < 1e-12
        root = m["seq2d"].reshape(frames, 16, 2)[:, 0]
        t2 = m["root2d"].reshape(frames - 1, 2).sum(axis=0)
        assert np.max(np.abs(t2 - (root[-1] - root[0]))) < 1e-12

    def test_cosine_telescoping(self, topology, pairs):
        rng = np.random.default_rng(3)
        params = np.zeros((6, 48))
        params[:, :33] = rng.uniform(-0.8, 0.8, (6, 33))
        seq = sk.forward_kinematics_batch(topology, params, np.zeros((6, 6)))
        diffs = motion(seq, pairs)["cosdiff"].reshape(5, 14)
        total = diffs.sum()
        brute = 0.0
        for t in range(diffs.shape[0]):
            for i in range(diffs.shape[1]):
                brute += diffs[t, i]
        assert total == pytest.approx(brute, abs=1e-12)
        cos = ft.joint_cosines(seq, pairs)
        assert total == pytest.approx((cos[-1] - cos[0]).sum(), abs=1e-12)


class TestBundle:
    """Every critic stream of one sequence (``gan.feature_batch`` in video mode)."""

    def test_shapes_and_sums(self, topology, pairs, camera):
        from dhpose.camera import project_pose
        rng = np.random.default_rng(4)
        params = np.zeros((5, 48))
        params[:, :33] = rng.uniform(-0.5, 0.5, (5, 33))
        g = np.zeros((5, 6))
        g[:, 5] = 4.0
        seq3d = sk.forward_kinematics_batch(topology, params, g)
        seq2d = project_pose(seq3d, camera)
        fb = gan.feature_batch(seq3d[None], seq2d[None], camera, pairs)
        shapes = {"x3d": (5, 48), "xcos": (5, 14), "x2d": (5, 32), "seq3d": (1, 5 * 48),
                  "diff3d": (1, 4 * 48), "cosseq": (1, 5 * 14), "cosdiff": (1, 4 * 14),
                  "seq2d": (1, 5 * 32), "root2d": (1, 4 * 2)}
        assert {k: v.shape for k, v in fb.items()} == shapes
        assert list(fb) == [*gan.FRAME_STREAMS, *gan.MOTION_STREAMS]
        total = fb["diff3d"].reshape(-1, 3).sum(axis=0)
        assert np.allclose(total, (seq3d[-1] - seq3d[0]).sum(axis=0), atol=1e-12)

    def test_mismatched_lengths_rejected(self, topology, pairs, camera):
        seq3d = np.stack([sk.rest_pose(topology)] * 3)[None]
        seq2d = np.zeros((1, 2, 16, 2))
        with pytest.raises(ValueError, match="do not pair"):
            gan.feature_batch(seq3d, seq2d, camera, pairs)
