import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhpose import autodiff as ad
from dhpose import skeleton as sk
from oracles import central_difference, dh_ref, fk_naive, resolved_rows

RNG = np.random.default_rng


def assert_tape_gradient(op, x0, seed):
    """The tape gradient of sum(op(x) * w) equals central differences to 1e-5."""
    w = RNG(seed).normal(size=op(ad.Tape().const(x0)).shape)
    tape = ad.Tape()
    x = tape.var(x0.copy())
    ad.backward(tape, ad.sum_(ad.mul(op(x), w)))
    fd = central_difference(lambda v: float(np.sum(op(ad.Tape().const(v)).values * w)),
                            x0.copy())
    assert np.max(np.abs(x.grad - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-5


def dh_kernel(a, d, alpha, theta):
    """One link's transform from ``_dh_matrices_batch``, the kernel FK runs."""
    return sk._dh_matrices_batch(1, a, d, np.cos(alpha), np.sin(alpha), theta)[0]


class TestDhMatrix:
    def test_identity_case(self):
        assert np.allclose(dh_kernel(0, 0, 0, 0), np.eye(4), atol=0)

    def test_pure_link_length(self):
        m = dh_kernel(0.7, 0, 0, 0)
        assert np.allclose(m[:3, :3], np.eye(3))
        assert np.allclose(m[:, 3], [0.7, 0, 0, 1])

    def test_joint_angle_quarter_turn(self):
        m = dh_kernel(0, 0, 0, np.pi / 2)
        assert np.allclose(m[0], [0, -1, 0, 0], atol=1e-15)
        assert np.allclose(m[1], [1, 0, 0, 0], atol=1e-15)

    def test_offset_with_quarter_twist(self):
        d = 0.3
        m = dh_kernel(0, d, np.pi / 2, 0)
        assert np.allclose(m[:, 3], [0, -d, 0, 1], atol=1e-15)

    def test_bottom_row_and_orthonormal_rotation(self):
        rng = RNG(0)
        for _ in range(100):
            a, d, alpha, theta = rng.uniform(-2, 2, 4)
            m = dh_kernel(abs(a), d, alpha, theta)
            r = m[:3, :3]
            assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
            assert np.array_equal(m[3], [0, 0, 0, 1])

    def test_matches_reference_formula(self):
        rng = RNG(1)
        for _ in range(50):
            a, d, alpha, theta = rng.uniform(-3, 3, 4)
            assert np.allclose(dh_kernel(abs(a), d, alpha, theta),
                               dh_ref(abs(a), d, alpha, theta), atol=1e-15)


def rigidity_error(frames) -> tuple[float, float]:
    """Largest |R^T R - I| entry and largest |det R - 1| over the rotation
    blocks R of every (B, 4, 4) frame ``chain_frames`` returns."""
    r3 = np.stack([cum for branch in frames for cum in branch], axis=1)[..., :3, :3]
    return (float(np.max(np.abs(np.swapaxes(r3, -1, -2) @ r3 - np.eye(3)))),
            float(np.max(np.abs(np.linalg.det(r3) - 1.0))))


class TestComposeChain:
    """The cumulative transforms ``chain_frames`` composes, which FK reads its
    keypoints from and ``chain_vjp`` its axes, against products of ``dh_ref``."""

    def test_single_row_is_base_case(self, topology):
        # the first frame of every chain is its first row's own transform, bit for bit
        params = RNG(3).uniform(-1, 1, (10, 48))
        params[:, 33:] *= 0.05
        _, frames = sk.chain_frames(topology, params)
        for i in range(10):
            for bi in range(len(topology.branches)):
                first = resolved_rows(topology, params[i], bi)[0]
                assert np.array_equal(frames[bi][0][i], dh_kernel(*first))

    def test_cumulative_prefix_products(self, topology):
        rng = RNG(2)
        params = rng.uniform(-1, 1, (50, 48))
        params[:, 33:] *= 0.05  # keep link lengths physical
        _, frames = sk.chain_frames(topology, params)
        for i in range(50):
            for bi in range(len(topology.branches)):
                expect = np.eye(4)
                for r, (a, d, alpha, theta) in enumerate(resolved_rows(topology, params[i], bi)):
                    expect = expect @ dh_ref(a, d, alpha, theta)
                    assert np.max(np.abs(frames[bi][r][i] - expect)) < 1e-12


class TestTopology:
    def test_counts(self, topology):
        assert len(topology.branches) == 5
        owned = [row for b in topology.branches for row in b.rows[b.shared_prefix_len:]]
        assert sorted(row.theta_id for row in owned) == list(range(33))
        assert sorted(i for row in owned for i in (row.a_id, row.d_id) if i >= 0) \
            == list(range(33, 48))
        assert list(topology.param_kinds).count("angle") == 33
        assert list(topology.param_kinds).count("length") == 15
        assert topology.keypoint_count == 16
        assert len(topology.bone_list) == 15

    def test_unique_dof_rows(self, topology):
        total = sum(len(b.rows) - b.shared_prefix_len for b in topology.branches)
        assert total == 33

    def test_bones_span_tree(self, topology):
        reached = {0}
        for parent, child in topology.bone_list:
            assert parent in reached
            reached.add(child)
        assert reached == set(range(16))

    def test_keypoint_map_strictly_increasing(self, topology):
        for branch in topology.branches:
            idx = [r for r, _ in branch.keypoint_map]
            assert idx == sorted(idx)
            assert len(set(idx)) == len(idx)

    def test_shared_rows_alias_the_root_store(self, topology):
        root = topology.branches[0]
        for branch in topology.branches[1:]:
            p = branch.shared_prefix_len
            assert branch.rows[:p] == root.rows[:p]
            for row, root_row in zip(branch.rows[:p], root.rows):
                assert (row.theta_id, row.a_id, row.d_id) == \
                    (root_row.theta_id, root_row.a_id, root_row.d_id)

    def test_file_round_trip(self, topology, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text(sk.topology_to_text(topology))
        again = sk.load_topology(path)
        assert again == topology
        assert sk.topology_hash(again) == sk.topology_hash(topology)

    def test_shipped_file_hash_is_pinned(self):
        # stamped into every dataset, every checkpoint and data/rest_pose.txt
        assert sk.topology_hash(sk.default_topology()) == "6395f2e393c2"

    def test_length_in_one_field_only(self):
        with pytest.raises(ValueError, match="exactly one"):
            sk.DhRow("bad", a_id=33, d_id=34)


class TestForwardKinematics:
    def test_rest_pose_matches_shipped_oracle(self, topology, shipped_rest_pose):
        assert np.max(np.abs(sk.rest_pose(topology) - shipped_rest_pose)) < 1e-9

    def test_pure_translation(self, topology):
        rest = sk.rest_pose(topology)
        g = sk.GlobalTransform(0, 0, 0, 1.0, 2.0, 3.0)
        moved = sk.forward_kinematics(topology, np.zeros(48), g)
        assert np.allclose(moved, rest + np.array([1.0, 2.0, 3.0]), atol=1e-12)

    def test_half_turn_about_z_negates_xy(self, topology):
        rng = RNG(3)
        params = rng.uniform(-0.5, 0.5, 48)
        base = sk.forward_kinematics(topology, params, sk.GlobalTransform.identity())
        spun = sk.forward_kinematics(topology, params, sk.GlobalTransform(rz=np.pi))
        assert np.allclose(spun[:, 0], -base[:, 0], atol=1e-12)
        assert np.allclose(spun[:, 1], -base[:, 1], atol=1e-12)
        assert np.allclose(spun[:, 2], base[:, 2], atol=1e-12)

    def test_matches_naive_oracle(self, topology):
        rng = RNG(4)
        params = rng.uniform(-1.0, 1.0, (200, 48))
        globals_ = rng.uniform(-1.0, 1.0, (200, 6))
        fast = sk.forward_kinematics_batch(topology, params, globals_)
        for i in range(200):
            ref = fk_naive(topology, params[i], globals_[i])
            assert np.max(np.abs(fast[i] - ref)) < 1e-9

    def test_batch_equals_serial_bitwise(self, topology):
        rng = RNG(5)
        params = rng.uniform(-1.0, 1.0, (16, 48))
        globals_ = rng.uniform(-1.0, 1.0, (16, 6))
        batch = sk.forward_kinematics_batch(topology, params, globals_)
        for i in range(16):
            one = sk.forward_kinematics_batch(topology, params[i:i + 1], globals_[i:i + 1])[0]
            assert np.array_equal(batch[i], one)

    @pytest.mark.parametrize("shape", [(47,), (2, 48)])
    def test_wrong_param_length_rejected(self, topology, shape):
        with pytest.raises(ValueError, match="48"):
            sk.forward_kinematics(topology, np.zeros(shape), sk.GlobalTransform.identity())

    def test_pelvis_lands_on_translation(self, topology):
        rng = RNG(6)
        for _ in range(10):
            params = rng.uniform(-1, 1, 48)
            g = sk.GlobalTransform(*rng.uniform(-2, 2, 3), *rng.uniform(-1, 1, 3))
            pose = sk.forward_kinematics(topology, params, g)
            assert np.allclose(pose[0], [g.tx, g.ty, g.tz], atol=1e-12)

    def test_rigidity_of_cumulative_transforms(self, topology):
        # rotation blocks do not depend on the length deltas
        _, frames = sk.chain_frames(topology, RNG(7).uniform(-1.5, 1.5, (100, 48)))
        ortho, det = rigidity_error(frames)
        assert ortho < 1e-9
        assert det < 1e-9

    def test_bone_lengths_invariant_under_angles(self, topology):
        rng = RNG(8)
        params = np.zeros((300, 48))
        params[:, :33] = rng.uniform(-1.5, 1.5, (300, 33))
        poses = sk.forward_kinematics_batch(topology, params, np.zeros((300, 6)))
        lengths = sk.bone_lengths(topology, poses)
        rel = np.abs(lengths - lengths[0]) / lengths[0]
        assert np.max(rel) < 1e-9

    def test_length_deltas_move_bones(self, topology):
        params = np.zeros(48)
        params[37] = 0.09  # left femur delta
        pose = sk.forward_kinematics(topology, params, sk.GlobalTransform.identity())
        lengths = sk.bone_lengths(topology, pose)
        assert lengths[4] == pytest.approx(0.54, abs=1e-12)

    def test_shared_prefix_consistency(self, topology):
        # every branch's frames on its shared rows are the root branch's frames
        params = RNG(9).uniform(-1, 1, (20, 48))
        params[:, 33:] *= 0.02  # keep link lengths physical
        _, frames = sk.chain_frames(topology, params)
        for bi, branch in enumerate(topology.branches[1:], start=1):
            for r in range(branch.shared_prefix_len):
                assert np.max(np.abs(frames[bi][r] - frames[0][r])) < 1e-12

    @pytest.mark.parametrize("defect, match", [
        ("nan params", "finite"), ("inf globals", "finite"), ("-inf globals", "finite"),
        ("(B, 47) params", r"\(batch, 48\) parameters"), ("(B, 5) globals", r"\(batch, 6\) global"),
    ])
    def test_batch_rejects_bad_input(self, topology, defect, match):
        params, globals_ = np.zeros((3, 48)), np.zeros((3, 6))
        if defect == "nan params":
            params[1, 7] = np.nan
        elif defect == "inf globals":
            globals_[2, 4] = np.inf
        elif defect == "-inf globals":
            globals_[0, 1] = -np.inf
        elif defect == "(B, 47) params":
            params = params[:, :47]
        else:
            globals_ = globals_[:, :5]
        with pytest.raises(ValueError, match=match):
            sk.forward_kinematics_batch(topology, params, globals_)


class TestFkNode:
    """``fk``, the tape node the generator step differentiates through."""

    @staticmethod
    def _inputs(seed, n=3):
        rng = RNG(seed)
        return rng.uniform(-1, 1, (n, 48)), rng.uniform(-1, 1, (n, 6))

    def test_gradient_wrt_params(self, topology):
        p0, g0 = self._inputs(70)
        assert_tape_gradient(lambda p: sk.fk(topology, p, p.tape.const(g0)), p0, 71)

    def test_gradient_wrt_globals(self, topology):
        p0, g0 = self._inputs(72)
        assert_tape_gradient(lambda g: sk.fk(topology, g.tape.const(p0), g), g0, 73)

    def test_recorded_values_are_the_numpy_fk(self, topology):
        p0, g0 = self._inputs(77, n=5)
        tape = ad.Tape()
        pose = sk.fk(topology, tape.var(p0), tape.var(g0))
        assert np.array_equal(pose.values, sk.forward_kinematics_batch(topology, p0, g0))

    def test_records_at_most_two_nodes(self, topology):
        p0, g0 = self._inputs(78)
        tape = ad.Tape()
        p, g = tape.var(p0), tape.var(g0)
        before = len(tape.nodes)
        sk.fk(topology, p, g)
        assert len(tape.nodes) - before <= 2


class TestGlobalTransform:
    """The global rotation and translation as ``forward_kinematics_batch``
    applies them, against the same parameters with zero globals."""

    @staticmethod
    def _posed(topology, globals_, seed=0):
        params = np.zeros(48)
        params[:33] = RNG(seed).uniform(-1, 1, 33)
        return (sk.forward_kinematics_batch(topology, params[None], np.zeros((1, 6)))[0],
                sk.forward_kinematics_batch(topology, params[None], np.asarray([globals_]))[0])

    def test_identity_is_noop(self, topology):
        params = RNG(0).uniform(-1, 1, (1, 48))
        params[:, 33:] *= 0.05
        kps, _ = sk.chain_frames(topology, params)
        out = sk.forward_kinematics_batch(topology, params, np.zeros((1, 6)))
        assert np.array_equal(out, kps)

    def test_full_turn_is_noop(self, topology):
        for axis in range(3):
            g = np.zeros(6)
            g[axis] = 2 * np.pi
            pose, out = self._posed(topology, g)
            assert np.max(np.abs(out - pose)) < 1e-9

    def test_pure_translation_offsets_every_joint(self, topology):
        pose, out = self._posed(topology, [0, 0, 0, 0.4, -0.2, 1.5])
        assert np.allclose(out - pose, [0.4, -0.2, 1.5], atol=0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-3, 3), min_size=6, max_size=6))
    def test_preserves_pairwise_distances(self, g6):
        pose, out = self._posed(sk.default_topology(), g6, seed=10)
        d_in = np.linalg.norm(pose[:, None] - pose[None, :], axis=-1)
        d_out = np.linalg.norm(out[:, None] - out[None, :], axis=-1)
        mask = d_in > 1e-12
        assert np.max(np.abs(d_out[mask] - d_in[mask]) / d_in[mask]) < 1e-9

    def test_rotation_is_x_then_y_then_z_matrix(self):
        from oracles import rot_x_ref, rot_y_ref, rot_z_ref
        rng = RNG(11)
        for _ in range(20):
            rx, ry, rz = rng.uniform(-3, 3, 3)
            got = sk.rotation_xyz(rx, ry, rz)
            ref = rot_x_ref(rx) @ rot_y_ref(ry) @ rot_z_ref(rz)
            assert np.allclose(got, ref, atol=1e-14)


class TestRestPoseFile:
    def test_save_load_round_trip(self, topology, tmp_path):
        pose = sk.rest_pose(topology) + RNG(12).normal(0, 0.1, (16, 3))
        path = tmp_path / "pose.txt"
        path.write_text("".join(f"keypoint {kp} {name} {x:.9g} {y:.9g} {z:.9g}\n"
                                for kp, (name, (x, y, z))
                                in enumerate(zip(topology.keypoint_names, pose))))
        assert np.max(np.abs(sk.load_rest_pose(path) - pose)) < 1e-8

    def test_shipped_file_and_loader_share_the_parser(self, tmp_path, shipped_rest_pose):
        from importlib import resources
        path = tmp_path / "pose.txt"
        path.write_text(resources.files("dhpose").joinpath("data/rest_pose.txt").read_text())
        assert np.array_equal(sk.load_rest_pose(path), shipped_rest_pose)

    @pytest.mark.parametrize("text,line,match", [
        ("keypoint 0 a 0 0 0\nkeypoint 1 b 1 2\n", 2, "expected 6 fields, got 5"),
        ("keypoint 0 a 0 0 zero\n", 1, "bad float 'zero' in field 6"),
        ("keypoint one a 0 0 0\n", 1, "bad int 'one' in field 2"),
        ("kp 0 a 0 0 0\n", 1, "expected 'keypoint' in field 1, got 'kp'"),
        ("keypoint 0 a 0 nan 0\n", 1, "non-finite"),
        ("keypoint 0 a 0 0 inf\n", 1, "non-finite"),
        ("keypoint 0 a 0 0 0\nkeypoint 0 b 1 1 1\n", 2, "already given at line 1"),
        ("# header\nkeypoint 0 a 0 0 0\nkeypoint 2 c 0 0 0\n", 3, "keypoint 1 is missing"),
        ("keypoint 1 b 0 0 0\n", 1, "keypoint 0 is missing"),
        ("keypoint -1 b 0 0 0\n", 1, "negative"),
    ])
    def test_malformed_file_is_a_value_error_naming_path_and_line(self, tmp_path, text,
                                                                  line, match):
        path = tmp_path / "pose.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=match) as info:
            sk.load_rest_pose(path)
        assert str(info.value).startswith(f"{path}: parse error at line {line}: ")

    def test_file_without_keypoints_rejected(self, tmp_path):
        path = tmp_path / "pose.txt"
        path.write_text("# nothing here\n\n")
        with pytest.raises(ValueError, match=f"{path}: parse error: no keypoint lines"):
            sk.load_rest_pose(path)
