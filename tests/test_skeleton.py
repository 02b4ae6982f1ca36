import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhpose import skeleton as sk
from oracles import dh_ref, fk_naive

RNG = np.random.default_rng


class TestDhMatrix:
    def test_identity_case(self):
        assert np.allclose(sk.dh_matrix(0, 0, 0, 0), np.eye(4), atol=0)

    def test_pure_link_length(self):
        m = sk.dh_matrix(0.7, 0, 0, 0)
        assert np.allclose(m[:3, :3], np.eye(3))
        assert np.allclose(m[:, 3], [0.7, 0, 0, 1])

    def test_joint_angle_quarter_turn(self):
        m = sk.dh_matrix(0, 0, 0, np.pi / 2)
        assert np.allclose(m[0], [0, -1, 0, 0], atol=1e-15)
        assert np.allclose(m[1], [1, 0, 0, 0], atol=1e-15)

    def test_offset_with_quarter_twist(self):
        d = 0.3
        m = sk.dh_matrix(0, d, np.pi / 2, 0)
        assert np.allclose(m[:, 3], [0, -d, 0, 1], atol=1e-15)

    def test_bottom_row_and_orthonormal_rotation(self):
        rng = RNG(0)
        for _ in range(100):
            a, d, alpha, theta = rng.uniform(-2, 2, 4)
            m = sk.dh_matrix(abs(a), d, alpha, theta)
            r = m[:3, :3]
            assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
            assert np.array_equal(m[3], [0, 0, 0, 1])

    def test_matches_reference_formula(self):
        rng = RNG(1)
        for _ in range(50):
            a, d, alpha, theta = rng.uniform(-3, 3, 4)
            assert np.allclose(sk.dh_matrix(abs(a), d, alpha, theta),
                               dh_ref(abs(a), d, alpha, theta), atol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            sk.dh_matrix(0, np.nan, 0, 0)
        with pytest.raises(ValueError, match="finite"):
            sk.dh_matrix(np.inf, 0, 0, 0)


class TestComposeChain:
    def test_collinear_translations_add(self):
        rows = [sk.DhRow("a", a=0.3), sk.DhRow("b", a=0.5)]
        out = sk.compose_chain(rows)
        assert np.allclose(out[1][:3, 3], [0.8, 0, 0])

    def test_single_row_is_base_case(self):
        row = sk.DhRow("only", a=0.2, d=0.1, alpha=0.4, theta=-0.3)
        out = sk.compose_chain([row])
        assert len(out) == 1
        assert np.allclose(out[0], sk.dh_matrix(0.2, 0.1, 0.4, -0.3))

    def test_quarter_turn_then_link(self):
        # hand product: Rz(90deg) applied to (L, 0, 0) lands on (0, L, 0)
        rows = [sk.DhRow("turn", theta=np.pi / 2), sk.DhRow("link", a=0.6)]
        out = sk.compose_chain(rows)
        assert np.allclose(out[1][:3, 3], [0, 0.6, 0], atol=1e-15)

    def test_cumulative_prefix_products(self):
        rng = RNG(2)
        rows = [sk.DhRow(f"r{i}", a=float(abs(rng.uniform())), d=float(rng.uniform()),
                         alpha=float(rng.uniform(-2, 2)), theta=float(rng.uniform(-2, 2)))
                for i in range(6)]
        out = sk.compose_chain(rows)
        expect = np.eye(4)
        for row, cum in zip(rows, out):
            expect = expect @ dh_ref(row.a, row.d, row.alpha, row.theta)
            assert np.allclose(cum, expect, atol=1e-12)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            sk.compose_chain([])


class TestTopology:
    def test_counts(self, topology):
        assert len(topology.branches) == 5
        assert len(set(topology.param_index.values())) == 48
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
        for bi, branch in enumerate(topology.branches[1:], start=1):
            p = branch.shared_prefix_len
            assert branch.rows[:p] == root.rows[:p]
            for r in range(p):
                for fld in ("theta", "a", "d"):
                    assert topology.param_index.get((bi, r, fld)) == \
                        topology.param_index.get((0, r, fld))

    def test_file_round_trip(self, topology, tmp_path):
        path = tmp_path / "topo.txt"
        path.write_text(sk.topology_to_text(topology))
        again = sk.load_topology(path)
        assert again == topology
        assert sk.topology_hash(again) == sk.topology_hash(topology)

    def test_shipped_file_hash_is_pinned(self):
        # stamped into every dataset, every checkpoint and data/rest_pose.txt
        assert sk.topology_hash(sk.default_topology()) == "6395f2e393c2"

    def test_variable_twist_rejected(self):
        with pytest.raises(ValueError, match="twist"):
            sk.DhRow("bad", var_alpha=True)

    def test_length_in_one_field_only(self):
        with pytest.raises(ValueError, match="exactly one"):
            sk.DhRow("bad", var_a=True, var_d=True)


class TestForwardKinematics:
    def test_rest_pose_matches_shipped_oracle(self, topology):
        ref = sk.default_rest_pose()
        got = sk.rest_pose(topology)
        assert np.max(np.abs(got - ref)) < 1e-9

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

    def test_wrong_param_length_rejected(self, topology):
        with pytest.raises(ValueError, match="48"):
            sk.forward_kinematics(topology, np.zeros(47), sk.GlobalTransform.identity())

    def test_pelvis_lands_on_translation(self, topology):
        rng = RNG(6)
        for _ in range(10):
            params = rng.uniform(-1, 1, 48)
            g = sk.GlobalTransform(*rng.uniform(-2, 2, 3), *rng.uniform(-1, 1, 3))
            pose = sk.forward_kinematics(topology, params, g)
            assert np.allclose(pose[0], [g.tx, g.ty, g.tz], atol=1e-12)

    def test_rigidity_of_cumulative_transforms(self, topology):
        rng = RNG(7)
        for _ in range(100):
            params = rng.uniform(-1.5, 1.5, 48)
            for bi, branch in enumerate(topology.branches):
                rows = []
                for r, row in enumerate(branch.rows):
                    theta = row.theta
                    tid = topology.param_index.get((bi, r, "theta"))
                    if tid is not None:
                        theta += params[tid]
                    rows.append(sk.DhRow(row.name, row.a, row.d, row.alpha, theta))
                for cum in sk.compose_chain(rows):
                    r3 = cum[:3, :3]
                    assert np.max(np.abs(r3.T @ r3 - np.eye(3))) < 1e-9
                    assert abs(np.linalg.det(r3) - 1.0) < 1e-9

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
        # recompute every branch independently; keypoints on shared rows must agree
        rng = RNG(9)
        for _ in range(20):
            params = rng.uniform(-1, 1, 48)
            params[33:] *= 0.02  # keep resolved link lengths non-negative
            by_branch = {}
            for bi, branch in enumerate(topology.branches):
                rows = []
                for r, row in enumerate(branch.rows):
                    a, d, theta = row.a, row.d, row.theta
                    tid = topology.param_index.get((bi, r, "theta"))
                    aid = topology.param_index.get((bi, r, "a"))
                    did = topology.param_index.get((bi, r, "d"))
                    theta += params[tid] if tid is not None else 0.0
                    a += params[aid] if aid is not None else 0.0
                    d += params[did] if did is not None else 0.0
                    rows.append(sk.DhRow(row.name, a, d, row.alpha, theta))
                by_branch[bi] = sk.compose_chain(rows)
            for bi, branch in enumerate(topology.branches[1:], start=1):
                p = branch.shared_prefix_len
                for r in range(p):
                    assert np.max(np.abs(by_branch[bi][r] - by_branch[0][r])) < 1e-12


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

    def test_shipped_file_and_loader_share_the_parser(self, tmp_path):
        from importlib import resources
        path = tmp_path / "pose.txt"
        path.write_text(resources.files("dhpose").joinpath("data/rest_pose.txt").read_text())
        assert np.array_equal(sk.load_rest_pose(path), sk.default_rest_pose())

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
