import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dhpose import cli
from dhpose import dataset as dsio
from dhpose import skeleton as sk
from test_constraints import DAMAGED_TABLES, damaged_table


def run(capsys, *argv):
    code = cli.run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFk:
    def test_zero_params_print_the_rest_pose(self, capsys, topology):
        code, out, _ = run(capsys, "fk")
        assert code == 0
        ref = sk.default_rest_pose()
        for line, kp in zip(out.strip().splitlines(), range(16)):
            tok = line.split()
            assert tok[0] == "keypoint" and int(tok[1]) == kp
            assert np.allclose([float(t) for t in tok[3:6]], ref[kp], atol=1e-9)

    def test_params_file_in_degrees(self, capsys, tmp_path):
        path = tmp_path / "params.txt"
        values = ["0"] * 48
        values[16] = "-90"  # left knee flexion, degrees
        path.write_text(" ".join(values) + "\n")
        code, out, _ = run(capsys, "fk", "--params", str(path))
        assert code == 0
        ankle = [float(t) for t in out.strip().splitlines()[6].split()[3:6]]
        expected = np.zeros(48)
        expected[16] = -np.pi / 2
        pose = sk.forward_kinematics(sk.default_topology(), expected,
                                     sk.GlobalTransform.identity())
        assert np.allclose(ankle, pose[6], atol=1e-9)

    def test_transform_flag(self, capsys):
        code, out, _ = run(capsys, "fk", "--transform", "0,0,0,1,2,3")
        assert code == 0
        pelvis = [float(t) for t in out.strip().splitlines()[0].split()[3:6]]
        assert pelvis == [1.0, 2.0, 3.0]

    def test_bad_params_file(self, capsys, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("1 2 3\n")
        code, _, err = run(capsys, "fk", "--params", str(path))
        assert code == 2
        assert "48" in err

    def test_params_file_with_cr_line_ends(self, capsys, tmp_path):
        path = tmp_path / "params.txt"
        path.write_bytes(b"# deltas\r" + b"0 " * 24 + b"\r" + b"0 " * 24 + b"\r")
        code, out, _ = run(capsys, "fk", "--params", str(path))
        assert code == 0
        assert out == run(capsys, "fk")[1]

    def test_params_file_without_values_names_no_line(self, capsys, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("# deltas\n\n")
        code, _, err = run(capsys, "fk", "--params", str(path))
        assert code == 2
        assert err.startswith(f"error: {path}: parse error: expected 48 values, found 0")

    def test_non_numeric_param_names_file_and_line(self, capsys, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("# deltas\n0 0 abc\n")
        code, _, err = run(capsys, "fk", "--params", str(path))
        assert code == 2
        assert err.startswith(f"error: {path}: parse error at line 2: ") and "'abc'" in err


class TestValidate:
    def test_out_of_range_knee_exits_2_and_lists_it(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        values = ["0"] * 48
        values[16] = "30"  # positive knee flexion is outside [-180, 0]
        path.write_text(" ".join(values) + "\n")
        code, out, _ = run(capsys, "validate", "--params", str(path))
        assert code == 2
        assert "l_knee_flex" in out

    def test_non_finite_delta_exits_2(self, capsys, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text(" ".join(["0"] * 47 + ["nan"]) + "\n")
        code, out, err = run(capsys, "validate", "--params", str(path))
        assert code == 2
        assert "ok" not in out
        assert err.startswith(f"error: {path}: parse error at line 1: non-finite value 'nan' "
                              f"in field 48")

    def test_valid_params_exit_0(self, capsys, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text(" ".join(["0"] * 48) + "\n")
        code, out, _ = run(capsys, "validate", "--params", str(path))
        assert code == 0
        assert "ok" in out

    @pytest.mark.parametrize("defect", sorted(DAMAGED_TABLES))
    def test_damaged_constraint_table_exits_2(self, capsys, tmp_path, defect):
        table = tmp_path / "bounds.txt"
        table.write_text(damaged_table(defect))
        params = tmp_path / "zeros.txt"
        params.write_text(" ".join(["0"] * 48) + "\n")
        code, out, err = run(capsys, "validate", "--constraints", str(table),
                             "--params", str(params))
        assert code == 2
        assert "ok" not in out
        assert re.search(re.escape(str(table)) + DAMAGED_TABLES[defect], err)


class TestProject:
    def test_projects_fk_output(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fk", "--transform", "0,0,0,0,0,4")
        pose_file = tmp_path / "pose.txt"
        pose_file.write_text(out)
        code, out2, _ = run(capsys, "project", "--pose", str(pose_file))
        assert code == 0
        lines = out2.strip().splitlines()
        assert len(lines) == 16
        u, v = (float(t) for t in lines[0].split()[2:4])
        assert (u, v) == (512.0, 512.0)  # pelvis on the optical axis

    def test_depth_violation_is_a_data_error(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fk")  # rest pose straddles z=0
        pose_file = tmp_path / "pose.txt"
        pose_file.write_text(out)
        code, _, err = run(capsys, "project", "--pose", str(pose_file))
        assert code == 2
        assert "z_min" in err


    def test_malformed_pose_file_is_a_data_error(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fk", "--transform", "0,0,0,0,0,4")
        good = out.splitlines()
        for name, lines in (("short", good[:3] + [" ".join(good[3].split()[:5])] + good[4:]),
                            ("gap", good[:1] + good[2:]),
                            ("nan", good[:1] + [good[1].rsplit(" ", 1)[0] + " nan"] + good[2:])):
            pose_file = tmp_path / f"{name}.txt"
            pose_file.write_text("\n".join(lines) + "\n")
            code, out, err = run(capsys, "project", "--pose", str(pose_file))
            assert code == 2, name
            assert err.startswith(f"error: {pose_file}: parse error at line ")
            assert "Traceback" not in err
            assert out == ""


class TestSynthAndFeatures:
    def test_synth_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        code1, _, _ = run(capsys, "synth", "--count", "200", "--seed", "7", "--out", str(a))
        code2, _, _ = run(capsys, "synth", "--count", "200", "--seed", "7", "--out", str(b))
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()

    def test_features_dump(self, capsys, tmp_path):
        data = tmp_path / "d.txt"
        run(capsys, "synth", "--count", "20", "--seed", "3", "--out", str(data),
            "--mode", "video", "--frames", "4")
        code, out, _ = run(capsys, "features", "--data", str(data), "--sequence", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["# dhpose critic streams v1", "frames 4 pairs 14"]
        assert [line.split()[:2] for line in lines[2:5]] == [
            ["sum", "diff3d"], ["sum", "cosdiff"], ["sum", "root2d"]]
        assert [line.split()[0] for line in lines[5:]] == (
            ["x3d"] * 4 + ["xcos"] * 4 + ["x2d"] * 4
            + ["seq3d", "diff3d", "cosseq", "cosdiff", "seq2d", "root2d"])
        # the 2D streams are normalized coordinates: the root2d sum telescopes
        # to the root's move between the first and last x2d rows
        x2d = np.array([[float(v) for v in line.split()[2:]] for line in lines[13:17]])
        root_sum = np.array([float(v) for v in lines[4].split()[2:]])
        assert np.allclose(root_sum, x2d[-1, :2] - x2d[0, :2], rtol=0, atol=1e-8)
        assert np.max(np.abs(x2d)) < 2.0

    def test_features_of_a_binary_dataset_equal_its_text_twin(self, capsys, tmp_path):
        dumps = []
        for fmt in ("text", "binary"):
            data = tmp_path / f"d.{fmt}"
            run(capsys, "synth", "--count", "6", "--seed", "3", "--out", str(data),
                "--mode", "video", "--frames", "4", "--format", fmt)
            code, out, err = run(capsys, "features", "--data", str(data), "--sequence", "4")
            assert code == 0, err
            words, numbers = [], []
            for tok in out.split():
                try:
                    numbers.append(float(tok))
                except ValueError:
                    words.append(tok)
            dumps.append((words, np.array(numbers)))
        (text_words, text), (binary_words, binary) = dumps
        assert text_words == binary_words and text.shape == binary.shape
        # the binary file stores float32 (relative rounding 6e-8); differences
        # and cosines of nearby values amplify it, to about 2e-6 here
        np.testing.assert_allclose(binary, text, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("argv", [
        ("synth", "--mode", "video", "--frames", "0", "--count", "3", "--out"),
        ("synth", "--mode", "video", "--frames", "1", "--count", "3", "--out"),
        ("export-video", "--frames", "1", "--out"),
    ])
    def test_video_needs_two_frames(self, capsys, tmp_path, argv):
        out = tmp_path / "out.txt"
        code, _, err = run(capsys, *argv, str(out))
        assert code == 2
        frames = argv[argv.index("--frames") + 1]
        assert err.startswith(f"error: video mode needs at least 2 frames, got {frames}")
        assert not out.exists()

    def test_missing_sequence_is_a_data_error(self, capsys, tmp_path):
        data = tmp_path / "d.txt"
        run(capsys, "synth", "--count", "5", "--seed", "3", "--out", str(data))
        code, _, err = run(capsys, "features", "--data", str(data), "--sequence", "99")
        assert code == 2


class TestTrain:
    def test_smoke_train_writes_metrics_and_checkpoint(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, out, _ = run(capsys, "train", "--band-count", "24", "--epochs", "2",
                           "--batch", "8", "--out", str(out_dir), "--seed", "1")
        assert code == 0
        metrics = [json.loads(line) for line in
                   (out_dir / "metrics.jsonl").read_text().splitlines()]
        assert [m["epoch"] for m in metrics] == [0, 1]
        assert all(m["violations"] == 0 for m in metrics)
        assert (out_dir / "gen.ckpt").exists()
        assert (out_dir / "epoch_000.txt").exists()
        assert len(dsio.load_dataset(out_dir / "epoch_000.txt")) == 24

    def test_metrics_and_checkpoint_record_the_blas_threads(self, capsys, tmp_path,
                                                            monkeypatch):
        from dhpose import gan, nn
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        expected = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None}
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "train", "--band-count", "8", "--epochs", "2",
                         "--batch", "4", "--out", str(out_dir), "--seed", "1")
        assert code == 0
        metrics = [json.loads(line) for line in
                   (out_dir / "metrics.jsonl").read_text().splitlines()]
        assert [m["blas_threads"] for m in metrics] == [expected, expected]
        _, _, meta = nn.load_checkpoint(out_dir / "gen.ckpt")
        assert json.loads(meta["blas_threads"]) == expected
        gen = gan.load_generator(out_dir / "gen.ckpt")
        assert gen.mode == "single"

    def test_train_from_config_and_data(self, capsys, tmp_path):
        self._train_from(capsys, tmp_path, "text")

    def test_train_from_binary_data(self, capsys, tmp_path):
        self._train_from(capsys, tmp_path, "binary")

    def _train_from(self, capsys, tmp_path, fmt):
        from dhpose import gan
        data = tmp_path / "data"
        dsio.save_dataset(dsio.rows_of(dsio.make_band_corpus(16, 2)), data, fmt=fmt)
        cfg = gan.TrainConfig(mode="single", epochs=1, beta_epoch=1, seed=2, batch_size=8,
                              critic_steps=1, gen_hidden=(16,), enc_hidden=(8,),
                              head_hidden=(4,))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out_dir = tmp_path / "run2"
        code, _, _ = run(capsys, "train", "--config", str(cfg_path),
                         "--data", str(data), "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "metrics.jsonl").exists()

    def test_undecodable_data_is_a_data_error(self, capsys, tmp_path):
        data = tmp_path / "damaged.bin"
        dsio.save_dataset(dsio.rows_of(dsio.make_band_corpus(4, 2)), data, fmt="binary")
        data.write_bytes(data.read_bytes().replace(b"binary 4 88", b"binray 4 88", 1))
        code, _, err = run(capsys, "train", "--data", str(data), "--epochs", "1",
                           "--batch", "2", "--out", str(tmp_path / "run"))
        assert code == 2
        assert err.startswith("error: ") and "not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [(3, "-1145"), (4, "0"), (7, "-0.5")])
    def test_non_positive_camera_is_a_data_error(self, capsys, tmp_path, field, value):
        data = tmp_path / "data.txt"
        dsio.save_dataset(dsio.rows_of(dsio.make_band_corpus(4, 2)), data)
        lines = data.read_text().splitlines()
        tok = lines[2].split()
        tok[field] = value
        lines[2] = " ".join(tok)
        data.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "train", "--data", str(data), "--epochs", "1",
                           "--batch", "2", "--out", str(tmp_path / "run"))
        assert code == 2
        assert err.startswith(f"error: {data}: parse error at line 3: non-positive ")
        assert f"'{value}' in field {field + 1}" in err

    def test_command_pins_blas_threads_unless_set(self, monkeypatch):
        from dhpose import __main__ as entry
        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append(dict(os.environ)))
        for var in entry.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        entry.main()
        assert len(calls) == 1
        assert calls[0]["OPENBLAS_NUM_THREADS"] == "1"
        assert calls[0]["MKL_NUM_THREADS"] == "1"
        assert calls[0]["OMP_NUM_THREADS"] == "3"

    def test_same_digest_with_blas_threads_unset_or_pinned(self, tmp_path):
        # the dhpose command pins BLAS to one thread unless told otherwise, so a
        # run's bits do not depend on the machine's core count; on a one-core
        # machine BLAS runs one thread either way and this cannot tell the two apart
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        digests = []
        for name, extra in (("unset", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
            out_dir = tmp_path / name
            subprocess.run([sys.executable, "-m", "dhpose", "train", "--mode", "video",
                            "--frames", "9", "--band-count", "256", "--batch", "64",
                            "--epochs", "1", "--seed", "11", "--out", str(out_dir)],
                           env={**env, **extra}, check=True, capture_output=True, timeout=300)
            digests.append(hashlib.sha256((out_dir / "epoch_000.txt").read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("text,says", [
        ('{"epochz": 2}', "'epochz'"),
        ('{"gen_hidden": 5}', "gen_hidden must be a tuple of positive layer widths, got 5"),
        ('[{"epochs": 2}]', "expected a JSON object, got list"),
        ('{"bounds": {"lo": [0]}}', "bounds need 6 'lo' values, got 1"),
        ('{"enc_hidden": []}', "enc_hidden needs at least one layer"),
    ])
    def test_malformed_config_is_a_data_error_naming_the_file(self, capsys, tmp_path, text,
                                                              says):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, _, err = run(capsys, "train", "--config", str(path), "--out", str(tmp_path / "run"))
        assert code == 2
        assert err.startswith(f"error: {path}: bad training config: ") and says in err
        assert not (tmp_path / "run").exists()

    def test_divergence_is_a_data_error(self, capsys, tmp_path, monkeypatch):
        from dhpose import gan
        init = gan.init_train_state

        def diverging_state(*args, **kwargs):
            state = init(*args, **kwargs)
            state.ds.head.layers[0].w[:] = np.nan
            return state

        monkeypatch.setattr(gan, "init_train_state", diverging_state)
        out_dir = tmp_path / "run"
        code, _, err = run(capsys, "train", "--band-count", "8", "--epochs", "1",
                           "--batch", "4", "--out", str(out_dir), "--seed", "1")
        assert code == 2
        assert err.startswith("error: non-finite critic loss")
        assert "Traceback" not in err
        assert json.loads((out_dir / "diverged.json").read_text())["what"] == "critic loss"


class TestSynthFromCheckpoint:
    def test_synth_uses_the_trained_generator(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "train", "--band-count", "16", "--epochs", "1",
                         "--batch", "8", "--out", str(out_dir), "--seed", "6")
        assert code == 0
        data = tmp_path / "from_ckpt.txt"
        code, _, _ = run(capsys, "synth", "--count", "50", "--seed", "9",
                         "--out", str(data), "--checkpoint", str(out_dir / "gen.ckpt"))
        assert code == 0
        assert len(dsio.load_dataset(data)) == 50
        # a fresh untrained generator with the same seed gives different poses
        other = tmp_path / "untrained.txt"
        run(capsys, "synth", "--count", "50", "--seed", "9", "--out", str(other))
        assert data.read_bytes() != other.read_bytes()


    def test_truncated_checkpoint_is_a_data_error(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        run(capsys, "train", "--band-count", "8", "--epochs", "1", "--batch", "4",
            "--out", str(out_dir), "--seed", "6")
        ckpt = out_dir / "gen.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-100])
        code, _, err = run(capsys, "synth", "--count", "5", "--seed", "9",
                           "--out", str(tmp_path / "d.txt"), "--checkpoint", str(ckpt))
        assert code == 2
        assert "checkpoint blob truncated" in err


    @pytest.mark.parametrize("edit,says", [
        ((b"net gen ", b"net foo "), "holds no generator net 'gen' (nets: foo)"),
        ((b"meta mode single", b"meta mode bogus"), "must be 'single' or 'video', got 'bogus'"),
        ((b"128 8 tanh", b"128 8 relu"), "line 7: unknown activation 'relu'"),
        ((b"layer gen 1 8 54", b"layer gen 1 999 54"), "line 9: the layer lines need"),
    ])
    def test_malformed_checkpoint_is_a_data_error_naming_the_file(self, capsys, tmp_path, edit,
                                                                  says):
        from dhpose import gan
        ckpt = tmp_path / "gen.ckpt"
        gan.save_generator(gan.build_generator(gan.TrainConfig(gen_hidden=(8,)),
                                               np.random.default_rng(0)), ckpt, seed=0)
        text = ckpt.read_bytes()
        if edit[0] == b"net gen ":  # the net's layer lines name it too
            text = text.replace(b"layer gen ", b"layer foo ")
        ckpt.write_bytes(text.replace(*edit))
        out = tmp_path / "d.txt"
        code, _, err = run(capsys, "synth", "--count", "4", "--seed", "9", "--out", str(out),
                           "--checkpoint", str(ckpt))
        assert code == 2
        assert err.startswith(f"error: {ckpt}: ") and says in err
        assert not out.exists()


class TestExportVideo:
    def test_writes_a_loadable_video(self, capsys, tmp_path):
        path = tmp_path / "video.txt"
        code, out, _ = run(capsys, "export-video", "--out", str(path), "--frames", "6",
                           "--seed", "4")
        assert code == 0
        frames, edges = dsio.load_skeleton_video(path)
        assert frames.shape == (6, 16, 3)
        assert len(edges) == 15

    def test_single_frame_checkpoint_rejected(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        run(capsys, "train", "--band-count", "8", "--epochs", "1", "--batch", "4",
            "--out", str(out_dir), "--seed", "8")
        code, _, err = run(capsys, "export-video", "--out", str(tmp_path / "v.txt"),
                           "--checkpoint", str(out_dir / "gen.ckpt"))
        assert code == 2
        assert "single-frame" in err


class TestUsageAndSelftest:
    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, err = run(capsys, "bogus")
        assert code == 1

    def test_no_subcommand_prints_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 1
        assert "usage" in out.lower()

    def test_missing_required_flag_exits_1(self, capsys):
        code, _, _ = run(capsys, "synth", "--count", "5")
        assert code == 1

    def test_selftest_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("ok - ") == 7

    def test_custom_topology_flag(self, capsys, tmp_path, topology):
        topo_file = tmp_path / "topo.txt"
        topo_file.write_text(sk.topology_to_text(topology))
        code, out, _ = run(capsys, "fk", "--topology", str(topo_file))
        assert code == 0
        assert out.count("keypoint") == 16
