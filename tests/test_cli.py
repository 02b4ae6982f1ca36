import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dhpose import cli
from dhpose import dataset as dsio
from dhpose import skeleton as sk
from oracles import skeleton_video_ref
from test_constraints import DAMAGED_TABLES, damaged_table
from test_dataset_io import move_behind_the_camera


def run(capsys, *argv):
    code = cli.run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFk:
    def test_zero_params_print_the_rest_pose(self, capsys, shipped_rest_pose):
        code, out, _ = run(capsys, "fk")
        assert code == 0
        for line, kp in zip(out.strip().splitlines(), range(16)):
            tok = line.split()
            assert tok[0] == "keypoint" and int(tok[1]) == kp
            assert np.allclose([float(t) for t in tok[3:6]], shipped_rest_pose[kp], atol=1e-9)

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


@pytest.mark.parametrize("command, option, spec", [
    ("fk", "--transform", "0,0,0,0,0,4"),
    ("project", "--camera", "1145,1145,512,512,0.1"),
], ids=["fk", "project"])
@pytest.mark.parametrize("last, says", [
    ("1_0", "bad float '1_0' in field {n}"),
    ("\u0669", "bad float '\u0669' in field {n}"),  # ARABIC-INDIC DIGIT NINE
    ("nan", "non-finite value 'nan' in field {n}"),
    (None, "expected {n} fields, got {m}"),
], ids=["underscore", "non-ascii-digit", "nan", "count"])
def test_option_numbers_follow_the_file_number_rule(capsys, tmp_path, command, option, spec,
                                                    last, says):
    pose_file = tmp_path / "pose.txt"
    pose_file.write_text(run(capsys, "fk", "--transform", "0,0,0,0,0,4")[1])
    values = spec.split(",")
    n = len(values)
    bad = ",".join(values[:-1] + ([last] if last else []))
    argv = [command, option, bad] + (["--pose", str(pose_file)] if command == "project" else [])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {option}: parse error: {says.format(n=n, m=n - 1)}\n"


class TestSynthAndFeatures:
    def test_synth_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        code1, _, _ = run(capsys, "synth", "--count", "200", "--seed", "7", "--out", str(a))
        code2, _, _ = run(capsys, "synth", "--count", "200", "--seed", "7", "--out", str(b))
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()

    def test_features_of_a_one_frame_sequence_are_its_frame_streams(self, capsys, tmp_path):
        data = tmp_path / "d.txt"
        run(capsys, "synth", "--count", "3", "--seed", "3", "--out", str(data))
        code, out, _ = run(capsys, "features", "--data", str(data), "--sequence", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "frames 1 pairs 14"
        assert [line.split()[0] for line in lines[2:]] == ["x3d", "xcos", "x2d"]

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

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_keypoint_behind_the_camera_is_a_data_error(self, capsys, tmp_path, fmt):
        data = tmp_path / f"d.{fmt}"
        code, _, _ = run(capsys, "synth", "--count", "300", "--seed", "3", "--out", str(data),
                         "--format", fmt)
        assert code == 0
        where = move_behind_the_camera(data, fmt, 137)
        says = ("line {}: keypoint 0 z '-50' in field 11 is below z_min '0.1'" if fmt == "text"
                else "byte {}: record 137: keypoint 0 z -50 in field 11 is below z_min 0.1")
        for argv in (("features", "--data", str(data), "--sequence", "137"),
                     ("train", "--data", str(data), "--epochs", "1", "--batch", "2",
                      "--out", str(tmp_path / "run"))):
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert err.startswith(f"error: {data}: parse error at {says.format(where)}")

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
        assert json.loads(meta["blas_threads"].fields("meta", "blas_threads", str)[2]) == expected
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

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    @pytest.mark.parametrize("argv", [("features", "--sequence", "0"),
                                      ("train", "--epochs", "1", "--batch", "4", "--out", "run")],
                             ids=["features", "train"])
    def test_data_of_another_topology_warns(self, capsys, tmp_path, monkeypatch, argv, fmt):
        # a corpus written under the shipped topology, read under one whose
        # spine_pitch rows read a = 0.3
        monkeypatch.chdir(tmp_path)
        dsio.save_dataset(dsio.rows_of(dsio.make_band_corpus(8, 2)), "d.txt", fmt=fmt)
        text = sk.topology_to_text(sk.default_topology())
        Path("topo.txt").write_text(text.replace(" spine_pitch 0.25 ", " spine_pitch 0.3 "))
        says = "d.txt: dataset topology 6395f2e393c2 differs from expected aad3ba2f1e07"
        with pytest.warns(UserWarning, match=f"^{says}$"):
            code, _, _ = run(capsys, *argv, "--data", "d.txt", "--topology", "topo.txt")
        assert code == 0

    @pytest.mark.parametrize("argv", [("features", "--sequence", "0"),
                                      ("train", "--epochs", "1", "--batch", "4", "--out", "run")],
                             ids=["features", "train"])
    def test_data_of_the_run_topology_reads_without_a_warning(self, capsys, tmp_path,
                                                              monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        dsio.save_dataset(dsio.rows_of(dsio.make_band_corpus(8, 2)), "d.txt")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, _ = run(capsys, *argv, "--data", "d.txt")
        assert code == 0

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

    @pytest.mark.parametrize("caller", [{}, {"OMP_NUM_THREADS": "3"}])
    def test_tests_pin_blas_threads_unless_set(self, caller):
        # tests/conftest.py, run on its own: each variable reads "1" unless the
        # caller set it, and nothing has loaded numpy when it sets them
        from dhpose.__main__ import BLAS_THREAD_VARS
        tests = Path(__file__).resolve().parent
        env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tests.parent / "src"),
                                                         env.get("PYTHONPATH")]))
        probe = ("import os, runpy, sys\n"
                 "import dhpose.__main__\n"
                 "print('numpy' in sys.modules)\n"
                 "runpy.run_path(sys.argv[1])\n"
                 "print(*(os.environ[v] for v in dhpose.__main__.BLAS_THREAD_VARS))\n")
        proc = subprocess.run([sys.executable, "-c", probe, str(tests / "conftest.py")],
                              env={**env, **caller}, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        want = [caller.get(var, "1") for var in BLAS_THREAD_VARS]
        assert proc.stdout.split("\n")[:2] == ["False", " ".join(want)]

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
        ('{"epochs": 2.5}', "epochs must be an integer, got 2.5"),
        ('{"critic_steps": true}', "critic_steps must be an integer, got True"),
        ('{"seed": 1.0}', "seed must be an integer, got 1.0"),
        ('{"gen_hidden": [32, true]}', "gen_hidden must be a tuple of positive layer widths"),
        ('{"alpha": NaN}', "alpha must be a finite number, got nan"),
        ('{"lr": Infinity}', "lr must be a finite number, got inf"),
        ('{"bounds": {"lo": [0, 0, 0, 0, 0, NaN]}}', "bounds need finite 'lo' values"),
        ('{"bounds": {"lo": [0, 0, 0, 0, 0, 7]}}', "bounds need lo < hi, got lo 7.0 and hi 6.0 "
                                                   "at index 5"),
        ('{"bounds": {"lo": [0, 0, 0, 0, 0, 6]}}', "bounds need lo < hi, got lo 6.0 and hi 6.0 "
                                                   "at index 5"),
    ])
    def test_malformed_config_is_a_data_error_naming_the_file(self, capsys, tmp_path, text,
                                                              says):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        code, _, err = run(capsys, "train", "--config", str(path), "--out", str(tmp_path / "run"))
        assert code == 2
        assert err.startswith(f"error: {path}: bad training config: ") and says in err
        assert not (tmp_path / "run").exists()

    @pytest.fixture
    def diverging(self, monkeypatch):
        """Training states whose frame critic head has NaN weights."""
        from dhpose import gan
        init = gan.init_train_state

        def diverging_state(*args, **kwargs):
            state = init(*args, **kwargs)
            state.critics["frame"].nets["head"].layers[0].w[:] = np.nan
            return state

        monkeypatch.setattr(gan, "init_train_state", diverging_state)

    def test_divergence_is_a_data_error(self, capsys, tmp_path, diverging):
        out_dir = tmp_path / "run"
        code, _, err = run(capsys, "train", "--band-count", "8", "--epochs", "1",
                           "--batch", "4", "--out", str(out_dir), "--seed", "1")
        assert code == 2
        assert err.startswith("error: non-finite critic loss")
        assert "Traceback" not in err
        assert json.loads((out_dir / "diverged.json").read_text())["what"] == "critic loss"

    def test_divergence_without_out_writes_to_the_working_directory(self, capsys, tmp_path,
                                                                     monkeypatch, diverging):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "train", "--band-count", "8", "--epochs", "1", "--batch", "4",
                         "--seed", "1")
        assert code == 2
        assert json.loads((tmp_path / "diverged.json").read_text())["what"] == "critic loss"


    def test_near_plane_in_the_critic_batch_writes_diverged_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"  # every generated pose sits within 0.5 m of the camera
        cfg.write_text(json.dumps({"gen_hidden": [8], "bounds": {
            "lo": [-3, -3, -3, -2, -1, 0], "hi": [3, 3, 3, 2, 1, 0.5]}}))
        out_dir = tmp_path / "run"
        code, _, err = run(capsys, "train", "--config", str(cfg), "--band-count", "8",
                           "--out", str(out_dir))
        assert code == 2
        assert err.startswith("error: generated joint in front of the near plane")
        snapshot = json.loads((out_dir / "diverged.json").read_text())
        assert snapshot["min_depth"] < snapshot["z_min"]


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


    def test_synth_keeps_the_trained_bounds(self, capsys, tmp_path):
        # the config's bounds put the root near (0.5, 0.5, 8.0): so must the checkpoint
        from dhpose import gan
        lo, hi = (-0.1, -0.1, -0.1, 0.49, 0.49, 7.99), (0.1, 0.1, 0.1, 0.51, 0.51, 8.01)
        cfg = gan.TrainConfig(mode="single", epochs=1, beta_epoch=1, seed=3, batch_size=8,
                              critic_steps=1, gen_hidden=(16,), enc_hidden=(8,),
                              head_hidden=(4,), bounds=gan.GlobalBounds(lo, hi))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "train", "--config", str(cfg_path), "--band-count", "16",
                         "--out", str(out_dir))
        assert code == 0
        data = tmp_path / "from_ckpt.txt"
        code, _, _ = run(capsys, "synth", "--count", "50", "--seed", "9",
                         "--out", str(data), "--checkpoint", str(out_dir / "gen.ckpt"))
        assert code == 0
        for path in (out_dir / "epoch_000.txt", data):
            roots = dsio.load_dataset(path).columns()[1][:, sk.ROOT_KEYPOINT]
            assert np.all((roots >= lo[3:]) & (roots <= hi[3:])), path

    def test_synth_refuses_a_table_the_generator_was_not_trained_with(self, capsys, tmp_path):
        from dhpose import constraints as ct
        default = ct.table_to_text(ct.default_constraint_table())
        tight = tmp_path / "tight.txt"
        tight.write_text(default.replace("spine_len length -0.05 0.05", "spine_len length 0 0.01"))
        assert tight.read_text() != default
        out_dir = tmp_path / "run"
        code, _, _ = run(capsys, "train", "--constraints", str(tight), "--band-count", "8",
                         "--epochs", "1", "--batch", "4", "--out", str(out_dir), "--seed", "6")
        assert code == 0
        ckpt, data = str(out_dir / "gen.ckpt"), str(tmp_path / "d.txt")
        code, _, err = run(capsys, "synth", "--count", "5", "--out", data, "--checkpoint", ckpt)
        assert code == 2
        hashes = [ct.table_hash(ct.load_constraint_table(tight)),
                  ct.table_hash(ct.default_constraint_table())]
        assert f"trained against constraints {hashes[0]}, not {hashes[1]}" in err
        code, out, _ = run(capsys, "synth", "--count", "5", "--out", data, "--checkpoint", ckpt,
                           "--constraints", str(tight))
        assert code == 0 and "(0 violations" in out

    def test_truncated_checkpoint_is_a_data_error(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        run(capsys, "train", "--band-count", "8", "--epochs", "1", "--batch", "4",
            "--out", str(out_dir), "--seed", "6")
        ckpt = out_dir / "gen.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-100])
        code, _, err = run(capsys, "synth", "--count", "5", "--seed", "9",
                           "--out", str(tmp_path / "d.txt"), "--checkpoint", str(ckpt))
        assert code == 2
        assert "parse error at line 14: binary payload truncated" in err

    def test_unreachable_near_plane_is_a_data_error(self, capsys, tmp_path):
        from dhpose import gan
        bounds = gan.GlobalBounds((-3, -3, -3, -2, -1, 0), (3, 3, 3, 2, 1, 0.05))
        ckpt = tmp_path / "gen.ckpt"
        gan.save_generator(gan.build_generator(gan.TrainConfig(gen_hidden=(8,), bounds=bounds),
                                               np.random.default_rng(0)), ckpt, seed=0)
        code, _, err = run(capsys, "synth", "--count", "4", "--out", str(tmp_path / "d.txt"),
                           "--checkpoint", str(ckpt))
        assert code == 2
        assert err.startswith("error: no sample cleared the near plane")
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit,says", [
        ((b"net gen ", b"net foo "), "holds no generator net 'gen' (nets: foo)"),
        ((b"meta mode single", b"meta mode bogus"), "must be 'single' or 'video', got 'bogus'"),
        ((b"128 8 tanh", b"128 8 relu"), "line 10: unknown activation 'relu'"),
        ((b"layer gen 1 8 54", b"layer gen 1 999 54"),
         "line 11: layer 1 of net 'gen' reads 999 values; layer 0 emits 8"),
        ((b"meta bounds ", b"meta bounds 7.5 "), "bounds need 6 'hi' values, got 7"),
        # meta values follow the ASCII-number rule of every text reader
        ((b"meta frames 1", "meta frames \u0669".encode()), "line 4: bad int '\u0669' in field 3"),
        ((b"meta bounds -3.14", b"meta bounds -3_0.5"), "line 8: bad float '-3_0.5"),
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
    def test_writes_the_seed_s_sequence(self, capsys, tmp_path):
        from dhpose import constraints as ct
        from dhpose import gan
        path = tmp_path / "video.txt"
        code, out, _ = run(capsys, "export-video", "--out", str(path), "--frames", "6",
                           "--seed", "4")
        assert code == 0
        gen = cli._untrained_generator(4, "video", 6, sk.default_topology(),
                                       ct.default_constraint_table())
        z = gan.sample_latent(1, gen.net.in_dim, np.random.default_rng(4))
        seq = gan.generate(gen, z).pose3d[0]
        video = skeleton_video_ref(path)
        assert [len(video[k]) for k in ("edge", "frame", "kp")] == [15, 6, 6 * 16]
        assert np.max(np.abs(np.array(video["kp"])[:, 1:].reshape(seq.shape) - seq)) < 1e-9

    def test_single_frame_checkpoint_rejected(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        run(capsys, "train", "--band-count", "8", "--epochs", "1", "--batch", "4",
            "--out", str(out_dir), "--seed", "8")
        code, _, err = run(capsys, "export-video", "--out", str(tmp_path / "v.txt"),
                           "--checkpoint", str(out_dir / "gen.ckpt"))
        assert code == 2
        assert "single-frame" in err


class TestUsageAndSelftest:
    @pytest.mark.parametrize("command", ["bogus", "selftest"])
    def test_unknown_subcommand_exits_1(self, capsys, command):
        code, _, _ = run(capsys, command)
        assert code == 1

    def test_no_subcommand_prints_help(self, capsys):
        code, out, _ = run(capsys)
        assert code == 1
        assert "usage" in out.lower()

    def test_missing_required_flag_exits_1(self, capsys):
        code, _, _ = run(capsys, "synth", "--count", "5")
        assert code == 1

    @pytest.mark.parametrize("argv, says", [
        # an option that another one fixes would be ignored
        *((("train", "--config", "c.json", flag, "9"), f"{flag} cannot be combined with --config")
          for flag in ("--frames", "--epochs", "--batch", "--seed")),
        (("train", "--config", "c.json", "--mode", "video"),
         "--mode cannot be combined with --config, which fixes it"),
        (("train", "--config", "c.json", "--epochs", "3", "--seed", "9", "--mode", "video"),
         "--mode, --epochs, --seed cannot be combined with --config, which fixes them"),
        (("synth", "--checkpoint", "g.ckpt", "--mode", "video", "--count", "3", "--out", "o"),
         "--mode cannot be combined with --checkpoint, which fixes it"),
        (("synth", "--checkpoint", "g.ckpt", "--frames", "9", "--count", "3", "--out", "o"),
         "--frames cannot be combined with --checkpoint"),
        (("export-video", "--checkpoint", "g.ckpt", "--frames", "9", "--out", "o"),
         "--frames cannot be combined with --checkpoint"),
        (("train", "--data", "d.txt", "--band-count", "3", "--epochs", "1", "--batch", "8"),
         "--band-count cannot be combined with --data, which fixes it"),
        # single mode fixes the frame count at 1
        (("synth", "--frames", "5", "--count", "2", "--out", "x.txt"),
         "--frames: a frame count (5) needs video mode: single mode has 1 frame"),
        (("train", "--mode", "single", "--frames", "5", "--band-count", "8", "--epochs", "1"),
         "--frames: a frame count (5) needs video mode"),
        # an option that the subcommand does not read
        (("fk", "--config", "c.json"), "unrecognized arguments: --config"),
        (("fk", "--constraints", "t.txt"), "unrecognized arguments: --constraints"),
        (("fk", "--seed", "1"), "unrecognized arguments: --seed"),
        (("validate", "--params", "p.txt", "--seed", "1"), "unrecognized arguments: --seed"),
        (("project", "--pose", "p.txt", "--topology", "t.txt"),
         "unrecognized arguments: --topology"),
        (("features", "--data", "d.txt", "--constraints", "t.txt"),
         "unrecognized arguments: --constraints"),
        (("synth", "--count", "3", "--out", "o", "--config", "c.json"),
         "unrecognized arguments: --config"),
        (("export-video", "--out", "o", "--config", "c.json"), "unrecognized arguments: --config"),
    ])
    def test_no_option_is_accepted_and_ignored(self, capsys, tmp_path, monkeypatch, argv, says):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert f"error: {says}" in err
        assert out == "" and list(tmp_path.iterdir()) == []

    def test_help_names_exactly_the_subcommands(self):
        # the module docstring is the text ``dhpose --help`` prints
        named = re.search(r"Subcommands: ([^.]*)\.", cli.__doc__).group(1)
        parsed = re.search(r"\{(.*?)\}", cli.build_parser().format_usage()).group(1)
        assert sorted(named.replace(",", " ").split()) == sorted(parsed.split(","))

    def test_custom_topology_flag(self, capsys, tmp_path, topology):
        topo_file = tmp_path / "topo.txt"
        topo_file.write_text(sk.topology_to_text(topology))
        code, out, _ = run(capsys, "fk", "--topology", str(topo_file))
        assert code == 0
        assert out.count("keypoint") == 16
