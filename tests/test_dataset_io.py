import dataclasses
import hashlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhpose import dataset as dsio
from dhpose import gan
from dhpose import skeleton as sk
from dhpose.camera import CameraIntrinsics, default_camera, project_pose
from dhpose.features import joint_cosines
from dhpose.textio import ParseError
from oracles import group_sequences_ref, record_line_ref, skeleton_video_ref

RNG = np.random.default_rng


def random_rows(n, seed=0, provenance="synthetic"):
    pose3d = RNG(seed).normal(0, 0.5, (n, 16, 3)) + [0, 0, 4.0]
    cam = default_camera()
    data = dsio.RealData(pose3d, project_pose(pose3d, cam), np.tile(cam.as_array(), (n, 1)))
    return dsio.rows_of(data, provenance)


def tiny_generator(seed=0, mode="single", frames=1):
    cfg = gan.TrainConfig(mode=mode, frames=frames, seed=seed, epochs=2, beta_epoch=2,
                          gen_hidden=(32, 32), enc_hidden=(16,), head_hidden=(8,))
    return gan.build_generator(cfg, RNG(seed))


class TestRoundTrip:
    def test_text_round_trip_1000_records(self, tmp_path):
        rows = random_rows(1000, seed=1)
        path = tmp_path / "data.txt"
        dsio.save_dataset(rows, path)
        loaded = dsio.load_dataset(path)
        assert len(loaded) == 1000
        assert np.max(np.abs(rows.values[:, 5:] - loaded.values[:, 5:])) < 1e-9
        assert np.array_equal(rows.values[:, :5], loaded.values[:, :5])
        for name in ("sequence_id", "frame_index", "provenance"):
            assert np.array_equal(getattr(rows, name), getattr(loaded, name)), name

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.txt"
        dsio.save_dataset(random_rows(0), path)
        assert path.read_text().startswith("# dhpose dataset v1 topology=")
        assert len(dsio.load_dataset(path)) == 0

    def test_binary_round_trip(self, tmp_path):
        rows = random_rows(64, seed=2)
        path = tmp_path / "data.bin"
        dsio.save_dataset(rows, path, fmt="binary")
        loaded = dsio.load_dataset(path)
        assert len(loaded) == 64
        # float32 storage
        assert np.max(np.abs(rows.values[:, 5:53] - loaded.values[:, 5:53])) < 1e-5

    def test_corrupt_line_names_line_number(self, tmp_path):
        rows = random_rows(10, seed=3)
        path = tmp_path / "data.txt"
        dsio.save_dataset(rows, path)
        lines = path.read_text().splitlines()
        lines[6] = lines[6] + " 999"  # line 7 of the file (header is line 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 7"):
            dsio.load_dataset(path)
        try:
            dsio.load_dataset(path)
        except ParseError as exc:
            assert exc.line_no == 7

    def test_topology_hash_mismatch_warns(self, tmp_path, topology):
        path = tmp_path / "data.txt"
        dsio.save_dataset(random_rows(3, seed=4), path)
        text = path.read_text().replace(sk.topology_hash(topology), "000000000000")
        path.write_text(text)
        with pytest.warns(UserWarning, match="topology"):
            dsio.load_dataset(path, topology)

    def test_topology_check_is_opt_in(self, tmp_path, topology):
        # a caller that passes no topology, as the path-only reload does, gets no warning
        path = tmp_path / "data.txt"
        dsio.save_dataset(random_rows(3, seed=4), path)
        path.write_text(path.read_text().replace(sk.topology_hash(topology), "000000000000"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dsio.real_data_from_dataset(path)
        with pytest.warns(UserWarning, match="000000000000 differs from expected"):
            dsio.real_data_from_dataset(path, topology=topology)

    def test_missing_header_is_a_parse_error(self, tmp_path):
        path = tmp_path / "nohdr.txt"
        path.write_text("synthetic 0 0 1 1 0 0 0.1" + " 0" * 80 + "\n")
        with pytest.raises(ParseError, match="line 1"):
            dsio.load_dataset(path)


def rows_with_values(values, cam=None, float32=False):
    """One row per line of 80 pose reals (48 pose3d, then 32 pose2d), packed
    by ``rows_of`` from float32 or float64 poses; frame indices and
    provenance vary from row to row."""
    values = np.asarray(values, dtype=np.float32 if float32 else np.float64)
    n = len(values)
    cams = np.tile((cam or default_camera()).as_array(), (n, 1))
    rows = dsio.rows_of(dsio.RealData(values[:, :48].reshape(n, 16, 3),
                                      values[:, 48:].reshape(n, 16, 2), cams))
    i = np.arange(n)
    return dataclasses.replace(rows, provenance=(i % 2).astype(np.int8), frame_index=i % 3)


def reference_text(rows):
    header = f"# dhpose dataset v1 topology={sk.topology_hash(sk.default_topology())}\n"
    return header + "".join(record_line_ref(*row) + "\n" for row in
                            zip(rows.provenance, rows.sequence_id, rows.frame_index, rows.values))


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1 + 0.2, 1.0, -7.0, 3.0, 1e15, 123456789012345.0,
               2.0 ** 53, 1.2345678901234, 1.2345678901235, 0.12345678901234,
               0.12345678901235, 9.99999999999995, 9.99999999999994, 1e-5, 1e16, -1e-300,
               1.0000000000001, 1.00000000000012]


class TestTextFormat:
    """The writer's bytes equal a per-value reference formatter."""

    def test_random_rows_match_reference(self, tmp_path):
        rng = RNG(30)
        rows = dsio.RowBlock.concat([rows_with_values(rng.normal(0, 1, (300, 80))
                                                      * 10.0 ** rng.integers(-9, 9, (300, 1))),
                                     random_rows(50, seed=31)])
        path = tmp_path / "r.txt"
        dsio.save_dataset(rows, path)
        assert path.read_text() == reference_text(rows)

    def test_edge_values_match_reference(self, tmp_path):
        values = np.resize(np.array(EDGE_VALUES), (4, 80))
        values[1] = np.roll(values[1], 7)
        values[2:] *= -1
        rows = rows_with_values(values, cam=CameraIntrinsics(1e308, 5e-324, -0.0, 0.1 + 0.2, 1e-300))
        path = tmp_path / "e.txt"
        dsio.save_dataset(rows, path)
        assert path.read_text() == reference_text(rows)

    def test_float32_inputs_match_reference(self, tmp_path):
        edges = [v for v in EDGE_VALUES if abs(v) < 1e38]
        values = np.concatenate([np.resize(np.array(edges), 80)[None],
                                 RNG(32).normal(0, 100, (20, 80))])
        rows = rows_with_values(values, float32=True)
        assert np.array_equal(rows.values[:, 5:], values.astype(np.float32))
        path = tmp_path / "f.txt"
        dsio.save_dataset(rows, path)
        assert path.read_text() == reference_text(rows)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                  min_size=80, max_size=80), min_size=1, max_size=3),
           cam=st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                        min_size=5, max_size=5))
    def test_round_trip_is_exact_at_13_digits(self, tmp_path_factory, rows, cam):
        # the reader takes keypoints in front of the near plane only: lift each
        # z to z_min at least
        rows = np.array(rows)
        rows[:, 2:48:3] = np.maximum(rows[:, 2:48:3], cam[4])
        rows = rows.tolist()
        path = tmp_path_factory.getbasetemp() / "roundtrip.txt"
        dsio.save_dataset(rows_with_values(rows, cam=CameraIntrinsics(*cam)), path)
        expected = np.array([[float(f"{v:.13g}") for v in cam + row] for row in rows])
        got = dsio.load_dataset(path).values
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
        data = dsio.real_data_from_dataset(path)
        arrays = np.concatenate([data.cams, data.pose3d.reshape(-1, 48),
                                 data.pose2d.reshape(-1, 32)], axis=1)
        assert arrays.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


class TestTextReader:
    def _write(self, tmp_path, n=6):
        path = tmp_path / "d.txt"
        dsio.save_dataset(random_rows(n, seed=40), path)
        lines = path.read_text().splitlines()
        lines.insert(2, "   ")  # blank lines still count: record i sits on line i + 3 from here
        return path, lines

    @pytest.mark.parametrize("field, value, reason", [
        (0, "robot", "provenance"),
        (1, "1.5", "1.5"),
        (2, "x", "x"),
        (10, "abc", "abc"),
        (3, "nan", "non-finite"),
        (40, "inf", "non-finite"),
        (87, "-inf", "non-finite"),
        (20, "NaN", "non-finite"),
        (3, "-1145", "non-positive fx '-1145' in field 4"),
        (4, "0", "non-positive fy '0' in field 5"),
        (7, "-0.5", "non-positive z_min '-0.5' in field 8"),
    ])
    def test_bad_field_names_its_line(self, tmp_path, field, value, reason):
        path, lines = self._write(tmp_path)
        tok = lines[4].split()
        tok[field] = value
        lines[4] = " ".join(tok)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=f"line 5: .*{reason}") as err:
            dsio.load_dataset(path)
        assert err.value.line_no == 5
        with pytest.raises(ParseError, match="line 5"):
            dsio.real_data_from_dataset(path)

    @pytest.mark.parametrize("header", ["# dhpose dataset", "# dhpose dataset v1", ""])
    def test_short_header_is_a_parse_error(self, tmp_path, header):
        path = tmp_path / "h.txt"
        path.write_text(header + "\n")
        with pytest.raises(ParseError, match="line 1"):
            dsio.load_dataset(path)

    def test_blocks_stream_and_count_lines(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dsio, "_BLOCK_ROWS", 4)
        path, lines = self._write(tmp_path, n=11)
        lines[7:7] = ["", "\t"]
        path.write_text("\n".join(lines) + "\n")
        assert dsio.load_dataset(path).sequence_id.tolist() == list(range(11))
        lines[12] = lines[12] + " 1"  # record 8, after the blank lines
        path.write_text("\n".join(lines) + "\n")
        # blocks of 4 raw lines from line 2: the first two come out before the bad line
        stream = dsio.iter_blocks(path)
        assert [next(stream).sequence_id.tolist() for _ in range(2)] == [[0, 1, 2], [3, 4]]
        with pytest.raises(ParseError, match="line 13: expected 88 fields, got 89"):
            list(stream)


    def test_non_utf8_byte_names_its_line(self, tmp_path):
        path, lines = self._write(tmp_path)
        raw = [line.encode() for line in lines]
        raw[4] = raw[4][:20] + b"\x80" + raw[4][20:]
        path.write_bytes(b"\n".join(raw) + b"\n")
        with pytest.raises(ParseError, match="line 5: not UTF-8 text: byte 0x80 "
                                                         "at column 21") as err:
            dsio.load_dataset(path)
        assert err.value.line_no == 5
        with pytest.raises(ParseError, match="line 5: not UTF-8"):
            dsio.real_data_from_dataset(path)

    def test_binary_file_with_a_damaged_count_line_is_a_parse_error(self, tmp_path):
        # no longer recognised as binary, so read as text: the payload is not UTF-8
        path = tmp_path / "damaged.bin"
        dsio.save_dataset(random_rows(4, seed=44), path, fmt="binary")
        path.write_bytes(path.read_bytes().replace(b"binary 4 88", b"binray 4 88", 1))
        with pytest.raises(ParseError, match=r"damaged\.bin: parse error at "
                                                         r"line \d+: not UTF-8 text"):
            dsio.real_data_from_dataset(path)


class TestVideoGrouping:
    def test_matches_reference_grouping(self, tmp_path):
        rng = RNG(41)
        ids, values = [], []
        for seq, length in enumerate([3, 5, 2, 4, 1, 3, 6]):
            frames = rng.permutation(length)
            if length > 3:
                frames[-1] = frames[0]  # a repeated frame index keeps file order
            for f in frames:
                pose3d = rng.normal(0, 0.5, (16, 3)) + [0, 0, 4.0]
                cam = CameraIntrinsics(fx=1000.0 + 10 * seq + f)
                ids.append((100 - 7 * seq, f))
                values.append(np.concatenate([cam.as_array(), pose3d.ravel(),
                                              project_pose(pose3d, cam).ravel()]))
        order = rng.permutation(len(ids))
        seq_ids, frame_ids = np.array(ids)[order].T
        rows = dsio.RowBlock(np.zeros(len(ids), np.int8), seq_ids, frame_ids,
                             np.array(values)[order])
        path = tmp_path / "v.txt"
        dsio.save_dataset(rows, path)
        data = dsio.real_data_from_dataset(path, frames=3)
        p3, p2, cams = group_sequences_ref(dsio.load_dataset(path), 3)
        assert data.pose3d.shape == (5, 3, 16, 3)
        assert np.array_equal(data.pose3d, p3)
        assert np.array_equal(data.pose2d, p2)
        assert np.array_equal(data.cams, cams)
        with pytest.raises(ValueError, match="no sequences of length 7"):
            dsio.real_data_from_dataset(path, frames=7)
        with pytest.raises(ValueError, match="at least 1 frame, got 0"):
            dsio.real_data_from_dataset(path, frames=0)


class TestTrainingArraysFromBinary:
    @pytest.mark.parametrize("mode, frames", [("single", 1), ("video", 3)])
    def test_binary_equals_float32_rounded_text(self, tmp_path, mode, frames):
        rows = random_rows(60, seed=43, provenance="real")
        if mode == "video":
            i = np.arange(60)
            rows = dataclasses.replace(rows, sequence_id=i // 4, frame_index=3 - i % 4)
        text, binary = tmp_path / "d.txt", tmp_path / "d.bin"
        dsio.save_dataset(rows, text)
        dsio.save_dataset(rows, binary, fmt="binary")
        want = dsio.real_data_from_dataset(text, frames)
        got = dsio.real_data_from_dataset(binary, frames)
        assert got.pose3d.shape == want.pose3d.shape
        for name in ("pose3d", "pose2d", "cams"):
            expected = getattr(want, name).astype(np.float32).astype(np.float64)
            assert np.array_equal(getattr(got, name), expected), name

    def test_truncated_binary_is_a_parse_error_at_line_2(self, tmp_path):
        path = tmp_path / "trunc.bin"
        dsio.save_dataset(random_rows(8, seed=21), path, fmt="binary")
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(ParseError, match="line 2: binary payload truncated"):
            dsio.real_data_from_dataset(path)

    def test_empty_binary_dataset_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        dsio.save_dataset(random_rows(0), path, fmt="binary")
        with pytest.raises(ValueError, match="empty"):
            dsio.real_data_from_dataset(path)


class TestBinaryReader:
    def _write(self, tmp_path, n=8):
        path = tmp_path / "d.bin"
        dsio.save_dataset(random_rows(n, seed=42), path, fmt="binary")
        return path

    @pytest.mark.parametrize("meta", [b"", b"binary", b"binary 8", b"binary x 88",
                                      b"binary 8 87", b"binary -8 88", b"rows 8 88",
                                      "binary \u00b2 88".encode(), "binary \u0668 88".encode()])
    def test_bad_count_line_is_a_parse_error(self, tmp_path, meta):
        path = self._write(tmp_path)
        header, _, rest = path.read_bytes().split(b"\n", 2)
        path.write_bytes(header + b"\n" + meta + b"\n" + rest)
        # without a count line the file is read as text, and its payload is not UTF-8
        says = ("line 2: expected 'binary <count> 88'" if meta.startswith(b"binary")
                else "line 3: not UTF-8 text")
        with pytest.raises(ParseError, match=says):
            dsio.load_dataset(path)

    @pytest.mark.parametrize("field, value, reason", [
        (0, 7.0, "bad provenance 7"),
        (0, 0.5, "bad provenance 0.5"),
        (0, np.nan, "bad provenance nan"),
        (40, np.inf, "non-finite value inf in field 41"),
        (2, np.nan, "non-finite value nan in field 3"),
        (1, 1.5, "sequence id 1.5 in field 2 is not an integer"),
        (2, -7.25, "frame index -7.25 in field 3 is not an integer"),
        (3, -1145.0, "non-positive fx -1145 in field 4"),
        (4, 0.0, "non-positive fy 0 in field 5"),
        (7, -0.5, "non-positive z_min -0.5 in field 8"),
    ])
    def test_bad_record_names_record_and_byte_offset(self, tmp_path, field, value, reason):
        path = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        start = data.index(b"binary 8 88\n") + len(b"binary 8 88\n")
        offset = start + (3 * 88 + field) * 4
        data[offset:offset + 4] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        where = start + 3 * 88 * 4 if field == 0 else offset
        with pytest.raises(ParseError,
                           match=f"byte {where}: record 3: {reason}") as err:
            dsio.load_dataset(path)
        assert err.value.offset == where and err.value.line_no is None


    def test_ids_beyond_float32_integers_are_not_written(self, tmp_path):
        # float32 holds every integer up to 2**24; 2**24 + 1 would read back as 2**24
        rows = random_rows(300)
        rows.sequence_id[256:258] = [2 ** 24, 2 ** 24 + 1]
        text = tmp_path / "d.txt"
        dsio.save_dataset(rows, text)
        assert dsio.load_dataset(text).sequence_id[256:258].tolist() == [2 ** 24, 2 ** 24 + 1]
        path = tmp_path / "d.bin"
        with pytest.raises(ValueError, match="row 257: sequence id 16777217 is beyond 2\\*\\*24"):
            dsio.save_dataset(rows, path, fmt="binary")
        # the first block is written; the block holding the id is not
        head = len(path.read_bytes().split(b"binary 300 88\n")[0]) + len(b"binary 300 88\n")
        assert path.stat().st_size == head + 256 * 88 * 4
        rows.sequence_id[256:258] = 0
        rows.frame_index[3] = -(2 ** 24 + 2)
        with pytest.raises(ValueError, match="row 3: frame index -16777218 is beyond"):
            dsio.save_dataset(rows, path, fmt="binary")


@pytest.mark.parametrize("field, token, value, reason", [
    (0, "robot", 7, "bad provenance {}"),
    (3, "nan", np.nan, "non-finite value {} in field 4"),
    (60, "nan", np.nan, "non-finite value {} in field 61"),
    (3, "-1145", -1145, "non-positive fx {} in field 4"),
    (7, "0", 0, "non-positive z_min {} in field 8"),
    (13, "-50", -50, "keypoint 1 z {} in field 14 is below z_min {}"),
])
def test_both_readers_give_one_reason(tmp_path, field, token, value, reason):
    """The same fault in the same field of the same rows: the formats differ
    only in where it is (a line; a record and its byte offset) and in how a
    field is shown (its token; ``%g``)."""
    rows, record = random_rows(8, seed=44), 5
    text, binary = tmp_path / "d.txt", tmp_path / "d.bin"
    dsio.save_dataset(rows, text)
    lines = text.read_text().splitlines()
    tok = lines[1 + record].split()
    tok[field] = token
    lines[1 + record] = " ".join(tok)
    text.write_text("\n".join(lines) + "\n")
    dsio.save_dataset(rows, binary, fmt="binary")
    data = bytearray(binary.read_bytes())
    offset = data.index(b"binary 8 88\n") + len(b"binary 8 88\n") + (record * 88 + field) * 4
    data[offset:offset + 4] = np.array([value], dtype="<f4").tobytes()
    binary.write_bytes(bytes(data))
    for path, says in ((text, f"line {record + 2}: " + reason.format(repr(token), "'0.1'")),
                       (binary, f"byte {offset}: record {record}: "
                                + reason.format(f"{value:g}", "0.1"))):
        with pytest.raises(ParseError) as err:
            dsio.load_dataset(path)
        assert str(err.value) == f"{path}: parse error at {says}"


def move_behind_the_camera(path, fmt, record, keypoint=0, z="-50", u="12345"):
    """Edit record ``record`` of a dataset file in place: keypoint ``keypoint``
    to depth ``z`` and pixel column ``u`` (text tokens, stored as float32 in
    binary).  Returns the edited line (text) or the z field's byte offset
    (binary)."""
    z_field, u_field = 3 + 5 + 3 * keypoint + 2, 3 + 53 + 2 * keypoint
    data = bytearray(path.read_bytes())
    if fmt == "text":
        lines = data.decode().split("\n")
        tok = lines[record + 1].split()
        tok[z_field], tok[u_field] = z, u
        lines[record + 1] = " ".join(tok)
        path.write_text("\n".join(lines))
        return record + 2
    start = data.index(b"\n", data.index(b"\nbinary ") + 1) + 1
    offset = start + (record * 88 + z_field) * 4
    for field, value in ((z_field, z), (u_field, u)):
        at = start + (record * 88 + field) * 4
        data[at:at + 4] = np.array([float(value)], dtype="<f4").tobytes()
    path.write_bytes(bytes(data))
    return offset


class TestDepthCheck:
    """A keypoint whose z is below its row's z_min is a parse error."""

    @pytest.fixture(scope="class")
    def synthesized(self, tmp_path_factory):
        # 300 records per format, as ``dhpose synth`` writes them
        gen = tiny_generator(seed=8)
        paths = {}
        for fmt in ("text", "binary"):
            paths[fmt] = tmp_path_factory.mktemp("depth") / f"d.{fmt}"
            dsio.synthesize_dataset(gen, 300, "single", 9, paths[fmt], fmt=fmt)
        return paths

    def test_synthesized_files_load(self, synthesized):
        for path in synthesized.values():
            assert len(dsio.load_dataset(path)) == 300

    @pytest.mark.parametrize("keypoint, z, says", [(0, "-50", "'-50'"),
                                                   (15, "0.0999999", "'0.0999999'")])
    def test_text_row_names_its_line(self, synthesized, tmp_path, keypoint, z, says):
        path = tmp_path / "d.txt"
        path.write_bytes(synthesized["text"].read_bytes())
        line = move_behind_the_camera(path, "text", 137, keypoint, z)
        field = 3 + 5 + 3 * keypoint + 3
        with pytest.raises(ParseError, match=f"line {line}: keypoint {keypoint} z {says} in "
                                             f"field {field} is below z_min '0.1'") as err:
            dsio.load_dataset(path)
        assert err.value.line_no == line == 139

    @pytest.mark.parametrize("keypoint, z, says", [(0, "-50", "-50"),
                                                   (15, "0.0999999", "0.0999999")])
    def test_binary_record_names_its_byte_offset(self, synthesized, tmp_path, keypoint, z,
                                                 says):
        path = tmp_path / "d.bin"
        path.write_bytes(synthesized["binary"].read_bytes())
        offset = move_behind_the_camera(path, "binary", 137, keypoint, z)
        field = 3 + 5 + 3 * keypoint + 3
        with pytest.raises(ParseError, match=f"byte {offset}: record 137: keypoint {keypoint} "
                                             f"z {says} in field {field} is below z_min 0.1"
                           ) as err:
            dsio.load_dataset(path)
        assert err.value.offset == offset and err.value.line_no is None


class TestSynthesis:
    def test_deterministic_bitwise(self, tmp_path):
        gen = tiny_generator(seed=5)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        s1 = dsio.synthesize_dataset(gen, 500, "single", 7, p1)
        s2 = dsio.synthesize_dataset(gen, 500, "single", 7, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert s1.records == s2.records == 500
        assert s1.violations == 0

    def test_records_validate_and_project_consistently(self, tmp_path, table, topology):
        gen = tiny_generator(seed=6)
        path = tmp_path / "c.txt"
        dsio.synthesize_dataset(gen, 300, "single", 8, path)
        rows = dsio.load_dataset(path, topology)
        cams, pose3d, pose2d = rows.columns()
        assert np.all(cams == gen.camera.as_array())
        assert np.max(np.abs(project_pose(pose3d, gen.camera) - pose2d)) < 1e-6
        assert np.all(rows.provenance == dsio._PROVENANCES.index("synthetic"))
        assert len(rows) == 300

    def test_video_sequences_keep_bone_lengths(self, tmp_path, topology):
        gen = tiny_generator(seed=7, mode="video", frames=9)
        path = tmp_path / "v.txt"
        summary = dsio.synthesize_dataset(gen, 100, "video", 9, path)
        assert summary.records == 900
        data = dsio.real_data_from_dataset(path, frames=9)
        assert data.pose3d.shape == (100, 9, 16, 3)
        lengths = sk.bone_lengths(topology, data.pose3d)
        rel = np.abs(lengths - lengths[:, :1]) / lengths[:, :1]
        assert np.max(rel) < 1e-9

    def test_streaming_uses_batches(self, tmp_path):
        gen = tiny_generator(seed=8)
        path = tmp_path / "d.txt"
        summary = dsio.synthesize_dataset(gen, 100, "single", 10, path, batch=16)
        assert summary.records == 100
        assert len(dsio.load_dataset(path)) == 100

    def test_binary_format(self, tmp_path):
        gen = tiny_generator(seed=9)
        path = tmp_path / "e.bin"
        dsio.synthesize_dataset(gen, 128, "single", 11, path, fmt="binary")
        cams, pose3d, pose2d = dsio.load_dataset(path).columns()
        assert len(cams) == 128 and np.all(cams == cams[0])
        uv = project_pose(pose3d[:16], CameraIntrinsics.from_array(cams[0]))
        # float32 storage loosens the projection-consistency bound
        assert np.max(np.abs(uv - pose2d[:16])) < 1e-2

    def test_depth_violations_resampled(self, tmp_path):
        gen = tiny_generator(seed=10)
        # force violations: a near plane deeper than most generated poses
        gen.camera = CameraIntrinsics(z_min=3.2)
        path = tmp_path / "f.txt"
        summary = dsio.synthesize_dataset(gen, 50, "single", 12, path)
        assert summary.records == 50
        assert summary.resampled > 0
        _, pose3d, _ = dsio.load_dataset(path).columns()
        assert np.all(pose3d[..., 2] >= 3.2)

    def test_mode_mismatch_rejected(self, tmp_path):
        gen = tiny_generator(seed=11)
        with pytest.raises(ValueError, match="single"):
            dsio.synthesize_dataset(gen, 5, "video", 0, tmp_path / "g.txt")

    def test_unreachable_near_plane_aborts(self, tmp_path):
        gen = tiny_generator(seed=12)
        gen.camera = CameraIntrinsics(z_min=50.0)  # beyond any translation bound
        with pytest.raises(ValueError, match="near plane"):
            dsio.synthesize_dataset(gen, 5, "single", 0, tmp_path / "h.txt", batch=8)

    def test_binary_count_beyond_float32_ids_is_rejected_before_the_file_opens(self, tmp_path,
                                                                                monkeypatch):
        def no_synthesis(*args):
            raise AssertionError("synthesis started")

        monkeypatch.setattr(gan, "generate_poses", no_synthesis)
        path = tmp_path / "big.bin"
        with pytest.raises(ValueError, match="16777218 sequences need ids up to 16777217"):
            dsio.synthesize_dataset(tiny_generator(seed=13), 2 ** 24 + 2, "single", 0, path,
                                    fmt="binary")
        assert not path.exists()

    def test_truncated_binary_payload_detected(self, tmp_path):
        path = tmp_path / "trunc.bin"
        dsio.save_dataset(random_rows(8, seed=21), path, fmt="binary")
        data = path.read_bytes()
        path.write_bytes(data[:-40])
        with pytest.raises(ParseError, match="truncated"):
            dsio.load_dataset(path)


class TestSkeletonVideo:
    def _sequence(self, frames=9, seed=13):
        gen = tiny_generator(seed=seed, mode="video", frames=frames)
        out = gan.generate(gen, gan.sample_latent(1, 128, RNG(seed)))
        return out.pose3d[0]

    def test_structure(self, tmp_path, topology):
        seq = self._sequence()
        path = tmp_path / "video.txt"
        dsio.export_skeleton_video(seq, path, topology)
        video = skeleton_video_ref(path)
        assert [len(video[k]) for k in ("edge", "frame", "kp")] == [15, 9, 9 * 16]
        assert [f for f, in video["frame"]] == list(range(9))
        assert np.array_equal(np.array(video["kp"])[:, 0], np.tile(np.arange(16), 9))

    def test_round_trip(self, tmp_path, topology):
        # the written edges are the topology's bones, the written keypoints the sequence
        seq = self._sequence()
        path = tmp_path / "video.txt"
        dsio.export_skeleton_video(seq, path, topology)
        video = skeleton_video_ref(path)
        assert [tuple(map(int, e)) for e in video["edge"]] == list(topology.bone_list)
        assert np.max(np.abs(np.array(video["kp"])[:, 1:].reshape(seq.shape) - seq)) < 1e-9

    @pytest.mark.parametrize("frames", [1, 3])
    @pytest.mark.parametrize("spine_pitch, topology_hash",
                             [("0.25", "6395f2e393c2"), ("0.3", "aad3ba2f1e07")])
    def test_header_names_the_topology_and_the_counts(self, tmp_path, frames, spine_pitch,
                                                      topology_hash):
        text = sk.topology_to_text(sk.default_topology())
        topo = sk.topology_from_text(text.replace(" spine_pitch 0.25 ",
                                                  f" spine_pitch {spine_pitch} "))
        path = tmp_path / "video.txt"
        dsio.export_skeleton_video(RNG(frames).normal(size=(frames, 16, 3)), path, topo)
        assert path.read_text().splitlines()[0] == (
            f"# dhpose skeleton-video v1 topology={topology_hash} frames={frames} keypoints=16")
        assert len(skeleton_video_ref(path)["frame"]) == frames

    @settings(max_examples=40, deadline=None)
    @given(xyz=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3,
                        max_size=3))
    def test_coordinates_are_written_to_13_digits(self, tmp_path_factory, xyz):
        path = tmp_path_factory.getbasetemp() / "digits.txt"
        dsio.export_skeleton_video(np.tile(xyz, (1, 16, 1)), path)
        expected = [float(f"{v:.13g}") for v in xyz]
        assert all(kp[1:] == expected for kp in skeleton_video_ref(path)["kp"])

    def test_exported_knee_cosines_stay_in_flexion_range(self, tmp_path, topology, pairs):
        # knee deltas are bounded to [-pi, 0]; the written frames' cosines must fit flexion
        seq = self._sequence(seed=14)
        path = tmp_path / "video.txt"
        dsio.export_skeleton_video(seq, path, topology)
        frames = np.array(skeleton_video_ref(path)["kp"])[:, 1:].reshape(seq.shape)
        cos = joint_cosines(frames, pairs)
        assert np.all(cos >= -1.0) and np.all(cos <= 1.0)
        femur = pairs.bones.index((4, 5))
        tibia = pairs.bones.index((5, 6))
        for k, (i, j) in enumerate(pairs.pairs):
            if {i, j} == {femur, tibia}:
                assert np.all(cos[:, k] >= -1.0)  # flexion spans the full arc

    def test_empty_sequence_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-empty"):
            dsio.export_skeleton_video(np.zeros((0, 16, 3)), tmp_path / "x.txt")

    @pytest.mark.parametrize("shape, bad", [
        ((16, 3), None), ((2, 16, 2), None), ((2, 16, 4), None), ((2, 15, 3), None),
        ((2, 17, 3), None), ((2, 16, 3), np.nan), ((2, 16, 3), np.inf), ((2, 16, 3), -np.inf),
    ], ids=["one-frame-array", "2d-points", "4d-points", "15-keypoints", "17-keypoints",
            "nan", "inf", "-inf"])
    def test_malformed_sequence_rejected_before_the_file_opens(self, tmp_path, shape, bad):
        # the file's readers are external plotting tools: the writer keeps its
        # counts and numbers sound
        seq = np.ones(shape)
        if bad is None:
            says = re.escape(f"expected a non-empty (T, 16, 3) sequence, got {shape}")
        else:
            seq[1, 7, 2] = bad
            says = "the sequence holds a non-finite coordinate"
        path = tmp_path / "x.txt"
        with pytest.raises(ValueError, match=f"^{says}$"):
            dsio.export_skeleton_video(seq, path)
        assert not path.exists()


class TestBandCorpus:
    def test_single_mode_shapes_and_validity(self, table):
        data = dsio.make_band_corpus(40, 15)
        assert data.pose3d.shape == (40, 16, 3)
        assert data.pose2d.shape == (40, 16, 2)
        assert data.frames == 1

    @pytest.mark.parametrize("mode, frames", [("bogus", 3), ("bogus", 1), ("single", 9),
                                              ("video", 1)])
    def test_mode_that_does_not_name_the_frames_is_refused(self, mode, frames):
        with pytest.raises(ValueError, match="mode"):
            dsio.make_band_corpus(4, 0, mode=mode, frames=frames)

    def test_video_mode(self):
        data = dsio.make_band_corpus(10, 16, mode="video", frames=5)
        assert data.pose3d.shape == (10, 5, 16, 3)
        assert data.frames == 5

    def test_round_trip_through_dataset_file(self, tmp_path):
        data = dsio.make_band_corpus(12, 17)
        path = tmp_path / "band.txt"
        dsio.save_dataset(dsio.rows_of(data), path)
        assert all(line.startswith("real ") for line in path.read_text().splitlines()[1:])
        again = dsio.real_data_from_dataset(path)
        assert np.max(np.abs(again.pose3d - data.pose3d)) < 1e-9

    @pytest.mark.parametrize("argv, digest", [
        (["--count", "8", "--seed", "0"], "e8065c807880"),
        (["--count", "4", "--mode", "video", "--frames", "3", "--seed", "0"], "2f79a3820200"),
    ])
    def test_smoke_corpus_script_output_is_pinned(self, tmp_path, argv, digest):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "smoke.txt"
        subprocess.run([sys.executable, str(root / "scripts" / "make_smoke_corpus.py"), *argv,
                        "--out", str(out)], env=env, check=True, capture_output=True, timeout=120)
        assert hashlib.sha256(out.read_bytes()).hexdigest()[:12] == digest

    def test_deterministic(self):
        a = dsio.make_band_corpus(8, 18)
        b = dsio.make_band_corpus(8, 18)
        assert np.array_equal(a.pose3d, b.pose3d)


class TestScale:
    def test_million_record_synthesis(self, tmp_path):
        # full-scale single-frame synthesis in the bulk binary format
        gen = tiny_generator(seed=19)
        path = tmp_path / "bulk.bin"
        summary = dsio.synthesize_dataset(gen, 1_000_000, "single", 20, path,
                                          fmt="binary", batch=65536)
        assert summary.records == 1_000_000
        assert summary.violations == 0
        with open(path, "rb") as fh:
            assert fh.readline().decode().startswith("# dhpose dataset v1 topology=")
            assert fh.readline().decode().split() == ["binary", "1000000", "88"]
        assert path.stat().st_size > 1_000_000 * 88 * 4
        path.unlink()
