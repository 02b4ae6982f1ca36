"""Persistence for pose-pair datasets, bulk synthesis, and skeleton-video export.

The native format is line-delimited text: one header line carrying the
format version and topology hash, then one record per line with a fixed
field order and reals printed to 13 significant digits.  A flat binary
variant (little-endian float32) exists for bulk synthesis.  In memory,
dataset rows are always a ``RowBlock`` (columns); ``RealData`` is their
grouped training view.  Both formats are written and read a block of rows
at a time, and synthesis streams batches to disk, so memory stays bounded
no matter the count.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional

import numpy as np

from .camera import default_camera, project_pose
from .constraints import ConstraintTable, count_violations, default_constraint_table
from .skeleton import (N_PARAMS, SkeletonTopology, default_topology,
                       forward_kinematics_batch, topology_hash)
from .textio import ParseError, Record, decode, records

FORMAT_VERSION = "v1"
_HEADER_PREFIX = "# dhpose dataset"
_PROVENANCES = ("real", "synthetic")  # a row's provenance code indexes this
_IDS = ("sequence id", "frame index")  # fields 1 and 2
_CAMERA = ("fx", "fy", "cx", "cy", "z_min")  # fields 3 to 7
_POSITIVE = [3, 4, 7]  # fields that must be > 0: fx, fy, z_min
_DEPTHS = slice(10, 56, 3)  # the keypoints' z fields; each must be >= its row's z_min
_VALUES_PER_ROW = 5 + 48 + 32  # camera, pose3d, pose2d
_FIELDS_PER_ROW = 3 + _VALUES_PER_ROW  # provenance, sequence id, frame index, values
_BLOCK_ROWS = 256  # rows formatted or parsed at a time; bounds transient memory
_F4_EXACT = 2 ** 24  # a binary (float32) field holds every integer up to this magnitude
_TEXT_ROW = "%s %d %d " + " ".join(["%.13g"] * _VALUES_PER_ROW) + "\n"
_TEXT_DTYPE = np.dtype([("provenance", "U16"), ("sequence_id", "i8"), ("frame_index", "i8"),
                        ("values", "f8", (_VALUES_PER_ROW,))])


def check_mode(mode: str, frames: int) -> None:
    """``mode`` names the frames of a sample: "single" 1, "video" 2 or more."""
    if mode not in ("single", "video"):
        raise ValueError(f"mode must be 'single' or 'video', got {mode!r}")
    if mode == "video" and frames < 2:
        raise ValueError(f"video mode needs at least 2 frames, got {frames}")
    if mode == "single" and frames != 1:
        raise ValueError(f"single mode uses exactly 1 frame, got {frames}")


def resolve_frames(mode: str, frames: Optional[int]) -> int:
    """T for a mode and a frame count that may be left out: 1 in single
    mode, where a count would be ignored (ValueError), else 9 or the count."""
    if mode == "single" and frames is not None:
        raise ValueError(f"a frame count ({frames}) needs video mode: single mode has 1 frame")
    return 1 if mode == "single" else 9 if frames is None else frames


def as_samples(rows: np.ndarray, count: int, frames: int) -> np.ndarray:
    """Pose rows (count * T, ...) as ``count`` samples of T = ``frames``:
    (count, T, ...), or (count, ...) at T = 1, where a sample is one pose."""
    lead = (count,) if frames == 1 else (count, frames)
    return rows.reshape(lead + rows.shape[1:])


@dataclass
class RealData:
    """Training corpus of N samples (``as_samples``): (N, 16, ...) or (N, T, 16, ...)."""

    pose3d: np.ndarray
    pose2d: np.ndarray
    cams: np.ndarray  # (N, 5) fx fy cx cy z_min rows

    def __len__(self) -> int:
        return self.pose3d.shape[0]

    @property
    def frames(self) -> int:
        return int(np.prod(self.pose3d.shape[1:-2]))


@dataclass(frozen=True, eq=False)
class RowBlock:
    """Dataset rows in columns: the one in-memory form of dataset rows."""

    provenance: np.ndarray   # (N,) int8 codes indexing _PROVENANCES
    sequence_id: np.ndarray  # (N,) int64
    frame_index: np.ndarray  # (N,) int64
    values: np.ndarray       # (N, 85) float64: camera 5, pose3d 48, pose2d 32

    def __len__(self) -> int:
        return len(self.provenance)

    def take(self, index) -> RowBlock:
        """The rows at ``index`` (a slice, a mask or an integer array of any shape)."""
        return RowBlock(*(getattr(self, col)[index] for col in _COLUMNS))

    def fields(self) -> np.ndarray:
        """The rows' (N, 88) fields as the files lay them out, in float64:
        provenance code, sequence id, frame index, then the 85 values."""
        return np.column_stack((self.provenance, self.sequence_id, self.frame_index, self.values))

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Contiguous (cameras, pose3d, pose2d) arrays of the rows' values,
        (..., 5), (..., 16, 3) and (..., 16, 2) for (..., 85) values."""
        lead = self.values.shape[:-1]
        return (np.ascontiguousarray(self.values[..., 0:5]),
                np.ascontiguousarray(self.values[..., 5:53]).reshape(lead + (16, 3)),
                np.ascontiguousarray(self.values[..., 53:85]).reshape(lead + (16, 2)))

    @classmethod
    def concat(cls, blocks: Iterable[RowBlock]) -> RowBlock:
        """The rows of ``blocks`` in order, as one block (no rows for no blocks)."""
        blocks = [_NO_ROWS, *blocks]
        return cls(*(np.concatenate([getattr(b, col) for b in blocks]) for col in _COLUMNS))


_COLUMNS = ("provenance", "sequence_id", "frame_index", "values")
_NO_ROWS = RowBlock(np.empty(0, np.int8), np.empty(0, np.int64), np.empty(0, np.int64),
                    np.empty((0, _VALUES_PER_ROW)))


def rows_of(data: RealData, provenance: str = "real", first_id: int = 0) -> RowBlock:
    """Dataset rows of training arrays: sequence ids run from ``first_id``,
    frame indices from 0, and a sequence's camera row repeats on its frames."""
    count, frames = len(data), data.frames
    n = count * frames
    values = np.empty((n, _VALUES_PER_ROW))
    values[:, 0:5] = np.repeat(data.cams, frames, axis=0)
    values[:, 5:53] = np.reshape(data.pose3d, (n, 48))
    values[:, 53:85] = np.reshape(data.pose2d, (n, 32))
    return RowBlock(np.full(n, _PROVENANCES.index(provenance), dtype=np.int8),
                    np.repeat(np.arange(first_id, first_id + count), frames),
                    np.tile(np.arange(frames), count), values)


def _head(fmt: str, count: int, topology: Optional[SkeletonTopology]) -> bytes:
    """A dataset file's header line and, for ``binary``, its count line."""
    if fmt not in ("text", "binary"):
        raise ValueError(f"format must be 'text' or 'binary', got {fmt!r}")
    h = topology_hash(topology or default_topology())
    head = f"{_HEADER_PREFIX} {FORMAT_VERSION} topology={h}\n"
    if fmt == "binary":
        head += f"binary {count} {_FIELDS_PER_ROW}\n"
    return head.encode()


def _write_rows(fh, rows: RowBlock, binary: bool) -> None:
    """Append rows to a dataset file ``_BLOCK_ROWS`` at a time: text lines
    from one ``%``-template, or ``<f4`` records of all 88 fields, which a
    block with an id or index that float32 cannot hold exactly never reaches."""
    for i in range(0, len(rows), _BLOCK_ROWS):
        block = rows.take(slice(i, i + _BLOCK_ROWS))
        if binary:
            ids = block.sequence_id, block.frame_index
            if np.abs(ids).max() > _F4_EXACT:
                col, row = np.argwhere(np.abs(ids) > _F4_EXACT)[0]
                raise ValueError(f"row {i + row}: {_IDS[col]} "
                                 f"{ids[col][row]} is beyond 2**24, the largest a binary "
                                 f"dataset's float32 fields hold exactly; use the text format")
            fh.write(block.fields().astype("<f4").tobytes())
        else:
            fh.write("".join([_TEXT_ROW % (_PROVENANCES[p], s, f, *v) for p, s, f, v in
                              zip(block.provenance.tolist(), block.sequence_id.tolist(),
                                  block.frame_index.tolist(), block.values.tolist())]).encode())


def save_dataset(rows: RowBlock, path, fmt: str = "text",
                 topology: Optional[SkeletonTopology] = None) -> None:
    """Write rows as text (lossless to 13 significant digits) or as binary
    float32 records."""
    head = _head(fmt, len(rows), topology)
    with open(path, "wb") as fh:
        fh.write(head)
        _write_rows(fh, rows, fmt == "binary")


def _parse_header(path, line: str) -> str:
    if not line.startswith(_HEADER_PREFIX):
        raise ParseError(path, 1, "missing dataset header")
    tok = line.split()
    if len(tok) < 5 or tok[3] != FORMAT_VERSION or not tok[4].startswith("topology="):
        raise ParseError(path, 1, f"unsupported header {line!r}")
    return tok[4].split("=", 1)[1]


def _check_topology(path, file_hash: str, topology: Optional[SkeletonTopology]) -> None:
    if topology is None:
        return
    expected = topology_hash(topology)
    if file_hash != expected:
        warnings.warn(f"{path}: dataset topology {file_hash} differs from expected {expected}")


def _check_fields(fields: np.ndarray, fail, show) -> None:
    """Check a block's (N, 88) fields and raise ``fail(i, j, reason)`` for
    the first fault, row ``i``'s field ``j``; ``show(i, j)`` is how the
    reason shows a field.  The checks, in order: a provenance code, finite
    fields, integral ids, positive fx, fy and z_min, and each keypoint's z
    at or beyond its row's z_min.  Rounding to ``%.13g`` or to float32 is
    monotone, so a row that was in front of the near plane when written
    still is."""
    ids = fields[:, 1:3]
    checks = (  # (fault mask, the field of each mask column, the reason for row i's field j)
        (~np.isin(fields[:, :1], np.arange(len(_PROVENANCES))), [0],
         lambda i, j: f"bad provenance {show(i, j)}"),
        (~np.isfinite(fields), range(_FIELDS_PER_ROW),
         lambda i, j: f"non-finite value {show(i, j)} in field {j + 1}"),
        (ids != np.round(ids), [1, 2],
         lambda i, j: f"{_IDS[j - 1]} {show(i, j)} in field {j + 1} is not an integer"),
        (fields[:, _POSITIVE] <= 0, _POSITIVE,
         lambda i, j: f"non-positive {_CAMERA[j - 3]} {show(i, j)} in field {j + 1}"),
        (fields[:, _DEPTHS] < fields[:, 7:8], range(_FIELDS_PER_ROW)[_DEPTHS],
         lambda i, j: f"keypoint {(j - _DEPTHS.start) // 3} z {show(i, j)} in field {j + 1} "
                      f"is below z_min {show(i, 7)}"),
    )
    for faults, at, reason in checks:
        if faults.any():
            i, col = np.argwhere(faults)[0]
            raise fail(i, at[col], reason(i, at[col]))


def _parse_rows(path, lines: list[str], line_nos: list[int]) -> RowBlock:
    """Parse non-blank record lines in one call; a bad line raises naming its line number."""
    try:
        rows = np.loadtxt(lines, dtype=_TEXT_DTYPE, comments=None, ndmin=1)
    except ValueError:
        # find the line: the same parser, one line at a time
        for line, line_no in zip(lines, line_nos):
            fields = len(line.split())
            if fields != _FIELDS_PER_ROW:
                raise ParseError(path, line_no, f"expected {_FIELDS_PER_ROW} fields, got {fields}")
            try:
                np.loadtxt([line], dtype=_TEXT_DTYPE, comments=None, ndmin=1)
            except ValueError as exc:
                raise ParseError(path, line_no, str(exc).split(" at row ")[0]) from exc
        raise
    codes = np.full(len(rows), -1, dtype=np.int8)
    for code, name in enumerate(_PROVENANCES):
        codes[rows["provenance"] == name] = code
    block = RowBlock(codes, rows["sequence_id"].copy(), rows["frame_index"].copy(),
                     np.ascontiguousarray(rows["values"]))
    _check_fields(block.fields(), lambda i, j, reason: ParseError(path, line_nos[i], reason),
                  lambda i, j: repr(lines[i].split()[j]))
    return block


def _read_binary(path, fh, meta_line: bytes) -> RowBlock:
    """All rows of a binary dataset whose count line was just read from
    ``fh``, after checking that line and every record."""
    meta = Record(path, 2, decode(path, meta_line, 2).split())
    width = _FIELDS_PER_ROW
    try:
        count = meta.fields("binary", int, str(width))[1]
    except ParseError:
        count = -1
    if count < 0:
        raise meta.error(f"expected 'binary <count> {width}', got {' '.join(meta.tokens)!r}")
    start = fh.tell()
    blob = fh.read(count * width * 4)
    if len(blob) != count * width * 4:
        raise ParseError(path, 2, f"binary payload truncated: expected "
                                  f"{count * width * 4} bytes, got {len(blob)}")
    rows = np.frombuffer(blob, dtype="<f4").reshape(count, width).astype(np.float64)
    _check_fields(rows, lambda i, j, reason: ParseError(path, None, f"record {i}: {reason}",
                                                        offset=start + (i * width + j) * 4),
                  lambda i, j: f"{rows[i, j]:g}")
    return RowBlock(rows[:, 0].astype(np.int8), rows[:, 1].astype(np.int64),
                    rows[:, 2].astype(np.int64), rows[:, 3:])


def iter_blocks(path, topology: Optional[SkeletonTopology] = None) -> Iterator[RowBlock]:
    """Stream a dataset file's rows: a text file in blocks of at most
    ``_BLOCK_ROWS`` lines, a binary one (its second line reads ``binary N
    88``) as one block.  A malformed field, or a row that ``_check_fields``
    rejects, raises ``ParseError`` naming the line (text) or the record and
    its byte offset (binary).

    Text lines are decoded one at a time, so bytes that are not UTF-8 (a
    binary file with a damaged count line, say) are reported with their line.
    """
    with open(path, "rb") as fh:
        first = decode(path, fh.readline(), 1).rstrip("\n")
        _check_topology(path, _parse_header(path, first), topology)
        line_no = 1
        second = fh.readline()
        if second.split()[:1] == [b"binary"]:
            yield _read_binary(path, fh, second)
            return
        fh.seek(-len(second), 1)
        while chunk := list(islice(fh, _BLOCK_ROWS)):
            lines = [decode(path, raw, n) for n, raw in enumerate(chunk, start=line_no + 1)]
            kept = [(n, line) for n, line in enumerate(lines, start=line_no + 1)
                    if not line.isspace()]
            line_no += len(chunk)
            if kept:
                line_nos, lines = zip(*kept)
                yield _parse_rows(path, list(lines), list(line_nos))


def load_dataset(path, topology: Optional[SkeletonTopology] = None) -> RowBlock:
    """Every row of a text or binary dataset file (see ``iter_blocks``)."""
    return RowBlock.concat(iter_blocks(path, topology))


# --------------------------------------------------------------------------
# Synthesis

@dataclass
class SynthSummary:
    records: int
    violations: int
    resampled: int
    seconds: float
    path: str


def synthesize_dataset(gen, count: int, mode: str, seed: int, path,
                       fmt: str = "text", batch: int = 2048) -> SynthSummary:
    """Generate ``count`` pose pairs (or sequences in video mode) to disk.

    Batches stream straight to the file, so memory use is bounded by the
    batch size.  Samples whose projection would cross the near plane are
    dropped and redrawn from the same latent stream, which keeps runs with
    equal seeds bitwise identical.  Every written record is checked against
    the constraint table and for 2D/3D projection consistency.
    """
    from .gan import generate_poses, sample_latent

    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if fmt == "binary" and count - 1 > _F4_EXACT:  # sequence ids run from 0
        raise ValueError(f"{count} sequences need ids up to {count - 1}, beyond 2**24, the "
                         f"largest a binary dataset's float32 fields hold exactly; use the "
                         f"text format")
    if mode != gen.mode:
        raise ValueError(f"generator is a {gen.mode!r} model; requested {mode!r}")
    head = _head(fmt, count * gen.frames, gen.topology)
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    cam_row = gen.camera.as_array()
    violations = 0
    resampled = 0
    written = 0  # samples
    with open(path, "wb") as fh:
        fh.write(head)
        empty_rounds = 0
        while written < count:
            n = min(batch, count - written)
            z = sample_latent(n, gen.net.in_dim, rng)
            all_params, _, all_pose3d = generate_poses(gen, z)
            flat3d = all_pose3d.reshape(n, -1, 3)
            ok = np.all(flat3d[:, :, 2] >= gen.camera.z_min, axis=1)
            keep = np.flatnonzero(ok)
            resampled += n - keep.size
            empty_rounds = empty_rounds + 1 if keep.size == 0 else 0
            if empty_rounds >= 50:
                raise ValueError(
                    f"no sample cleared the near plane in {empty_rounds} consecutive "
                    f"batches; the translation bounds cannot reach z_min={gen.camera.z_min}")
            params = all_params.reshape(n, -1, N_PARAMS)[keep]
            pose3d = all_pose3d[keep]
            pose2d = project_pose(pose3d, gen.camera)
            violations += count_violations(params.reshape(-1, N_PARAMS), gen.table)
            k = keep.size
            if k == 0:
                continue
            data = RealData(pose3d, pose2d, np.broadcast_to(cam_row, (k, 5)))
            _write_rows(fh, rows_of(data, "synthetic", written), fmt == "binary")
            written += k
    return SynthSummary(records=count * gen.frames, violations=violations, resampled=resampled,
                        seconds=time.perf_counter() - t0, path=str(path))


# --------------------------------------------------------------------------
# Skeleton-video export

def export_skeleton_video(sequence, path, topology: Optional[SkeletonTopology] = None) -> None:
    """Frame-by-frame keypoints plus the bone edges, for external plotting."""
    seq = np.asarray(sequence, dtype=np.float64)
    if seq.ndim != 3 or seq.shape[0] < 1:
        raise ValueError(f"expected a non-empty (T, K, 3) sequence, got {seq.shape}")
    topo = topology or default_topology()
    lines = [f"# dhpose skeleton-video v1 topology={topology_hash(topo)} "
             f"frames={seq.shape[0]} keypoints={seq.shape[1]}"]
    for parent, child in topo.bone_list:
        lines.append(f"edge {parent} {child}")
    for t, frame in enumerate(seq):
        lines.append(f"frame {t}")
        for kp, (x, y, z) in enumerate(frame):
            lines.append(f"kp {kp} {x:.13g} {y:.13g} {z:.13g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_skeleton_video(path) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Frames (T, K, 3) and edges of a skeleton video (line rules in
    ``textio``); frame and keypoint counts other than the header's
    ``frames=`` and ``keypoints=`` raise ``ParseError`` naming the line."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    declared: dict[str, int] = {}
    if lines and lines[0].startswith(b"#"):  # the header
        counts = dict(t.split("=", 1) for t in decode(path, lines[0], 1).split() if "=" in t)
        for key in [k for k in ("frames", "keypoints") if k in counts]:
            try:
                declared[key] = Record(path, 1, [counts[key]]).fields(int)[0]
            except ParseError:
                declared[key] = -1
            if declared[key] < 0:
                raise ParseError(path, 1, f"bad header count {key}={counts[key]!r}")
    edges: list[tuple[int, int]] = []
    frames: list[list] = []
    frame_lines: list[int] = []
    for rec in records(lines, path):
        kind = rec.tokens[0]
        if kind == "edge":
            edges.append(tuple(rec.fields("edge", int, int)[1:]))
        elif kind == "frame":
            if (t := rec.fields("frame", int)[1]) != len(frames):
                raise rec.error(f"frame {t} at position {len(frames)}")
            frames.append([])
            frame_lines.append(rec.line_no)
        elif kind == "kp":
            if not frames:
                raise rec.error("kp line before any frame line")
            _, kp, *xyz = rec.fields("kp", int, float, float, float)
            if kp != len(frames[-1]):
                raise rec.error(f"kp {kp} at position {len(frames[-1])} of its frame")
            frames[-1].append(xyz)
        else:
            raise rec.error(f"unknown record {kind!r}")
    if declared.get("frames", len(frames)) != len(frames):
        raise ParseError(path, 1, f"header declares frames={declared['frames']}, "
                                  f"the file has {len(frames)}")
    want, by = ((declared["keypoints"], "the header") if "keypoints" in declared
                else (len(frames[0]) if frames else 0, "the first frame"))
    for frame, line_no in zip(frames, frame_lines):
        if len(frame) != want:
            raise ParseError(path, line_no, f"frame has {len(frame)} keypoints, {by} {want}")
    return np.array(frames, dtype=float).reshape(len(frames), want, 3), edges


# --------------------------------------------------------------------------
# Stand-in training corpus (no mocap dependency)

def make_band_corpus(count: int, seed: int,
                     topology: Optional[SkeletonTopology] = None,
                     table: Optional[ConstraintTable] = None,
                     mode: str = "single", frames: int = 1, band: float = 0.05):
    """Poses drawn from a narrow band around the mid-range configuration.

    Serves as a stand-in "real" distribution for smoke training: plausible,
    low-variance, and entirely synthetic.
    """
    check_mode(mode, frames)
    topology = topology or default_topology()
    table = table or default_constraint_table()
    camera = default_camera()
    rng = np.random.default_rng(seed)
    mid = (table.lo + table.hi) / 2.0
    width = (table.hi - table.lo) * band
    n = count * frames
    params = mid + width * rng.uniform(-0.5, 0.5, size=(n, N_PARAMS))
    globals_ = np.zeros((n, 6))
    globals_[:, 1] = rng.uniform(-0.3, 0.3, n)       # mild turn
    globals_[:, 3] = rng.uniform(-0.2, 0.2, n)
    globals_[:, 4] = rng.uniform(-0.2, 0.2, n)
    globals_[:, 5] = 4.5 + rng.uniform(-0.2, 0.2, n)  # comfortably past the near plane
    pose3d = forward_kinematics_batch(topology, params, globals_)
    pose2d = project_pose(pose3d, camera)
    return RealData(pose3d=as_samples(pose3d, count, frames),
                    pose2d=as_samples(pose2d, count, frames),
                    cams=np.tile(camera.as_array(), (count, 1)))


def real_data_from_dataset(path, frames: int = 1) -> RealData:
    """Load a text or binary dataset file into training arrays (grouping
    frames by sequence); the format is told by the file's second line.

    At 1 frame every row is a pose, whatever its sequence id.  Otherwise
    sequences come in ascending id order, each sequence's rows in ascending
    frame order (file order among equal indices); the first ``frames`` rows
    of each sequence are kept, with the first one's camera, and sequences
    with fewer rows are skipped.
    """
    if frames < 1:
        raise ValueError(f"a sample needs at least 1 frame, got {frames}")
    rows = load_dataset(path)
    if not len(rows):
        raise ValueError(f"{path}: dataset is empty")
    if frames == 1:
        cams, pose3d, pose2d = rows.columns()
        return RealData(pose3d=pose3d, pose2d=pose2d, cams=cams)
    order = np.lexsort((rows.frame_index, rows.sequence_id))  # stable
    seq = rows.sequence_id[order]
    starts = np.flatnonzero(np.r_[True, seq[1:] != seq[:-1]])
    sizes = np.diff(np.r_[starts, len(seq)])
    starts = starts[sizes >= frames]
    if not starts.size:
        raise ValueError(f"{path}: no sequences of length {frames} found")
    cams, pose3d, pose2d = rows.take(order[starts[:, None] + np.arange(frames)]).columns()
    return RealData(pose3d=pose3d, pose2d=pose2d, cams=cams[:, 0])
