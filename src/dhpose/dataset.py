"""Persistence for pose-pair datasets, bulk synthesis, and skeleton-video export.

The native format is line-delimited text: one header line carrying the
format version and topology hash, then one record per line with a fixed
field order and reals printed to 13 significant digits.  A flat binary
variant (little-endian float32) exists for bulk synthesis.  Both formats
share one columnar row layout (``RowBlock``) and are written and read a
block of rows at a time.  Synthesis streams batches to disk, so memory
stays bounded no matter the count.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .camera import CameraIntrinsics, project_pose
from .constraints import ConstraintTable, count_violations, default_constraint_table
from .skeleton import (N_PARAMS, SkeletonTopology, default_topology,
                       forward_kinematics_batch, topology_hash)

FORMAT_VERSION = "v1"
_HEADER_PREFIX = "# dhpose dataset"
_PROVENANCES = ("real", "synthetic")  # a row's provenance code indexes this
_VALUES_PER_ROW = 5 + 48 + 32  # camera (fx fy cx cy z_min), pose3d, pose2d
_FIELDS_PER_ROW = 3 + _VALUES_PER_ROW  # provenance, sequence id, frame index, values
_BLOCK_ROWS = 256  # rows packed, formatted or parsed at a time; bounds transient memory
_TEXT_ROW = "%s %d %d " + " ".join(["%.13g"] * _VALUES_PER_ROW) + "\n"
_TEXT_DTYPE = np.dtype([("provenance", "U16"), ("sequence_id", "i8"), ("frame_index", "i8"),
                        ("values", "f8", (_VALUES_PER_ROW,))])


class DatasetParseError(ValueError):
    """A malformed dataset file, located by line or, in a binary payload, by byte offset."""

    def __init__(self, path, line_no: Optional[int], reason: str, offset: Optional[int] = None):
        self.line_no = line_no
        self.offset = offset
        where = f"line {line_no}" if offset is None else f"byte {offset}"
        super().__init__(f"{path}: parse error at {where}: {reason}")


@dataclass
class DatasetRecord:
    pose3d: np.ndarray  # (16, 3) meters, camera space
    pose2d: np.ndarray  # (16, 2) pixels
    camera: CameraIntrinsics
    sequence_id: int = 0
    frame_index: int = 0
    provenance: str = "synthetic"

    def __post_init__(self):
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"provenance must be 'real' or 'synthetic', got {self.provenance!r}")


class RowBlock(NamedTuple):
    """Dataset rows in columns: the one layout every reader and writer uses."""

    provenance: np.ndarray   # (N,) codes indexing _PROVENANCES
    sequence_id: np.ndarray  # (N,) int64
    frame_index: np.ndarray  # (N,) int64
    values: np.ndarray       # (N, 85) float64: camera 5, pose3d 48, pose2d 32


def _columns(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous (cameras, pose3d, pose2d) arrays of an (..., 85) value block."""
    lead = values.shape[:-1]
    return (np.ascontiguousarray(values[..., 0:5]),
            np.ascontiguousarray(values[..., 5:53]).reshape(lead + (16, 3)),
            np.ascontiguousarray(values[..., 53:85]).reshape(lead + (16, 2)))


def _pack(provenance, sequence_id, frame_index, cameras, pose3d, pose2d) -> RowBlock:
    """Rows from per-row fields; a scalar provenance or a single camera row broadcasts."""
    seq = np.asarray(sequence_id, dtype=np.int64)
    n = len(seq)
    values = np.empty((n, _VALUES_PER_ROW))
    values[:, 0:5] = cameras
    values[:, 5:53] = np.reshape(pose3d, (n, 48))
    values[:, 53:85] = np.reshape(pose2d, (n, 32))
    codes = np.broadcast_to(np.asarray(provenance, dtype=np.int8), (n,))
    return RowBlock(codes, seq, np.asarray(frame_index, dtype=np.int64), values)


def _record_blocks(records) -> Iterator[RowBlock]:
    it = iter(records)
    while chunk := list(islice(it, _BLOCK_ROWS)):
        yield _pack([_PROVENANCES.index(r.provenance) for r in chunk],
                    [r.sequence_id for r in chunk], [r.frame_index for r in chunk],
                    [r.camera.as_array() for r in chunk],
                    [np.asarray(r.pose3d).ravel() for r in chunk],
                    [np.asarray(r.pose2d).ravel() for r in chunk])


def _text_rows(block: RowBlock) -> Iterator[str]:
    """The block's text lines, joined ``_BLOCK_ROWS`` rows at a time."""
    names = [_PROVENANCES[c] for c in block.provenance.tolist()]
    for i in range(0, len(names), _BLOCK_ROWS):
        rows = slice(i, i + _BLOCK_ROWS)
        yield "".join([_TEXT_ROW % (p, s, f, *v) for p, s, f, v in
                       zip(names[rows], block.sequence_id[rows].tolist(),
                           block.frame_index[rows].tolist(), block.values[rows].tolist())])


def _binary_rows(block: RowBlock) -> bytes:
    rows = np.empty((len(block.values), _FIELDS_PER_ROW), dtype="<f4")
    rows[:, 0] = block.provenance
    rows[:, 1] = block.sequence_id
    rows[:, 2] = block.frame_index
    rows[:, 3:] = block.values
    return rows.tobytes()


def _records(block: RowBlock) -> Iterator[DatasetRecord]:
    cams, pose3d, pose2d = _columns(block.values)
    for code, seq, frame, cam, p3, p2 in zip(block.provenance.tolist(),
                                             block.sequence_id.tolist(),
                                             block.frame_index.tolist(), cams, pose3d, pose2d):
        yield DatasetRecord(pose3d=p3, pose2d=p2, camera=CameraIntrinsics.from_array(cam),
                            sequence_id=seq, frame_index=frame, provenance=_PROVENANCES[code])


def _header(topology: Optional[SkeletonTopology]) -> str:
    h = topology_hash(topology or default_topology())
    return f"{_HEADER_PREFIX} {FORMAT_VERSION} topology={h}"


def save_dataset(records: Sequence[DatasetRecord], path,
                 topology: Optional[SkeletonTopology] = None) -> None:
    """Write records as line-delimited text; lossless to 13 significant digits."""
    with open(path, "w") as fh:
        fh.write(_header(topology) + "\n")
        for block in _record_blocks(records):
            fh.writelines(_text_rows(block))


def _parse_header(path, line: str) -> str:
    if not line.startswith(_HEADER_PREFIX):
        raise DatasetParseError(path, 1, "missing dataset header")
    tok = line.split()
    if len(tok) < 5 or tok[3] != FORMAT_VERSION or not tok[4].startswith("topology="):
        raise DatasetParseError(path, 1, f"unsupported header {line!r}")
    return tok[4].split("=", 1)[1]


def _check_topology(path, file_hash: str, topology: Optional[SkeletonTopology]) -> None:
    if topology is None:
        return
    expected = topology_hash(topology)
    if file_hash != expected:
        warnings.warn(f"{path}: dataset topology {file_hash} differs from expected {expected}")


def _parse_rows(path, lines: list[str], line_nos: list[int]) -> RowBlock:
    """Parse non-blank record lines in one call; a bad line raises naming its line number."""
    try:
        rows = np.loadtxt(lines, dtype=_TEXT_DTYPE, comments=None, ndmin=1)
    except ValueError:
        # find the line: the same parser, one line at a time
        for line, line_no in zip(lines, line_nos):
            fields = len(line.split())
            if fields != _FIELDS_PER_ROW:
                raise DatasetParseError(path, line_no,
                                        f"expected {_FIELDS_PER_ROW} fields, got {fields}")
            try:
                np.loadtxt([line], dtype=_TEXT_DTYPE, comments=None, ndmin=1)
            except ValueError as exc:
                raise DatasetParseError(path, line_no, str(exc).split(" at row ")[0]) from exc
        raise
    codes = np.full(len(rows), -1, dtype=np.int8)
    for code, name in enumerate(_PROVENANCES):
        codes[rows["provenance"] == name] = code
    bad = np.flatnonzero(codes < 0)
    if bad.size:
        i = bad[0]
        raise DatasetParseError(path, line_nos[i], f"bad provenance {lines[i].split()[0]!r}")
    values = np.ascontiguousarray(rows["values"])
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        i, j = bad[0]
        raise DatasetParseError(path, line_nos[i],
                                f"non-finite value {lines[i].split()[3 + j]!r} in field {4 + j}")
    return RowBlock(codes, rows["sequence_id"].copy(), rows["frame_index"].copy(), values)


def _decode(path, raw: bytes, line_no: int) -> str:
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        raise DatasetParseError(path, line_no, f"not UTF-8 text: byte {raw[exc.start]:#04x} "
                                               f"at column {exc.start + 1}") from exc


def _iter_blocks(path, topology: Optional[SkeletonTopology] = None) -> Iterator[RowBlock]:
    """Stream a text dataset as blocks of at most ``_BLOCK_ROWS`` lines each.

    Lines are decoded one at a time, so bytes that are not UTF-8 (a binary
    file with a damaged count line, say) are reported with their line.
    """
    with open(path, "rb") as fh:
        first = _decode(path, fh.readline(), 1).rstrip("\n")
        _check_topology(path, _parse_header(path, first), topology)
        line_no = 1
        while chunk := list(islice(fh, _BLOCK_ROWS)):
            lines = [_decode(path, raw, n) for n, raw in enumerate(chunk, start=line_no + 1)]
            kept = [(n, line) for n, line in enumerate(lines, start=line_no + 1)
                    if not line.isspace()]
            line_no += len(chunk)
            if kept:
                line_nos, lines = zip(*kept)
                yield _parse_rows(path, list(lines), list(line_nos))


def iter_dataset(path, topology: Optional[SkeletonTopology] = None) -> Iterator[DatasetRecord]:
    """Stream records from a text dataset file."""
    for block in _iter_blocks(path, topology):
        yield from _records(block)


def load_dataset(path, topology: Optional[SkeletonTopology] = None) -> list[DatasetRecord]:
    return list(iter_dataset(path, topology))


def save_dataset_binary(records: Sequence[DatasetRecord], path,
                        topology: Optional[SkeletonTopology] = None) -> None:
    with open(path, "wb") as fh:
        fh.write((_header(topology) + "\n").encode())
        fh.write(f"binary {len(records)} {_FIELDS_PER_ROW}\n".encode())
        for block in _record_blocks(records):
            fh.write(_binary_rows(block))


def _is_binary(path) -> bool:
    """True when the line after the header is a binary dataset's ``binary N W`` line."""
    with open(path, "rb") as fh:
        fh.readline()
        return fh.readline().split()[:1] == [b"binary"]


def _read_binary(path, topology: Optional[SkeletonTopology] = None) -> RowBlock:
    """All rows of a binary dataset, after checking its count line and every record."""
    with open(path, "rb") as fh:
        first = fh.readline().decode().rstrip("\n")
        _check_topology(path, _parse_header(path, first), topology)
        meta = fh.readline().decode().split()
        if len(meta) != 3 or meta[0] != "binary":
            raise DatasetParseError(path, 2, f"expected 'binary <count> {_FIELDS_PER_ROW}', "
                                             f"got {' '.join(meta)!r}")
        try:
            count, width = int(meta[1]), int(meta[2])
        except ValueError as exc:
            raise DatasetParseError(path, 2, str(exc)) from exc
        if count < 0 or width != _FIELDS_PER_ROW:
            raise DatasetParseError(path, 2, f"expected 'binary <count> {_FIELDS_PER_ROW}', "
                                             f"got {' '.join(meta)!r}")
        start = fh.tell()
        blob = fh.read(count * width * 4)
        if len(blob) != count * width * 4:
            raise DatasetParseError(path, 2, f"binary payload truncated: expected "
                                             f"{count * width * 4} bytes, got {len(blob)}")
    rows = np.frombuffer(blob, dtype="<f4").reshape(count, width).astype(np.float64)
    bad = np.flatnonzero(~np.isin(rows[:, 0], np.arange(len(_PROVENANCES))))
    if bad.size:
        i = bad[0]
        raise DatasetParseError(path, None, f"record {i}: bad provenance code {rows[i, 0]:g}",
                                offset=start + i * width * 4)
    bad = np.argwhere(~np.isfinite(rows))
    if bad.size:
        i, j = bad[0]
        raise DatasetParseError(path, None, f"record {i}: non-finite value in field {j + 1}",
                                offset=start + (i * width + j) * 4)
    return RowBlock(rows[:, 0].astype(np.int8), rows[:, 1].astype(np.int64),
                    rows[:, 2].astype(np.int64), rows[:, 3:])


def load_dataset_binary(path, topology: Optional[SkeletonTopology] = None) -> list[DatasetRecord]:
    return list(_records(_read_binary(path, topology)))


# --------------------------------------------------------------------------
# Synthesis

@dataclass
class SynthSummary:
    records: int
    sequences: int
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
    if mode != gen.mode:
        raise ValueError(f"generator is a {gen.mode!r} model; requested {mode!r}")
    if fmt not in ("text", "binary"):
        raise ValueError(f"format must be 'text' or 'binary', got {fmt!r}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    frames = gen.frames if mode == "video" else 1
    cam_row = gen.camera.as_array()
    violations = 0
    resampled = 0
    written = 0  # sequences in video mode, records otherwise
    binary = fmt == "binary"
    with open(path, "wb" if binary else "w") as fh:
        header = _header(gen.topology)
        if binary:
            fh.write((header + "\n").encode())
            fh.write(f"binary {count * frames} {_FIELDS_PER_ROW}\n".encode())
        else:
            fh.write(header + "\n")
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
                raise RuntimeError(
                    f"no sample cleared the near plane in {empty_rounds} consecutive "
                    f"batches; the translation bounds cannot reach z_min={gen.camera.z_min}")
            params = all_params.reshape(n, -1, N_PARAMS)[keep]
            pose3d = all_pose3d[keep]
            pose2d = project_pose(pose3d, gen.camera)
            violations += count_violations(params.reshape(-1, N_PARAMS), gen.table)
            k = keep.size
            if k == 0:
                continue
            seq_ids = np.repeat(np.arange(written, written + k), frames)
            frame_ids = np.tile(np.arange(frames), k)
            block = _pack(_PROVENANCES.index("synthetic"), seq_ids, frame_ids, cam_row,
                          pose3d, pose2d)
            if binary:
                fh.write(_binary_rows(block))
            else:
                fh.writelines(_text_rows(block))
            written += k
    return SynthSummary(records=count * frames, sequences=count if mode == "video" else 0,
                        violations=violations, resampled=resampled,
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
    """Read a skeleton video; a malformed line raises ``DatasetParseError`` naming it."""
    edges = []
    frames: list[list] = []
    frame_lines: list[int] = []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            tok = raw.split()
            if not tok or tok[0].startswith("#"):
                continue
            if tok[0] == "edge":
                if len(tok) != 3:
                    raise DatasetParseError(path, line_no, f"expected 3 fields in an edge "
                                                           f"line, got {len(tok)}")
                try:
                    edges.append((int(tok[1]), int(tok[2])))
                except ValueError as exc:
                    raise DatasetParseError(path, line_no, f"bad edge {raw.strip()!r}") from exc
            elif tok[0] == "frame":
                frames.append([])
                frame_lines.append(line_no)
            elif tok[0] == "kp":
                if not frames:
                    raise DatasetParseError(path, line_no, "kp line before any frame line")
                if len(tok) != 5:
                    raise DatasetParseError(path, line_no, f"expected 5 fields in a kp "
                                                           f"line, got {len(tok)}")
                xyz = []
                for t in tok[2:]:
                    try:
                        v = float(t)
                    except ValueError as exc:
                        raise DatasetParseError(path, line_no,
                                                f"non-numeric coordinate {t!r}") from exc
                    if not math.isfinite(v):
                        raise DatasetParseError(path, line_no, f"non-finite coordinate {t!r}")
                    xyz.append(v)
                frames[-1].append(xyz)
    for frame, line_no in zip(frames, frame_lines):
        if len(frame) != len(frames[0]):
            raise DatasetParseError(path, line_no, f"frame has {len(frame)} keypoints, "
                                                   f"the first frame {len(frames[0])}")
    return np.asarray(frames), edges


# --------------------------------------------------------------------------
# Stand-in training corpus (no mocap dependency)

def make_band_corpus(count: int, seed: int,
                     topology: Optional[SkeletonTopology] = None,
                     table: Optional[ConstraintTable] = None,
                     camera: Optional[CameraIntrinsics] = None,
                     mode: str = "single", frames: int = 1, band: float = 0.05):
    """Poses drawn from a narrow band around the mid-range configuration.

    Serves as a stand-in "real" distribution for smoke training: plausible,
    low-variance, and entirely synthetic.  Returns a ``gan.RealData``.
    """
    from .gan import RealData

    topology = topology or default_topology()
    table = table or default_constraint_table()
    camera = camera or CameraIntrinsics()
    rng = np.random.default_rng(seed)
    mid = (table.lo + table.hi) / 2.0
    width = (table.hi - table.lo) * band
    n_frames = frames if mode == "video" else 1
    n = count * n_frames
    params = mid + width * rng.uniform(-0.5, 0.5, size=(n, N_PARAMS))
    globals_ = np.zeros((n, 6))
    globals_[:, 1] = rng.uniform(-0.3, 0.3, n)       # mild turn
    globals_[:, 3] = rng.uniform(-0.2, 0.2, n)
    globals_[:, 4] = rng.uniform(-0.2, 0.2, n)
    globals_[:, 5] = 4.5 + rng.uniform(-0.2, 0.2, n)  # comfortably past the near plane
    pose3d = forward_kinematics_batch(topology, params, globals_)
    pose2d = project_pose(pose3d, camera)
    cams = np.tile(camera.as_array(), (count, 1))
    if mode == "video":
        pose3d = pose3d.reshape(count, n_frames, 16, 3)
        pose2d = pose2d.reshape(count, n_frames, 16, 2)
    return RealData(pose3d=pose3d, pose2d=pose2d, cams=cams)


def real_data_to_records(data, provenance: str = "real") -> list[DatasetRecord]:
    """Flatten a ``gan.RealData`` into dataset records."""
    records = []
    if data.video:
        for s in range(len(data)):
            cam = CameraIntrinsics.from_array(data.cams[s])
            for t in range(data.pose3d.shape[1]):
                records.append(DatasetRecord(pose3d=data.pose3d[s, t], pose2d=data.pose2d[s, t],
                                             camera=cam, sequence_id=s, frame_index=t,
                                             provenance=provenance))
    else:
        for s in range(len(data)):
            records.append(DatasetRecord(pose3d=data.pose3d[s], pose2d=data.pose2d[s],
                                         camera=CameraIntrinsics.from_array(data.cams[s]),
                                         sequence_id=s, frame_index=0, provenance=provenance))
    return records


def real_data_from_dataset(path, mode: str = "single", frames: int = 1):
    """Load a text or binary dataset file into training arrays (grouping
    frames by sequence); the format is told by the file's second line.

    In video mode, sequences come in ascending id order, each sequence's
    rows in ascending frame order (file order among equal indices); the first
    ``frames`` rows of each sequence are kept, with the first one's camera,
    and sequences with fewer rows are skipped.
    """
    from .gan import RealData

    blocks = [_read_binary(path)] if _is_binary(path) else list(_iter_blocks(path))
    if not blocks or not len(blocks[0].values):
        raise ValueError(f"{path}: dataset is empty")
    rows = RowBlock(*(np.concatenate(col) for col in zip(*blocks)))
    if mode == "single":
        cams, pose3d, pose2d = _columns(rows.values)
        return RealData(pose3d=pose3d, pose2d=pose2d, cams=cams)
    order = np.lexsort((rows.frame_index, rows.sequence_id))  # stable
    seq = rows.sequence_id[order]
    starts = np.flatnonzero(np.r_[True, seq[1:] != seq[:-1]])
    sizes = np.diff(np.r_[starts, len(seq)])
    starts = starts[sizes >= frames]
    if not starts.size:
        raise ValueError(f"{path}: no sequences of length {frames} found")
    cams, pose3d, pose2d = _columns(rows.values[order[starts[:, None] + np.arange(frames)]])
    return RealData(pose3d=pose3d, pose2d=pose2d, cams=cams[:, 0])
