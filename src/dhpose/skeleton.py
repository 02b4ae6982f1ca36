"""Kinematic human skeleton built from Denavit-Hartenberg link parameters.

The skeleton is five chains (torso-head, both legs, both arms) that share
their leading rows: every branch starts with the three pelvis rows, and the
arm branches additionally share the spine and thorax rows with the torso.
Each row is one degree of freedom (a variable joint angle); 15 of the rows
also carry a variable link length, one per bone of the 16-keypoint tree.
A row names the ids of the parameters that move it.
Forward kinematics composes the per-row homogeneous transforms, reads the
keypoint positions off the cumulative translation columns and applies a
global rigid transform.  It is written once, as the autodiff tape node
``fk`` with its closed-form Jacobian: training differentiates through it,
and ``forward_kinematics_batch`` runs it on constants.

Angles are radians and lengths are meters everywhere in memory; the
serialized table files use degrees for human editing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .textio import ParseError, dense, records

N_PARAMS = 48
N_ANGLE_PARAMS = 33
N_LENGTH_PARAMS = 15
N_BRANCHES = 5

KEYPOINT_NAMES = (
    "pelvis", "r_hip", "r_knee", "r_ankle",
    "l_hip", "l_knee", "l_ankle",
    "spine", "thorax", "head",
    "l_shoulder", "l_elbow", "l_wrist",
    "r_shoulder", "r_elbow", "r_wrist",
)

ROOT_KEYPOINT = 0

# (parent keypoint, child keypoint) for the 15 bones of the tree.
BONE_LIST = (
    (0, 1), (1, 2), (2, 3),
    (0, 4), (4, 5), (5, 6),
    (0, 7), (7, 8), (8, 9),
    (8, 10), (10, 11), (11, 12),
    (8, 13), (13, 14), (14, 15),
)


@dataclass(frozen=True)
class DhRow:
    """One link: rest DH values and the ids of the parameters that move it.

    ``theta_id`` names the joint-angle delta (0..32) added to theta, and
    ``a_id`` or ``d_id`` the bone-length delta (33..47) added to a or d; -1
    keeps the field fixed.  The twist alpha is always fixed."""

    name: str
    a: float = 0.0
    d: float = 0.0
    alpha: float = 0.0
    theta: float = 0.0
    theta_id: int = -1
    a_id: int = -1
    d_id: int = -1

    def __post_init__(self):
        vals = (self.a, self.d, self.alpha, self.theta)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError(f"row {self.name!r}: non-finite DH value {vals}")
        if self.a < 0.0:
            raise ValueError(f"row {self.name!r}: link length a must be >= 0, got {self.a}")
        if self.a_id >= 0 and self.d_id >= 0:
            raise ValueError(f"row {self.name!r}: a bone length lives in exactly one of a, d")
        lengths = range(N_ANGLE_PARAMS, N_PARAMS)
        for fld, pid, ids in (("theta", self.theta_id, range(N_ANGLE_PARAMS)),
                              ("a", self.a_id, lengths), ("d", self.d_id, lengths)):
            if pid != -1 and pid not in ids:
                raise ValueError(f"row {self.name!r}: {fld} id {pid} is neither -1 nor one of "
                                 f"{ids[0]}..{ids[-1]}")


@dataclass(frozen=True)
class KinematicBranch:
    """An ordered DH chain with its shared-prefix length and emitted keypoints."""

    name: str
    rows: tuple[DhRow, ...]
    keypoint_map: tuple[tuple[int, int], ...]  # (row index, keypoint id)
    shared_prefix_len: int = 0

    def __post_init__(self):
        idx = [r for r, _ in self.keypoint_map]
        if idx != sorted(idx) or len(set(idx)) != len(idx):
            raise ValueError(f"branch {self.name!r}: keypoint rows must be strictly increasing")
        if idx and idx[-1] >= len(self.rows):
            raise ValueError(f"branch {self.name!r}: keypoint row index out of range")
        if self.shared_prefix_len > len(self.rows):
            raise ValueError(f"branch {self.name!r}: shared prefix longer than the chain")


@dataclass(frozen=True)
class GlobalTransform:
    """Whole-body rotation (x, then y, then z axis) and translation, meters."""

    rx: float = 0.0
    ry: float = 0.0
    rz: float = 0.0
    tx: float = 0.0
    ty: float = 0.0
    tz: float = 0.0

    @classmethod
    def identity(cls) -> "GlobalTransform":
        return cls()

    def as_array(self) -> np.ndarray:
        return np.array([self.rx, self.ry, self.rz, self.tx, self.ty, self.tz], dtype=float)


@dataclass(frozen=True)
class SkeletonTopology:
    """The five-branch skeleton and the names and kinds of its 48 parameters.

    The rows a branch owns (those past its shared prefix) carry each
    parameter id exactly once: ids 0..32 are joint-angle deltas, 33..47
    bone-length deltas.  A shared-prefix row is the first branch's row, ids
    included."""

    branches: tuple[KinematicBranch, ...]
    param_names: tuple[str, ...]
    param_kinds: tuple[str, ...]  # "angle" | "length"
    keypoint_names: tuple[str, ...] = KEYPOINT_NAMES
    bone_list: tuple[tuple[int, int], ...] = BONE_LIST
    _compiled: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def keypoint_count(self) -> int:
        return len(self.keypoint_names)

    def validate(self) -> None:
        if len(self.branches) != N_BRANCHES:
            raise ValueError(f"expected {N_BRANCHES} branches, got {len(self.branches)}")
        if list(self.param_kinds) != ["angle"] * N_ANGLE_PARAMS + ["length"] * N_LENGTH_PARAMS:
            raise ValueError("canonical id layout is angle ids 0..32, length ids 33..47")
        if self.branches[0].shared_prefix_len != 0:
            raise ValueError("the first branch owns the shared store; its prefix must be 0")
        root = self.branches[0]
        for br in self.branches[1:]:
            p = br.shared_prefix_len
            if br.rows[:p] != root.rows[:p]:
                raise ValueError(f"branch {br.name!r}: shared prefix rows differ from the root store")
        # one degree of freedom per owned row: 33 rows with the angle ids
        owned = [row for br in self.branches for row in br.rows[br.shared_prefix_len:]]
        if sorted(row.theta_id for row in owned) != list(range(N_ANGLE_PARAMS)):
            raise ValueError("the owned rows' theta ids must be 0..32, each once")
        if sorted(i for row in owned for i in (row.a_id, row.d_id) if i >= 0) \
                != list(range(N_ANGLE_PARAMS, N_PARAMS)):
            raise ValueError("the owned rows' a and d ids must be 33..47, each once")
        seen_kp = sorted(kp for br in self.branches for _, kp in br.keypoint_map)
        if seen_kp != list(range(self.keypoint_count)):
            raise ValueError("every keypoint must be emitted by exactly one branch")
        if len(self.bone_list) != self.keypoint_count - 1:
            raise ValueError("bone list must span the keypoint tree")
        reached = {ROOT_KEYPOINT}
        for parent, child in self.bone_list:
            if parent not in reached or child in reached:
                raise ValueError("bone list is not a tree rooted at the pelvis")
            reached.add(child)


class _BranchTable(NamedTuple):
    """A branch's rows as FK reads them: each row's rest (theta, a, d) and
    the parameter id of each (-1 for none), and the cosine and sine of its
    fixed twist alpha."""

    rest: np.ndarray   # (rows, 3)
    ids: np.ndarray    # (rows, 3)
    twist: np.ndarray  # (rows, 2)


_FIELDS = ("theta", "a", "d")


def _tables(topology: SkeletonTopology) -> list[_BranchTable]:
    cache = topology._compiled
    if "tables" not in cache:
        cache["tables"] = [
            _BranchTable(rest=np.array([[r.theta, r.a, r.d] for r in br.rows]),
                         ids=np.array([[r.theta_id, r.a_id, r.d_id] for r in br.rows]),
                         twist=np.array([[np.cos(r.alpha), np.sin(r.alpha)] for r in br.rows]))
            for br in topology.branches]
    return cache["tables"]


def _dh_matrices_batch(b, a, d, cos_alpha, sin_alpha, theta) -> np.ndarray:
    """Stack of ``b`` DH transforms; each of a, d and theta is one value per
    sample or one for all, and alpha is fixed."""
    ct, st = np.cos(theta), np.sin(theta)
    m = np.zeros((b, 4, 4))
    m[:, 0, 0] = ct
    m[:, 0, 1] = -st
    m[:, 0, 3] = a
    m[:, 1, 0] = st * cos_alpha
    m[:, 1, 1] = ct * cos_alpha
    m[:, 1, 2] = -sin_alpha
    m[:, 1, 3] = -d * sin_alpha
    m[:, 2, 0] = st * sin_alpha
    m[:, 2, 1] = ct * sin_alpha
    m[:, 2, 2] = cos_alpha
    m[:, 2, 3] = d * cos_alpha
    m[:, 3, 3] = 1.0
    return m


def rotation_xyz(rx, ry, rz) -> np.ndarray:
    """Global rotation Rx @ Ry @ Rz for scalar or batched angle arrays."""
    rx, ry, rz = np.broadcast_arrays(np.asarray(rx, dtype=float),
                                     np.asarray(ry, dtype=float),
                                     np.asarray(rz, dtype=float))
    shape = rx.shape
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    one = np.ones(shape)
    zero = np.zeros(shape)
    mx = np.stack([one, zero, zero, zero, cx, -sx, zero, sx, cx], -1).reshape(shape + (3, 3))
    my = np.stack([cy, zero, sy, zero, one, zero, -sy, zero, cy], -1).reshape(shape + (3, 3))
    mz = np.stack([cz, -sz, zero, sz, cz, zero, zero, zero, one], -1).reshape(shape + (3, 3))
    return mx @ my @ mz


def chain_frames(topology: SkeletonTopology, params: np.ndarray
                 ) -> tuple[np.ndarray, list[list[np.ndarray]]]:
    """Keypoints before the global transform, (B, 16, 3), and per branch the
    cumulative transform (B, 4, 4) of each of its rows, shared rows included."""
    nb = params.shape[0]
    kps = np.empty((nb, topology.keypoint_count, 3))
    frames = []
    root_cum: list[np.ndarray] = []
    for bi, (br, table) in enumerate(zip(topology.branches, _tables(topology))):
        prefix = br.shared_prefix_len
        cur = root_cum[prefix - 1] if prefix > 0 else np.broadcast_to(np.eye(4), (nb, 4, 4))
        cum = list(root_cum[:prefix]) if bi > 0 else []
        for k in range(prefix, len(br.rows)):
            theta, a, d = (v if i < 0 else v + params[:, i]
                           for v, i in zip(table.rest[k], table.ids[k]))
            cur = cur @ _dh_matrices_batch(nb, a, d, *table.twist[k], theta)
            cum.append(cur)
        if bi == 0:
            root_cum = cum
        for row_idx, kp in br.keypoint_map:
            kps[:, kp] = cum[row_idx][:, :3, 3]
        frames.append(cum)
    return kps, frames


def chain_vjp(topology: SkeletonTopology, kps: np.ndarray, frames: list[list[np.ndarray]],
              grad: np.ndarray) -> np.ndarray:
    """Gradient (B, 48) of the parameters, given ``chain_frames``' output and
    the gradient (B, 16, 3) of its keypoints.

    The geometric Jacobian of the modified-DH chain (Siciliano et al.,
    *Robotics: Modelling, Planning and Control*, 3.1): with row k's
    cumulative frame axes x_k, z_k and origin o_k, a keypoint p that row k
    moves has dp/dtheta_k = z_k x (p - o_k), dp/dd_k = z_k and
    dp/da_k = x_{k-1}.  Each keypoint is counted in the branch that emits it,
    over all of its rows, shared ones included.
    """
    nb = kps.shape[0]
    out = np.zeros((nb, N_PARAMS))
    for br, table, cum in zip(topology.branches, _tables(topology), frames):
        rows, kp = (np.array(c) for c in zip(*br.keypoint_map))
        # force and moment of the keypoints each row moves: sums over rows >= k
        force = np.zeros((nb, len(cum), 3))
        moment = np.zeros((nb, len(cum), 3))
        force[:, rows] = grad[:, kp]
        moment[:, rows] = np.cross(kps[:, kp], grad[:, kp])
        force = np.cumsum(force[:, ::-1], axis=1)[:, ::-1]
        moment = np.cumsum(moment[:, ::-1], axis=1)[:, ::-1]
        f = np.stack(cum, axis=1)
        z, o = f[:, :, :3, 2], f[:, :, :3, 3]
        x_prev = np.concatenate([np.broadcast_to([1.0, 0.0, 0.0], (nb, 1, 3)), f[:, :-1, :3, 0]],
                                axis=1)
        for name, axis, g in (("theta", z, moment - np.cross(o, force)), ("d", z, force),
                              ("a", x_prev, force)):
            ids = table.ids[:, _FIELDS.index(name)]
            out[:, ids[ids >= 0]] += np.sum(axis * g, axis=-1)[:, ids >= 0]
    return out


def fk(topology: SkeletonTopology, params: Tensor, globals_: Tensor) -> Tensor:
    """Forward kinematics as one tape node: (N, 48) deltas and (N, 6) global
    values to (N, 16, 3) keypoints.

    Forward: ``chain_frames``, then the global rotation Rx Ry Rz and the
    translation.  Backward: ``chain_vjp`` for the parameters; an angle of
    the global rotation turns the posed point q about its world axis w
    (x, Rx y, Rx Ry z), so dq = w x (q - translation).
    """
    g = globals_.values
    kps, frames = chain_frames(topology, params.values)
    rot = rotation_xyz(g[:, 0], g[:, 1], g[:, 2])
    pose = kps @ np.swapaxes(rot, -1, -2) + g[:, None, 3:6]

    def bwd(grad):
        if globals_.requires_grad:
            m = np.cross(pose - g[:, None, 3:6], grad).sum(axis=1)
            cx, sx, cy, sy = np.cos(g[:, 0]), np.sin(g[:, 0]), np.cos(g[:, 1]), np.sin(g[:, 1])
            g_rot = np.stack([m[:, 0], cx * m[:, 1] + sx * m[:, 2],
                              sy * m[:, 0] - sx * cy * m[:, 1] + cx * cy * m[:, 2]], axis=1)
            globals_.accumulate(np.concatenate([g_rot, grad.sum(axis=1)], axis=1))
        if params.requires_grad:
            params.accumulate(chain_vjp(topology, kps, frames, grad @ rot))

    return ad.node("fk", pose, (params, globals_), bwd)


def forward_kinematics_batch(topology: SkeletonTopology, params, globals_) -> np.ndarray:
    """``fk`` of (B, 48) deltas and (B, 6) global values, (B, 16, 3).

    Serial evaluation is the batch-of-one case of this routine, so batched
    and per-sample results are bitwise identical.
    """
    params = np.asarray(params, dtype=np.float64)
    globals_ = np.asarray(globals_, dtype=np.float64)
    if params.ndim != 2 or params.shape[1] != N_PARAMS:
        raise ValueError(f"expected (batch, {N_PARAMS}) parameters, got {params.shape}")
    if globals_.shape != (params.shape[0], 6):
        raise ValueError(f"expected (batch, 6) global values, got {globals_.shape}")
    if not (np.all(np.isfinite(params)) and np.all(np.isfinite(globals_))):
        raise ValueError("parameters and global values must be finite")
    with Tape() as tape:
        return fk(topology, tape.const(params), tape.const(globals_)).values


def forward_kinematics(topology: SkeletonTopology, params, g: GlobalTransform) -> np.ndarray:
    """3D pose (16, 3) for one parameter vector and global transform."""
    return forward_kinematics_batch(topology, np.expand_dims(params, 0), g.as_array()[None])[0]


def bone_lengths(topology: SkeletonTopology, pose) -> np.ndarray:
    """Euclidean length of each bone of a pose (or batch of poses)."""
    pose = np.asarray(pose, dtype=np.float64)
    bones = np.asarray(topology.bone_list)
    vec = pose[..., bones[:, 1], :] - pose[..., bones[:, 0], :]
    return np.linalg.norm(vec, axis=-1)


# --------------------------------------------------------------------------
# Serialization (degrees/meters, one row per line)

def topology_to_text(topology: SkeletonTopology) -> str:
    lines = ["# dhpose topology v1",
             "# angles in degrees, lengths in meters",
             "# row <branch> <idx> <name> <a> <d> <alpha> <theta>"
             " <var_a> <var_d> <var_alpha> <var_theta> <theta_id> <len_id> <keypoint>"]
    for bi, br in enumerate(topology.branches):
        lines.append(f"branch {bi} {br.name} shared_prefix {br.shared_prefix_len}")
        kp_of = dict(br.keypoint_map)
        for r, row in enumerate(br.rows):
            lines.append(
                "row {} {} {} {:.9g} {:.9g} {:.9g} {:.9g} {:d} {:d} 0 {:d} {} {} {}".format(
                    bi, r, row.name, row.a, row.d,
                    np.rad2deg(row.alpha), np.rad2deg(row.theta),
                    row.a_id >= 0, row.d_id >= 0, row.theta_id >= 0,
                    row.theta_id, max(row.a_id, row.d_id), kp_of.get(r, -1)))
    for pid in range(len(topology.param_names)):
        lines.append(f"param {pid} {topology.param_names[pid]} {topology.param_kinds[pid]}")
    for parent, child in topology.bone_list:
        lines.append(f"bone {parent} {child}")
    for kp, name in enumerate(topology.keypoint_names):
        lines.append(f"keypoint {kp} {name}")
    return "\n".join(lines) + "\n"


def topology_from_text(text, source="<text>") -> SkeletonTopology:
    """Parse a table as ``topology_to_text`` writes it (``str`` or ``bytes``;
    line rules in ``textio``).  Branch, param and keypoint ids must run
    0..N-1, and a branch's line comes before its rows, in row order.  A
    row's flags are 0 or 1, alpha's is 0, and a field's flag is set exactly
    when the row gives it an id (``len_id`` serves a or d, not both)."""
    branches, params, keypoints = [], [], []  # (record, id, value) entries
    rows: dict[int, list] = {}
    kp_maps: dict[int, list] = {}
    bones: list[tuple[int, int]] = []
    for rec in records(text.splitlines(), source):
        kind = rec.tokens[0]
        if kind == "branch":
            _, bi, name, _, prefix = rec.fields("branch", int, str, "shared_prefix", int)
            branches.append((rec, bi, (name, prefix)))
            rows.setdefault(bi, [])
        elif kind == "row":
            _, bi, r, name, a, d, alpha, theta, *flags, tid, lid, kp = rec.fields(
                "row", int, int, str, *[float] * 4, *[int] * 7)
            if bi not in rows:
                raise rec.error(f"row of undeclared branch {bi}")
            if r != len(rows[bi]):
                raise rec.error(f"row {r} of branch {bi} where row {len(rows[bi])} belongs")
            if any(f not in (0, 1) for f in flags):
                raise rec.error(f"variable flags must be 0 or 1, got {flags}")
            var_a, var_d, var_alpha, var_theta = flags
            if var_alpha:
                raise rec.error("variable twist angles are not supported")
            if var_theta != (tid != -1) or (var_a or var_d) != (lid != -1):
                raise rec.error("a field's variable flag must be set exactly when it has an id")
            try:
                rows[bi].append(DhRow(
                    name=name, a=a, d=d, alpha=np.deg2rad(alpha), theta=np.deg2rad(theta),
                    theta_id=tid, a_id=lid if var_a else -1, d_id=lid if var_d else -1))
            except ValueError as exc:
                raise rec.error(str(exc)) from exc
            if kp >= 0:
                kp_maps.setdefault(bi, []).append((r, kp))
        elif kind == "param":
            _, pid, name, pkind = rec.fields("param", int, str, str)
            params.append((rec, pid, (name, pkind)))
        elif kind == "bone":
            bones.append(tuple(rec.fields("bone", int, int)[1:]))
        elif kind == "keypoint":
            _, kp, name = rec.fields("keypoint", int, str)
            keypoints.append((rec, kp, name))
        else:
            raise rec.error(f"unknown record {kind!r}")
    names, kinds = zip(*dense(params, "param", source))
    branch_meta = dense(branches, "branch", source)
    kp_names = tuple(dense(keypoints, "keypoint", source))
    try:
        topo = SkeletonTopology(
            branches=tuple(KinematicBranch(name=name, rows=tuple(rows[bi]),
                                           keypoint_map=tuple(kp_maps.get(bi, [])),
                                           shared_prefix_len=prefix)
                           for bi, (name, prefix) in enumerate(branch_meta)),
            param_names=names, param_kinds=kinds,
            bone_list=tuple(bones), keypoint_names=kp_names)
        topo.validate()
    except ValueError as exc:
        raise ParseError(source, None, str(exc)) from exc
    return topo


def load_topology(path) -> SkeletonTopology:
    return topology_from_text(Path(path).read_bytes(), path)


def topology_hash(topology: SkeletonTopology) -> str:
    """Stable 12-hex digest of the serialized table; stamped into data files."""
    return hashlib.sha256(topology_to_text(topology).encode()).hexdigest()[:12]


_DEFAULT: dict[str, SkeletonTopology] = {}


# Rest configuration: a T-pose facing +z with y up and x to the subject's
# left; the pelvis sits at the origin.  Twist and rest joint angles are
# multiples of 90 degrees chosen so that each 3-DOF cluster exposes three
# mutually orthogonal rotation axes and every bone leaves its joint along a
# coordinate direction.  Knee flexion is negative (heel swings backward),
# elbow flexion positive (forearm swings forward): the signs the constraint
# table relies on.
def default_topology() -> SkeletonTopology:
    """The shipped canonical topology (parsed from the packaged data file)."""
    if "topology" not in _DEFAULT:
        resource = resources.files("dhpose").joinpath("data/topology.txt")
        _DEFAULT["topology"] = topology_from_text(resource.read_text(), resource)
    return _DEFAULT["topology"]


def rest_pose(topology: SkeletonTopology) -> np.ndarray:
    """FK of the all-zero parameter vector under the identity transform."""
    return forward_kinematics(topology, np.zeros(N_PARAMS), GlobalTransform.identity())


def rest_pose_from_text(text, source="<text>") -> np.ndarray:
    """Parse ``keypoint INDEX NAME X Y Z`` lines (``str`` or ``bytes``; line
    rules in ``textio``) into a (K, 3) pose; indices must run 0..K-1."""
    entries = []
    for rec in records(text.splitlines(), source):
        _, kp, _, *xyz = rec.fields("keypoint", int, str, float, float, float)
        entries.append((rec, kp, xyz))
    return np.array(dense(entries, "keypoint", source))


def load_rest_pose(path) -> np.ndarray:
    return rest_pose_from_text(Path(path).read_bytes(), path)

