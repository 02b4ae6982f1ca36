"""Constraint-bounded pose generator, the two Wasserstein critics, and the
gradient-penalty training loop.

The generator maps a 128-d normal latent through a fully connected net to
48 raw parameter values plus 6 global pose values, squashes them into the
constraint ranges, and runs forward kinematics and pinhole projection.  In
video mode one latent emits a whole sequence: the 15 bone lengths are
produced once and shared across frames, the 33 joint angles and 6 global
values per frame.

The frame critic scores single poses from three streams (3D pose, bone
cosines, normalized 2D pose).  The motion critic has three two-stream
branches (sequence plus its first differences of the same three signals);
its score is the sum of the branch heads.  Both train with the
gradient-penalty objective; the motion terms are gated on by a step
schedule over epochs.

The pipeline from raw net output to critic streams is written once, over
autodiff tape ops: the split and squash (``_split_raw``), FK and the bone
cosines (one node each, forward the numpy geometry, backward in closed
form), projection, and the frame and motion streams.  The generator step
records it; inference, synthesis and the critic batches run the same
functions on constants on a throwaway tape (``generate_poses``,
``feature_batch``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import ShapeError, Tape, Tensor
from .camera import CameraIntrinsics, default_camera, project
from .constraints import ConstraintTable, count_violations, default_constraint_table, squash
from .dataset import RealData
from .features import AdjacentBonePairs, adjacent_bone_pairs, bone_vectors, joint_cosines
from .skeleton import (N_ANGLE_PARAMS, N_LENGTH_PARAMS, N_PARAMS, ROOT_KEYPOINT, SkeletonTopology,
                       chain_frames, chain_vjp, default_topology, forward_kinematics_batch,
                       rotation_xyz)

N_GLOBAL = 6


class TrainingDivergedError(RuntimeError):
    """Non-finite loss; carries a diagnostic snapshot dict."""

    def __init__(self, message: str, snapshot: dict):
        super().__init__(message)
        self.snapshot = snapshot


@dataclass(frozen=True)
class GlobalBounds:
    """Squash ranges for the global rotation (radians) and translation (m)."""

    lo: tuple = (-np.pi, -np.pi, -np.pi, -2.0, -1.0, 3.0)
    hi: tuple = (np.pi, np.pi, np.pi, 2.0, 1.0, 6.0)

    def __post_init__(self):
        for name in ("lo", "hi"):
            values = tuple(float(v) for v in getattr(self, name))
            if len(values) != N_GLOBAL:
                raise ValueError(f"bounds need {N_GLOBAL} {name!r} values, got {len(values)}")
            object.__setattr__(self, name, values)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)


def gamma_schedule(epoch: int, beta_epoch: int) -> int:
    """Motion-critic gate: 1 once the epoch counter reaches the threshold."""
    if epoch < 0:
        raise ValueError(f"epoch must be non-negative, got {epoch}")
    return 1 if epoch >= beta_epoch else 0


def sample_latent(count: int, z_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Independent standard-normal latents, deterministic under the rng seed."""
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    return rng.standard_normal((count, z_dim))


def _check_frames(mode: str, frames: int) -> None:
    """Video sequences have at least 2 frames; single mode has exactly 1."""
    if mode not in ("single", "video"):
        raise ValueError(f"mode must be 'single' or 'video', got {mode!r}")
    if mode == "video" and frames < 2:
        raise ValueError(f"video mode needs at least 2 frames, got {frames}")
    if mode == "single" and frames != 1:
        raise ValueError(f"single mode uses exactly 1 frame, got {frames}")


@dataclass
class TrainConfig:
    mode: str = "single"            # "single" | "video"
    frames: int = 1                 # sequence length in video mode (9 or 27 typical)
    alpha: float = 10.0             # gradient-penalty weight
    beta_epoch: int = 4             # epoch at which the motion critic turns on
    z_dim: int = 128
    batch_size: Optional[int] = None  # default 1024 single / 512 video
    critic_steps: int = 5           # critic updates per generator update
    lr: float = 1e-4
    epochs: int = 10
    seed: int = 0
    gen_hidden: tuple = (512, 512)
    enc_hidden: tuple = (256, 256)
    head_hidden: tuple = (128,)
    bounds: GlobalBounds = field(default_factory=GlobalBounds)
    out_dir: Optional[str] = None

    def resolved_batch(self) -> int:
        if self.batch_size is not None:
            return self.batch_size
        return 1024 if self.mode == "single" else 512

    def validate(self) -> None:
        _check_frames(self.mode, self.frames)
        positives = dict(alpha=self.alpha, z_dim=self.z_dim, critic_steps=self.critic_steps,
                         lr=self.lr, epochs=self.epochs, batch=self.resolved_batch(),
                         beta_epoch=self.beta_epoch)
        for name, value in positives.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.beta_epoch > self.epochs:
            raise ValueError(f"beta_epoch {self.beta_epoch} exceeds epochs {self.epochs}")
        for name in ("gen_hidden", "enc_hidden", "head_hidden"):
            widths = getattr(self, name)
            if not isinstance(widths, tuple) or not all(isinstance(w, int) and w > 0
                                                        for w in widths):
                raise ValueError(f"{name} must be a tuple of positive layer widths, got {widths!r}")
        if not self.enc_hidden:
            raise ValueError("enc_hidden needs at least one layer: the critic heads read its width")

    def to_json(self) -> str:
        d = self.__dict__.copy()
        d["bounds"] = {"lo": list(self.bounds.lo), "hi": list(self.bounds.hi)}
        for k in ("gen_hidden", "enc_hidden", "head_hidden"):
            d[k] = list(d[k])
        return json.dumps(d, indent=2)

    @classmethod
    def from_json(cls, text: str, source="<json>") -> "TrainConfig":
        """Parse ``to_json`` output (keys left out keep their defaults); text
        that does not make a valid config raises ValueError naming ``source``."""
        try:
            d = json.loads(text)
            if not isinstance(d, dict):
                raise ValueError(f"expected a JSON object, got {type(d).__name__}")
            if "bounds" in d:
                d["bounds"] = GlobalBounds(**d["bounds"])
            for k in ("gen_hidden", "enc_hidden", "head_hidden"):
                if isinstance(d.get(k), list):
                    d[k] = tuple(d[k])
            cfg = cls(**d)
            cfg.validate()
        except (ValueError, TypeError) as exc:  # TypeError: an unknown key or a mistyped value
            raise ValueError(f"{source}: bad training config: {exc}") from exc
        return cfg


# --------------------------------------------------------------------------
# Generator

def _out_width(mode: str, frames: int) -> int:
    """Raw generator outputs: 48 parameters and 6 globals per pose, or per
    sequence 15 shared bone lengths and per frame 33 angles and 6 globals."""
    if mode == "single":
        return N_PARAMS + N_GLOBAL
    return N_LENGTH_PARAMS + frames * (N_ANGLE_PARAMS + N_GLOBAL)


@dataclass
class DhGenerator:
    net: nn.Mlp
    topology: SkeletonTopology
    table: ConstraintTable
    camera: CameraIntrinsics
    mode: str = "single"
    frames: int = 1
    bounds: GlobalBounds = field(default_factory=GlobalBounds)

    def __post_init__(self):
        _check_frames(self.mode, self.frames)
        need = _out_width(self.mode, self.frames)
        if self.net.out_dim != need:
            raise ValueError(f"generator net emits {self.net.out_dim} values; "
                             f"{self.mode} mode with {self.frames} frames needs {need}")


def build_generator(cfg: TrainConfig, rng: np.random.Generator,
                    topology: Optional[SkeletonTopology] = None,
                    table: Optional[ConstraintTable] = None,
                    camera: Optional[CameraIntrinsics] = None) -> DhGenerator:
    topology = topology or default_topology()
    table = table or default_constraint_table()
    camera = camera or default_camera()
    frames = cfg.frames if cfg.mode == "video" else 1
    sizes = [cfg.z_dim, *cfg.gen_hidden, _out_width(cfg.mode, frames)]
    acts = ["tanh"] * len(cfg.gen_hidden) + ["linear"]
    net = nn.mlp_init(sizes, acts, rng)
    return DhGenerator(net=net, topology=topology, table=table, camera=camera,
                       mode=cfg.mode, frames=frames, bounds=cfg.bounds)


@dataclass
class GenOutput:
    """Squashed parameters, global values, and the resulting pose pair.

    Shapes are (B, ...) in single mode and (B, T, ...) in video mode.
    """

    params: np.ndarray
    globals_: np.ndarray
    pose3d: np.ndarray
    pose2d: np.ndarray


def _split_raw(gen: DhGenerator, raw: Tensor) -> tuple[Tensor, Tensor]:
    """Raw net output (B, out) to squashed parameters (N, 48) and global
    values (N, 6), one row per pose: N = B, or B*T in video mode, where each
    sequence's 15 bone lengths are emitted once and shared by its frames."""
    table = gen.table
    glo_lo, glo_hi = gen.bounds.arrays()
    if gen.mode == "single":
        return (squash(raw[:, :N_PARAMS], table.lo, table.hi),
                squash(raw[:, N_PARAMS:], glo_lo, glo_hi))
    b, t = raw.shape[0], gen.frames
    lengths = squash(raw[:, :N_LENGTH_PARAMS], table.lo[N_ANGLE_PARAMS:],
                     table.hi[N_ANGLE_PARAMS:])
    per = ad.reshape(raw[:, N_LENGTH_PARAMS:], (b * t, N_ANGLE_PARAMS + N_GLOBAL))
    angles = squash(per[:, :N_ANGLE_PARAMS], table.lo[:N_ANGLE_PARAMS],
                    table.hi[:N_ANGLE_PARAMS])
    shared = ad.mul(ad.reshape(lengths, (b, 1, N_LENGTH_PARAMS)), np.ones((b, t, 1)))
    params = ad.concat([angles, ad.reshape(shared, (b * t, N_LENGTH_PARAMS))], axis=1)
    return params, squash(per[:, N_ANGLE_PARAMS:], glo_lo, glo_hi)


def generate_poses(gen: DhGenerator, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Latents to squashed (params, globals, pose3d), no projection yet.

    The net runs in its weights' dtype, as in ``generate_on_tape``; its raw
    output is cast to float64, and everything after it is float64."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != gen.net.in_dim:
        raise ShapeError(f"latent shape {z.shape} does not match z_dim {gen.net.in_dim}")
    raw = nn.mlp_eval(gen.net, z).astype(np.float64)
    with Tape() as tape:
        params, globals_ = (x.values for x in _split_raw(gen, tape.const(raw)))
    pose3d = forward_kinematics_batch(gen.topology, params, globals_)
    if gen.mode == "video":
        return tuple(x.reshape(z.shape[0], gen.frames, *x.shape[1:])
                     for x in (params, globals_, pose3d))
    return params, globals_, pose3d


def generate(gen: DhGenerator, z) -> GenOutput:
    """Latents to constraint-valid 2D-3D pose pairs (inference path).

    A joint in front of the camera's near plane raises DepthViolationError;
    bulk synthesis filters and redraws such samples instead (see
    ``dataset.synthesize_dataset``).
    """
    from .camera import project_pose

    params, globals_, pose3d = generate_poses(gen, z)
    pose2d = project_pose(pose3d, gen.camera)
    return GenOutput(params=params, globals_=globals_, pose3d=pose3d, pose2d=pose2d)


# --------------------------------------------------------------------------
# Differentiable generator path (autodiff tape)

def _fk_tape(topology: SkeletonTopology, params: Tensor, globals_: Tensor) -> Tensor:
    """Forward kinematics as one tape node: (N, 48) and (N, 6) to (N, 16, 3).

    Forward: the numpy FK.  Backward: ``chain_vjp`` for the parameters; an
    angle of the global rotation Rx Ry Rz turns the posed point q about its
    world axis w (x, Rx y, Rx Ry z), so dq = w x (q - translation).
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


def _cosines(pose: Tensor, pairs: AdjacentBonePairs) -> Tensor:
    """Adjacent-bone cosines of (N, K, 3) poses as one tape node.

    The forward pass is ``joint_cosines``, with its degenerate-bone and
    rounding checks.  The backward pass is the derivative of a normalized
    dot product: d cos(a, b) / da = (b/|b| - cos a/|a|) / |a|.
    """
    cos = joint_cosines(pose.values, pairs)

    def bwd(g):
        if not pose.requires_grad:
            return
        ia, ib = np.asarray(pairs.pairs).T
        bones = np.asarray(pairs.bones)
        vec = bone_vectors(pose.values, pairs)
        inv = 1.0 / np.linalg.norm(vec, axis=-1, keepdims=True)
        unit = vec * inv
        c, g = cos[..., None], g[..., None]
        ga = g * (unit[:, ib] - c * unit[:, ia]) * inv[:, ia]
        gb = g * (unit[:, ia] - c * unit[:, ib]) * inv[:, ib]
        # keypoint-by-bone incidence: +1 at the child, -1 at the parent
        inc = np.eye(pose.shape[1])[:, bones[:, 1]] - np.eye(pose.shape[1])[:, bones[:, 0]]
        pose.accumulate(inc[:, ia] @ ga + inc[:, ib] @ gb)

    return ad.node("cosines", cos, (pose,), bwd)


# The critics' input streams by name: ``frame_streams`` emits FRAME_STREAMS,
# ``motion_streams`` MOTION_STREAMS.  Critic inputs are dicts keyed by them.
FRAME_STREAMS = ("x3d", "xcos", "x2d")
MOTION_STREAMS = ("seq3d", "diff3d", "cosseq", "cosdiff", "seq2d", "root2d")


def frame_streams(pose3d: Tensor, pose2d: Tensor, cam,
                  pairs: AdjacentBonePairs) -> tuple[Tensor, Tensor, Tensor]:
    """The frame critic's streams of (N, K, 3) and (N, K, 2) poses: x3d, the
    flattened 3D pose; xcos, the adjacent-bone cosines; x2d, the 2D pose in
    dimensionless image coordinates (uv - principal point) / focal.

    ``cam`` is one ``CameraIntrinsics``, or (N, 5) rows fx fy cx cy z_min,
    one per pose."""
    n = pose3d.shape[0]
    if pose2d.shape[:2] != pose3d.shape[:2]:
        raise ShapeError(f"2D poses {pose2d.shape} do not pair with 3D poses {pose3d.shape}")
    if isinstance(cam, CameraIntrinsics):
        cam = cam.as_array()[None]
    elif np.shape(cam) != (n, 5):
        raise ShapeError(f"camera batch {np.shape(cam)} does not match {n} poses")
    cams = np.asarray(cam, dtype=np.float64)[:, None, :]
    x2d = ad.div(ad.sub(pose2d, cams[..., 2:4]), cams[..., 0:2])
    return ad.reshape(pose3d, (n, -1)), _cosines(pose3d, pairs), ad.reshape(x2d, (n, -1))


def motion_streams(x3d: Tensor, xcos: Tensor, x2d: Tensor, frames: int) -> dict:
    """The motion critic's six streams from the frame streams of B sequences
    of ``frames`` poses (N = B * frames rows): each sequence, and its
    frame-to-frame differences; the 2D differences are the root keypoint's."""
    b = x3d.shape[0] // frames
    seq3d, cosseq, seq2d = (ad.reshape(x, (b, frames, x.shape[1])) for x in (x3d, xcos, x2d))
    root = seq2d[:, :, 2 * ROOT_KEYPOINT:2 * ROOT_KEYPOINT + 2]

    def diff(seq: Tensor) -> Tensor:
        return ad.reshape(ad.sub(seq[:, 1:], seq[:, :-1]), (b, -1))

    return dict(zip(MOTION_STREAMS, (ad.reshape(seq3d, (b, -1)), diff(seq3d),
                                     ad.reshape(cosseq, (b, -1)), diff(cosseq),
                                     ad.reshape(seq2d, (b, -1)), diff(root))))


def _streams(pose3d: Tensor, pose2d: Tensor, cam, pairs: AdjacentBonePairs,
             frames: Optional[int]) -> dict:
    """The critic streams of (N, K, 3) and (N, K, 2) poses by name: the frame
    streams, then, unless ``frames`` is None (single mode), the motion
    streams of their N / frames sequences."""
    streams = dict(zip(FRAME_STREAMS, frame_streams(pose3d, pose2d, cam, pairs)))
    if frames is not None:
        streams.update(motion_streams(*(streams[k] for k in FRAME_STREAMS), frames))
    return streams


@dataclass
class TapeGenOutput:
    """Generator pipeline on the tape, down to the critic input streams."""

    params: Tensor       # (N, 48) squashed deltas (N = B or B*T)
    globals_: Tensor     # (N, 6)
    pose3d: Tensor       # (N, 16, 3)
    streams: dict        # the ``_streams`` dict, in the net's dtype


def generate_on_tape(gen: DhGenerator, z, tape: Tape, gen_params: list,
                     pairs: AdjacentBonePairs) -> TapeGenOutput:
    """The net runs with the ``nn.mlp_leaves`` list ``gen_params``, in its
    dtype, and the critic streams come out in it; squash, FK, the depth check
    and projection run in float64."""
    dtype = gen_params[0][0].values.dtype
    raw, _ = nn.mlp_apply(gen.net, z, tape, gen_params)
    params, globals_ = _split_raw(gen, ad.astype(raw, np.float64))
    pose3d = _fk_tape(gen.topology, params, globals_)
    if np.any(pose3d.values[:, :, 2] < gen.camera.z_min):
        raise TrainingDivergedError(
            "generated joint in front of the near plane; widen the translation bounds",
            {"min_depth": float(pose3d.values[:, :, 2].min()), "z_min": gen.camera.z_min})
    streams = _streams(pose3d, project(pose3d, gen.camera), gen.camera, pairs,
                       gen.frames if gen.mode == "video" else None)
    # motion streams are cast first: this keeps the tape's node order
    streams = {k: ad.astype(streams[k], dtype) for k in (*MOTION_STREAMS, *FRAME_STREAMS)
               if k in streams}
    return TapeGenOutput(params=params, globals_=globals_, pose3d=pose3d, streams=streams)


# --------------------------------------------------------------------------
# Critics

class _Critic:
    def nets(self) -> dict[str, nn.Mlp]:
        """The nets by name, in field order (the order of their parameters)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class FrameCritic(_Critic):
    """Three stream encoders (3D pose, cosines, 2D pose) + fusion head."""

    enc3d: nn.Mlp
    enc_cos: nn.Mlp
    enc2d: nn.Mlp
    head: nn.Mlp

    # ((streams, their encoders, head), ...): the score is the sum of the heads
    BRANCHES = ((FRAME_STREAMS, ("enc3d", "enc_cos", "enc2d"), "head"),)


@dataclass
class MotionCritic(_Critic):
    """Three two-stream branches; the score is the sum of the branch heads."""

    enc3d_seq: nn.Mlp
    enc3d_diff: nn.Mlp
    head3d: nn.Mlp
    enc_cos_seq: nn.Mlp
    enc_cos_diff: nn.Mlp
    head_cos: nn.Mlp
    enc2d_seq: nn.Mlp
    enc2d_diff: nn.Mlp
    head2d: nn.Mlp

    # as FrameCritic's; each branch reads a sequence and its differences
    BRANCHES = ((("seq3d", "diff3d"), ("enc3d_seq", "enc3d_diff"), "head3d"),
                (("cosseq", "cosdiff"), ("enc_cos_seq", "enc_cos_diff"), "head_cos"),
                (("seq2d", "root2d"), ("enc2d_seq", "enc2d_diff"), "head2d"))


def _encoder(in_dim: int, hidden: tuple, rng) -> nn.Mlp:
    return nn.mlp_init([in_dim, *hidden], ["lrelu"] * len(hidden), rng)


def _head(in_dim: int, hidden: tuple, rng) -> nn.Mlp:
    return nn.mlp_init([in_dim, *hidden, 1], ["lrelu"] * len(hidden) + ["linear"], rng)


def build_frame_critic(cfg: TrainConfig, n_pairs: int, rng) -> FrameCritic:
    e = cfg.enc_hidden[-1]
    return FrameCritic(
        enc3d=_encoder(48, cfg.enc_hidden, rng),
        enc_cos=_encoder(n_pairs, cfg.enc_hidden, rng),
        enc2d=_encoder(32, cfg.enc_hidden, rng),
        head=_head(3 * e, cfg.head_hidden, rng))


def build_motion_critic(cfg: TrainConfig, n_pairs: int, rng) -> MotionCritic:
    t = cfg.frames
    e = cfg.enc_hidden[-1]
    return MotionCritic(
        enc3d_seq=_encoder(t * 48, cfg.enc_hidden, rng),
        enc3d_diff=_encoder((t - 1) * 48, cfg.enc_hidden, rng),
        head3d=_head(2 * e, cfg.head_hidden, rng),
        enc_cos_seq=_encoder(t * n_pairs, cfg.enc_hidden, rng),
        enc_cos_diff=_encoder((t - 1) * n_pairs, cfg.enc_hidden, rng),
        head_cos=_head(2 * e, cfg.head_hidden, rng),
        enc2d_seq=_encoder(t * 32, cfg.enc_hidden, rng),
        enc2d_diff=_encoder((t - 1) * 2, cfg.enc_hidden, rng),
        head2d=_head(2 * e, cfg.head_hidden, rng))


def critic_leaves(tape: Tape, critic, var: bool = True) -> dict[str, list]:
    """Each net's ``nn.mlp_leaves`` list, by field name in field order."""
    return {name: nn.mlp_leaves(tape, net, var) for name, net in critic.nets().items()}


def _fused_score(critic, inputs, encoders, head: str, tape: Tape,
                 params: Optional[dict]) -> tuple[Tensor, dict]:
    """Encoders over their inputs, concatenated into a head: the score (B, 1)
    and the traces its input gradients need.  ``params`` is a
    ``critic_leaves`` dict, or None for the weights as constants."""
    params = params or {}
    outs, traces = zip(*(nn.mlp_apply(getattr(critic, name), x, tape, params.get(name))
                         for x, name in zip(inputs, encoders)))
    score, head_trace = nn.mlp_apply(getattr(critic, head), ad.concat(outs, axis=1), tape,
                                     params.get(head))
    return score, {"traces": traces, "head_trace": head_trace,
                   "widths": [out.shape[1] for out in outs], "score": score}


def score(critic, streams: dict, tape: Tape,
          params: Optional[dict] = None) -> tuple[Tensor, list]:
    """Per-sample score (B, 1), the sum of the critic's ``BRANCHES`` heads,
    plus each branch's ``_fused_score`` parts, in branch order."""
    total, parts = None, []
    for keys, encoders, head in critic.BRANCHES:
        s, part = _fused_score(critic, [streams[k] for k in keys], encoders, head, tape, params)
        total = s if total is None else ad.add(total, s)
        parts.append(part)
    return total, parts


def penalty(critic, streams: dict, alpha: float, tape: Tape,
            params: Optional[dict] = None) -> Tensor:
    """The WGAN-GP penalty alpha * mean((|g| - 1)^2) at the given
    (interpolated) streams, g each sample's gradient with respect to the
    inputs of every encoder; each head must have a scalar output."""
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    grads = []
    for part in score(critic, streams, tape, params)[1]:
        if part["score"].shape[1] != 1:
            raise ValueError(f"the penalty needs scalar critic scores, got {part['score'].shape}")
        g_h = nn.mlp_vjp(part["head_trace"], tape.const(np.ones_like(part["score"].values)))
        ends = np.cumsum(part["widths"])
        grads += [nn.mlp_vjp(trace, g_h[:, end - width:end])
                  for trace, width, end in zip(part["traces"], part["widths"], ends)]
    total = ad.sum_(ad.square(grads[0]), axis=1)
    for g in grads[1:]:
        total = ad.add(total, ad.sum_(ad.square(g), axis=1))
    return ad.mul(ad.mean(ad.square(ad.sub(ad.sqrt(total), 1.0))), alpha)


# perfbench times each critic's scoring and penalty under these names,
# patching them by module attribute; a caller scoring one critic calls its
# alias, so the time lands in that critic's span.
frame_score = motion_score = score
frame_penalty = motion_penalty = penalty


def discriminate(critic, streams: dict) -> np.ndarray:
    """Deterministic critic scores, (B,), numpy in and out, in the weights' dtype."""
    with Tape() as tape:
        return score(critic, streams, tape)[0].values[:, 0]


# --------------------------------------------------------------------------
# Batches and losses

def feature_batch(pose3d, pose2d, cam, pairs: AdjacentBonePairs, video: bool = False) -> dict:
    """Numpy critic streams of (B, K, 3/2) poses, or of (B, T, K, 3/2)
    sequences with their motion streams when ``video``: the stream functions
    run on constants.  ``cam`` is one ``CameraIntrinsics`` or (B, 5) rows
    (see ``frame_streams``), one per pose or sequence."""
    pose3d = np.asarray(pose3d, dtype=np.float64)
    pose2d = np.asarray(pose2d, dtype=np.float64)
    kp = pose3d.shape[-2]
    if not isinstance(cam, CameraIntrinsics):  # a sequence's frames share its row
        cam = np.repeat(np.asarray(cam, dtype=np.float64), pose3d[0].size // (kp * 3), axis=0)
    with Tape() as tape:
        streams = _streams(tape.const(pose3d.reshape(-1, kp, 3)),
                           tape.const(pose2d.reshape(-1, kp, 2)), cam, pairs,
                           pose3d.shape[1] if video else None)
    return {k: v.values for k, v in streams.items()}


def _check_matching(real: dict, fake: dict) -> None:
    if real.keys() != fake.keys():
        raise ShapeError(f"real/fake batches differ in streams {sorted(real.keys() ^ fake.keys())}")
    for k in real:
        if real[k].shape != fake[k].shape:
            raise ShapeError(f"real/fake {k} shapes differ: {real[k].shape} vs {fake[k].shape}")


def _interpolate(real: dict, fake: dict, rng: np.random.Generator, motion: bool) -> dict:
    """The penalty inputs: per sample eps * real + (1 - eps) * fake with eps
    uniform, one draw for the frame streams and, when ``motion``, one for
    the motion streams."""
    hat = {}
    for group in (FRAME_STREAMS, MOTION_STREAMS) if motion else (FRAME_STREAMS,):
        eps = rng.uniform(size=(real[group[0]].shape[0], 1))
        for k in group:
            e = eps.astype(real[k].dtype, copy=False)
            hat[k] = e * real[k] + (1.0 - e) * fake[k]
    return hat


def critic_loss(ds: FrameCritic, dm: Optional[MotionCritic], real: dict,
                fake: dict, alpha: float, gamma: int, rng: np.random.Generator,
                tape: Tape, ds_params: Optional[dict] = None,
                dm_params: Optional[dict] = None, scores: Optional[dict] = None) -> Tensor:
    """Critic objective: E[D(fake)] - E[D(real)] + alpha * penalty, with the
    motion-critic terms gated by ``gamma``.

    Interpolates real and fake per sample with uniform weights for the
    penalty inputs.  A ``scores`` dict, if given, receives the per-sample
    frame scores (B,) of this forward pass under ``"real"`` and ``"fake"``.
    """
    _check_matching(real, fake)
    motion = bool(gamma and dm is not None)
    if motion and not real.keys() >= set(MOTION_STREAMS):
        raise ShapeError("motion terms are on but the batches carry no motion streams")
    hat = _interpolate(real, fake, rng, motion)
    s_fake, _ = frame_score(ds, fake, tape, ds_params)
    s_real, _ = frame_score(ds, real, tape, ds_params)
    if scores is not None:
        scores["real"], scores["fake"] = s_real.values[:, 0], s_fake.values[:, 0]
    pen = frame_penalty(ds, hat, alpha, tape, ds_params)
    loss = ad.add(ad.sub(ad.mean(s_fake), ad.mean(s_real)), pen)
    if motion:
        m_fake, _ = motion_score(dm, fake, tape, dm_params)
        m_real, _ = motion_score(dm, real, tape, dm_params)
        m_pen = motion_penalty(dm, hat, alpha, tape, dm_params)
        loss = ad.add(loss, ad.add(ad.sub(ad.mean(m_fake), ad.mean(m_real)), m_pen))
    return loss


def generator_loss(ds: FrameCritic, dm: Optional[MotionCritic], fake: TapeGenOutput,
                   gamma: int, tape: Tape, ds_params: Optional[dict] = None,
                   dm_params: Optional[dict] = None) -> Tensor:
    """Adversarial complement: -E[D_s(fake)] - gamma * E[D_m(fake)].

    The critics score with ``ds_params``/``dm_params`` when given, else with
    their weights as constants.
    """
    s, _ = frame_score(ds, fake.streams, tape, ds_params)
    loss = ad.neg(ad.mean(s))
    if gamma and dm is not None:
        if not fake.streams.keys() >= set(MOTION_STREAMS):
            raise ShapeError("motion terms are on but the generator emitted no sequences")
        m, _ = motion_score(dm, fake.streams, tape, dm_params)
        loss = ad.sub(loss, ad.mean(m))
    return loss


# --------------------------------------------------------------------------
# Training loop

@dataclass
class TrainState:
    config: TrainConfig
    gen: DhGenerator
    ds: FrameCritic
    dm: Optional[MotionCritic]
    pairs: AdjacentBonePairs
    adam_gen: nn.AdamState
    adam_ds: nn.AdamState
    adam_dm: Optional[nn.AdamState]
    rng: np.random.Generator
    epoch: int = 0


def init_train_state(config: TrainConfig,
                     topology: Optional[SkeletonTopology] = None,
                     table: Optional[ConstraintTable] = None,
                     camera: Optional[CameraIntrinsics] = None) -> TrainState:
    config.validate()
    rng = np.random.default_rng(config.seed)
    gen = build_generator(config, rng, topology, table, camera)
    pairs = adjacent_bone_pairs(gen.topology)
    n_pairs = len(pairs.pairs)
    ds = build_frame_critic(config, n_pairs, rng)
    dm = build_motion_critic(config, n_pairs, rng) if config.mode == "video" else None
    return TrainState(config=config, gen=gen, ds=ds, dm=dm, pairs=pairs,
                      adam_gen=nn.AdamState(lr=config.lr),
                      adam_ds=nn.AdamState(lr=config.lr),
                      adam_dm=nn.AdamState(lr=config.lr) if dm else None,
                      rng=rng)


def _abort_if_bad(value: float, what: str, state: TrainState, extra: dict):
    if not np.isfinite(value):
        snapshot = {"what": what, "value": float(value), "epoch": state.epoch, **extra}
        if state.config.out_dir:
            import os
            path = os.path.join(state.config.out_dir, "diverged.json")
            with open(path, "w") as fh:
                json.dump(snapshot, fh, indent=2)
        raise TrainingDivergedError(f"non-finite {what} at epoch {state.epoch}", snapshot)


def _real_minibatch(data: RealData, idx: np.ndarray, pairs: AdjacentBonePairs,
                    video: bool) -> dict:
    return feature_batch(data.pose3d[idx], data.pose2d[idx], data.cams[idx], pairs, video)


def _fake_minibatch(state: TrainState, batch: int, pairs: AdjacentBonePairs,
                    video: bool) -> tuple[dict, int]:
    z = sample_latent(batch, state.config.z_dim, state.rng)
    out = generate(state.gen, z)
    bad = count_violations(out.params.reshape(-1, N_PARAMS), state.gen.table)
    fb = feature_batch(out.pose3d, out.pose2d, state.gen.camera, pairs, video=video)
    return fb, bad


def critic_update(state: TrainState, real: dict, fake: dict, gamma: int) -> dict:
    """One critic step in the weights' dtype; Adam updates the weights."""
    with Tape() as tape:
        ds_leaves = critic_leaves(tape, state.ds)
        dm_leaves = critic_leaves(tape, state.dm) if (gamma and state.dm) else None
        scores = {}
        loss = critic_loss(state.ds, state.dm if gamma else None, real, fake,
                           state.config.alpha, gamma, state.rng, tape, ds_leaves, dm_leaves,
                           scores)
        value = float(loss.values)
        _abort_if_bad(value, "critic loss", state, {})
        ad.backward(tape, loss)
    nn.adam_update(state.adam_ds, state.ds.nets().values(), ds_leaves.values())
    if dm_leaves is not None:
        nn.adam_update(state.adam_dm, state.dm.nets().values(), dm_leaves.values())
    # separation measured by the step's own forward pass, before its update
    d_gap = float(scores["real"].mean() - scores["fake"].mean())
    return {"loss": value, "d_gap": d_gap}


def generator_update(state: TrainState, batch: int, gamma: int) -> dict:
    """One generator step: net and critics in their weights' dtype, geometry
    in float64; Adam updates the generator's weights."""
    dm = state.dm if gamma else None
    with Tape() as tape:
        gen_leaves = nn.mlp_leaves(tape, state.gen.net)
        z = sample_latent(batch, state.config.z_dim, state.rng)
        fake = generate_on_tape(state.gen, z, tape, gen_leaves, state.pairs)
        # the critics score with constant weights: they get no gradient here
        ds_consts = critic_leaves(tape, state.ds, var=False)
        dm_consts = None if dm is None else critic_leaves(tape, dm, var=False)
        loss = generator_loss(state.ds, dm, fake, gamma, tape, ds_consts, dm_consts)
        value = float(loss.values)
        _abort_if_bad(value, "generator loss", state, {})
        violations = count_violations(fake.params.values, state.gen.table)
        ad.backward(tape, loss)
    nn.adam_update(state.adam_gen, [state.gen.net], [gen_leaves])
    return {"gen_loss": value, "violations": violations}


def train_epoch(state: TrainState, data: RealData, synth_dir: Optional[str] = None) -> dict:
    """One epoch: alternating critic/generator updates plus end-of-epoch synthesis.

    Synthesizes exactly as many pairs as the training corpus holds and writes
    them as a dataset file when ``synth_dir`` (or config.out_dir) is set.
    The metric ``d_gap`` is the mean over the epoch's critic steps of the
    real minus fake mean frame score, each measured by the step's own
    forward pass before its update.
    """
    if len(data) == 0:
        raise ValueError("training data is empty")
    cfg = state.config
    video = cfg.mode == "video"
    if video != data.video:
        raise ValueError(f"config mode {cfg.mode!r} does not match the data layout")
    gamma = gamma_schedule(state.epoch, cfg.beta_epoch) if video else 0
    batch = min(cfg.resolved_batch(), len(data))
    steps = max(1, len(data) // batch)
    d_gaps, gen_losses = [], []
    violations = 0
    for _ in range(steps):
        for _ in range(cfg.critic_steps):
            idx = state.rng.integers(0, len(data), size=batch)
            real = _real_minibatch(data, idx, state.pairs, video)
            fake, bad = _fake_minibatch(state, batch, state.pairs, video)
            violations += bad
            m = critic_update(state, real, fake, gamma)
            d_gaps.append(m["d_gap"])
        g = generator_update(state, batch, gamma)
        violations += g["violations"]
        gen_losses.append(g["gen_loss"])
    # penalty magnitude at the end of the epoch, for the log
    idx = state.rng.integers(0, len(data), size=batch)
    real = _real_minibatch(data, idx, state.pairs, video)
    fake, _ = _fake_minibatch(state, batch, state.pairs, video)
    motion = bool(gamma and state.dm is not None)
    hat = _interpolate(real, fake, state.rng, motion)
    with Tape() as tape:
        frame_pen = float(frame_penalty(state.ds, hat, cfg.alpha, tape).values)
    if motion:
        with Tape() as tape:
            motion_pen = float(motion_penalty(state.dm, hat, cfg.alpha, tape).values)
        m_real = discriminate(state.dm, real)
        m_fake = discriminate(state.dm, fake)
        motion_gap = float(m_real.mean() - m_fake.mean())
    else:
        motion_pen = 0.0
        motion_gap = 0.0

    metrics = {
        "epoch": state.epoch,
        "gamma": gamma,
        "d_gap": float(np.mean(d_gaps)),
        "penalty": frame_pen,
        "motion_gap": motion_gap,
        "motion_penalty": motion_pen,
        "gen_loss": float(np.mean(gen_losses)),
        "violations": int(violations),
        "steps": steps,
    }
    out_dir = synth_dir or cfg.out_dir
    if out_dir:
        from .dataset import synthesize_dataset

        import os
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"epoch_{state.epoch:03d}.txt")
        seed = int(state.rng.integers(0, 2 ** 31))
        summary = synthesize_dataset(state.gen, len(data), cfg.mode, seed, path)
        metrics["synth_count"] = summary.records
        metrics["synth_path"] = path
    state.epoch += 1
    return metrics


def save_generator(gen: DhGenerator, path, seed: int,
                   meta: Optional[dict[str, str]] = None) -> None:
    """Write the generator net; ``meta`` adds header lines that
    ``load_generator`` ignores."""
    from .skeleton import topology_hash

    nn.save_checkpoint(path, {"gen": gen.net}, seed,
                       extra={"mode": gen.mode, "frames": str(gen.frames),
                              "topology": topology_hash(gen.topology), **(meta or {})})


def load_generator(path, topology: Optional[SkeletonTopology] = None,
                   table: Optional[ConstraintTable] = None,
                   camera: Optional[CameraIntrinsics] = None,
                   bounds: Optional[GlobalBounds] = None) -> DhGenerator:
    from .skeleton import topology_hash

    nets, _, extra = nn.load_checkpoint(path)
    topology = topology or default_topology()
    if "topology" in extra and extra["topology"] != topology_hash(topology):
        raise ValueError(f"{path}: checkpoint was trained against topology {extra['topology']}, "
                         f"not {topology_hash(topology)}")
    if "gen" not in nets:
        raise ValueError(f"{path}: checkpoint holds no generator net 'gen' "
                         f"(nets: {', '.join(nets) or 'none'})")
    try:
        return DhGenerator(net=nets["gen"], topology=topology,
                           table=table or default_constraint_table(),
                           camera=camera or default_camera(),
                           mode=extra.get("mode", "single"), frames=int(extra.get("frames", "1")),
                           bounds=bounds or GlobalBounds())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
