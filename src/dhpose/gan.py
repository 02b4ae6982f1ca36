"""Constraint-bounded pose generator, the two Wasserstein critics, and the
gradient-penalty training loop.

The generator maps a 128-d normal latent through a fully connected net to
a sample of T poses (T = 1 in single mode, T >= 2 in video mode): the 33
joint angles of each frame, the 15 bone lengths its frames share, and the 6
global pose values of each frame.  It squashes them into the constraint
ranges and runs forward kinematics and pinhole projection.

The frame critic scores single poses from three streams (3D pose, bone
cosines, normalized 2D pose).  The motion critic has three two-stream
branches (sequence plus its first differences of the same three signals);
its score is the sum of the branch heads; it exists only when T >= 2.  A
critic is its branch table (``FRAME_BRANCHES``, ``MOTION_BRANCHES``) and
the nets it names.  Both train with the gradient-penalty objective; the
motion terms are gated on by a step schedule over epochs.  The penalty is
one tape node per critic (``penalty``): its value and its closed-form
weight gradient are numpy, built on ``nn.mlp_vjp``, so the critic step's
tape holds no pass over the interpolated streams.

The pipeline from raw net output to critic streams is written once, over
autodiff tape ops: the split and squash (``_split_raw``), FK
(``skeleton.fk``), the bone cosines (``_cosines``, one node: forward the
numpy ``joint_cosines``, backward in closed form), projection, and the
frame and motion streams.  The generator step records
``generate_on_tape``; the critic's fake batch is ``generate_on_tape`` with
the weights as constants, and inference, synthesis and the real batches
run the same functions on constants on a throwaway tape
(``generate_poses``, ``feature_batch``).
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import ShapeError, Tape, Tensor
from .camera import CameraIntrinsics, default_camera, project
from .constraints import (ConstraintTable, count_violations, default_constraint_table, squash,
                          table_hash)
from .dataset import RealData, as_samples, check_mode
from .features import AdjacentBonePairs, adjacent_bone_pairs, bone_vectors, joint_cosines
from .skeleton import (N_ANGLE_PARAMS, N_LENGTH_PARAMS, ROOT_KEYPOINT, SkeletonTopology,
                       default_topology, forward_kinematics_batch, topology_hash)
from .skeleton import fk as _fk_tape  # perfbench's gan.fk_tape span patches this name

N_GLOBAL = 6


class TrainingDivergedError(RuntimeError):
    """Training cannot go on: a non-finite loss, or a generated joint in front
    of the near plane.  Carries a diagnostic snapshot dict, which ``dhpose
    train`` writes to ``diverged.json`` in its run directory."""

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
            if not np.all(np.isfinite(values)):
                raise ValueError(f"bounds need finite {name!r} values, got {list(values)}")
            object.__setattr__(self, name, values)
        for i, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            if not lo < hi:
                raise ValueError(f"bounds need lo < hi, got lo {lo} and hi {hi} at index {i}")

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


def _is_int(value) -> bool:
    """A true integer: JSON's 2.5 and true are not counts."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class TrainConfig:
    mode: str = "single"            # the name of ``frames`` (``dataset.check_mode``)
    frames: int = 1                 # T, the poses of a sample (9 or 27 typical in video mode)
    alpha: float = 10.0             # gradient-penalty weight
    beta_epoch: int = 4             # epoch at which the motion critic turns on
    z_dim: int = 128
    batch_size: int = 64
    critic_steps: int = 5           # critic updates per generator update
    lr: float = 1e-4
    epochs: int = 10
    seed: int = 0
    gen_hidden: tuple = (512, 512)
    enc_hidden: tuple = (256, 256)
    head_hidden: tuple = (128,)
    bounds: GlobalBounds = field(default_factory=GlobalBounds)

    def validate(self) -> None:
        counts = dict(frames=self.frames, z_dim=self.z_dim, critic_steps=self.critic_steps,
                      epochs=self.epochs, batch=self.batch_size,
                      beta_epoch=self.beta_epoch, seed=self.seed)
        for name, value in counts.items():
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("alpha", "lr"):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                    or not np.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        check_mode(self.mode, self.frames)
        positives = dict(alpha=self.alpha, z_dim=self.z_dim, critic_steps=self.critic_steps,
                         lr=self.lr, epochs=self.epochs, batch=self.batch_size,
                         beta_epoch=self.beta_epoch)
        for name, value in positives.items():
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.beta_epoch > self.epochs:
            raise ValueError(f"beta_epoch {self.beta_epoch} exceeds epochs {self.epochs}")
        for name in ("gen_hidden", "enc_hidden", "head_hidden"):
            widths = getattr(self, name)
            if not isinstance(widths, tuple) or not all(_is_int(w) and w > 0 for w in widths):
                raise ValueError(f"{name} must be a tuple of positive layer widths, got {widths!r}")
        if not self.enc_hidden:
            raise ValueError("enc_hidden needs at least one layer: the critic heads read its width")

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)

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

RAW_LAYOUT = "angles-lengths-globals"  # ``_split_raw``'s; a checkpoint's ``meta layout``


def _out_width(frames: int) -> int:
    """Raw generator outputs for a sample of ``frames`` poses: 33 angles and
    6 globals per frame, and 15 bone lengths its frames share."""
    return frames * (N_ANGLE_PARAMS + N_GLOBAL) + N_LENGTH_PARAMS


@dataclass
class DhGenerator:
    net: nn.Mlp
    topology: SkeletonTopology
    table: ConstraintTable
    camera: CameraIntrinsics
    frames: int = 1
    bounds: GlobalBounds = field(default_factory=GlobalBounds)

    def __post_init__(self):
        if not _is_int(self.frames) or self.frames < 1:
            raise ValueError(f"a sample needs at least 1 frame, got {self.frames!r}")
        need = _out_width(self.frames)
        if self.net.out_dim != need:
            raise ValueError(f"generator net emits {self.net.out_dim} values; "
                             f"{self.frames} frames need {need}")

    @property
    def mode(self) -> str:
        """The name of ``frames`` (``dataset.check_mode``)."""
        return "single" if self.frames == 1 else "video"


def build_generator(cfg: TrainConfig, rng: np.random.Generator,
                    topology: Optional[SkeletonTopology] = None,
                    table: Optional[ConstraintTable] = None) -> DhGenerator:
    topology = topology or default_topology()
    table = table or default_constraint_table()
    sizes = [cfg.z_dim, *cfg.gen_hidden, _out_width(cfg.frames)]
    acts = ["tanh"] * len(cfg.gen_hidden) + ["linear"]
    net = nn.mlp_init(sizes, acts, rng)
    if cfg.frames > 1:  # each output keeps the weights a seed drew for it before
        # ``RAW_LAYOUT``: the lengths' columns came first, then each frame's angles and globals
        per = np.arange(N_LENGTH_PARAMS, sizes[-1]).reshape(cfg.frames, -1)
        drawn = np.r_[per[:, :N_ANGLE_PARAMS].ravel(), :N_LENGTH_PARAMS,
                      per[:, N_ANGLE_PARAMS:].ravel()]
        net.layers[-1].w = np.ascontiguousarray(net.layers[-1].w[:, drawn])  # biases are zeros
    return DhGenerator(net=net, topology=topology, table=table, camera=default_camera(),
                       frames=cfg.frames, bounds=cfg.bounds)


@dataclass
class GenOutput:
    """Squashed parameters, global values and the resulting pose pair, each
    (B, T, ...), or (B, ...) at T = 1 (``dataset.as_samples``)."""

    params: np.ndarray
    globals_: np.ndarray
    pose3d: np.ndarray
    pose2d: np.ndarray


def _split_raw(gen: DhGenerator, raw: Tensor) -> tuple[Tensor, Tensor]:
    """Raw net output (B, out) to squashed parameters (B*T, 48) and global
    values (B*T, 6), one row per pose.  The raw layout is T x 33 angles, the
    15 bone lengths a sample's frames share, then T x 6 globals: at T = 1,
    the 48 parameters in id order, then the 6 globals."""
    b, t = raw.shape[0], gen.frames
    n, lo, hi = t * N_ANGLE_PARAMS, gen.table.lo, gen.table.hi
    angles = squash(ad.reshape(raw[:, :n], (b * t, N_ANGLE_PARAMS)), lo[:N_ANGLE_PARAMS],
                    hi[:N_ANGLE_PARAMS])
    lengths = squash(raw[:, n:n + N_LENGTH_PARAMS], lo[N_ANGLE_PARAMS:], hi[N_ANGLE_PARAMS:])
    shared = ad.mul(ad.reshape(lengths, (b, 1, N_LENGTH_PARAMS)), np.ones((b, t, 1)))
    params = ad.concat([angles, ad.reshape(shared, (b * t, N_LENGTH_PARAMS))], axis=1)
    globals_ = ad.reshape(raw[:, n + N_LENGTH_PARAMS:], (b * t, N_GLOBAL))
    return params, squash(globals_, *gen.bounds.arrays())


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
    return tuple(as_samples(x, z.shape[0], gen.frames) for x in (params, globals_, pose3d))


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


def stream_widths(n_pairs: int, frames: int) -> dict[str, int]:
    """Each stream's width, for poses of 16 keypoints with ``n_pairs``
    adjacent bone pairs in sequences of ``frames`` (T): a frame stream holds
    one pose, a sequence stream T poses and a difference stream T - 1 steps
    (root2d: of the root keypoint's 2 image coordinates only)."""
    t = frames
    return {"x3d": 48, "xcos": n_pairs, "x2d": 32,
            "seq3d": t * 48, "diff3d": (t - 1) * 48, "cosseq": t * n_pairs,
            "cosdiff": (t - 1) * n_pairs, "seq2d": t * 32, "root2d": (t - 1) * 2}


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
             frames: int) -> dict:
    """The critic streams of (N, K, 3) and (N, K, 2) poses by name: the frame
    streams, then, when ``frames`` (T) is 2 or more, the motion streams of
    their N / T sequences."""
    streams = dict(zip(FRAME_STREAMS, frame_streams(pose3d, pose2d, cam, pairs)))
    if frames > 1:
        streams.update(motion_streams(*(streams[k] for k in FRAME_STREAMS), frames))
    return streams


@dataclass
class TapeGenOutput:
    """Generator pipeline on the tape, down to the critic input streams."""

    params: Tensor       # (N, 48) squashed deltas (N = B*T)
    globals_: Tensor     # (N, 6)
    pose3d: Tensor       # (N, 16, 3)
    streams: dict        # the ``_streams`` dict, float64


def generate_on_tape(gen: DhGenerator, z, tape: Tape,
                     gen_params: Optional[list]) -> TapeGenOutput:
    """The net runs in its dtype with the ``nn.mlp_leaves`` list
    ``gen_params`` (None: its weights as constants); squash, FK, the depth
    check, projection and the critic streams of the topology's bone pairs
    run in float64."""
    raw = nn.mlp_apply(gen.net, z, tape, gen_params)
    params, globals_ = _split_raw(gen, ad.astype(raw, np.float64))
    pose3d = _fk_tape(gen.topology, params, globals_)
    if np.any(pose3d.values[:, :, 2] < gen.camera.z_min):
        raise TrainingDivergedError(
            "generated joint in front of the near plane; widen the translation bounds",
            {"min_depth": float(pose3d.values[:, :, 2].min()), "z_min": gen.camera.z_min})
    streams = _streams(pose3d, project(pose3d, gen.camera), gen.camera,
                       adjacent_bone_pairs(gen.topology), gen.frames)
    return TapeGenOutput(params=params, globals_=globals_, pose3d=pose3d, streams=streams)


# --------------------------------------------------------------------------
# Critics

# A critic's branches, each (its streams, their encoders, its head): every
# encoder reads its stream, the head reads their outputs side by side, and
# the score is the sum of the heads.  Each motion branch reads a sequence and
# its differences.
FRAME_BRANCHES = ((FRAME_STREAMS, ("enc3d", "enc_cos", "enc2d"), "head"),)
MOTION_BRANCHES = ((("seq3d", "diff3d"), ("enc3d_seq", "enc3d_diff"), "head3d"),
                   (("cosseq", "cosdiff"), ("enc_cos_seq", "enc_cos_diff"), "head_cos"),
                   (("seq2d", "root2d"), ("enc2d_seq", "enc2d_diff"), "head2d"))


@dataclass
class Critic:
    """A branch table and its nets by name, each branch's encoders then its
    head: the order they are created in and the order of their parameters."""

    branches: tuple
    nets: dict[str, nn.Mlp]


def build_critic(branches: tuple, cfg: TrainConfig, n_pairs: int, rng) -> Critic:
    """Encoders of ``cfg.enc_hidden`` lrelu layers, each reading its stream's
    ``stream_widths`` width, and heads of ``cfg.head_hidden`` lrelu layers
    ending in a linear score."""
    widths = stream_widths(n_pairs, cfg.frames)
    enc, head = cfg.enc_hidden, cfg.head_hidden
    nets = {}
    for keys, encoders, head_name in branches:
        for key, name in zip(keys, encoders, strict=True):
            nets[name] = nn.mlp_init([widths[key], *enc], ["lrelu"] * len(enc), rng)
        nets[head_name] = nn.mlp_init([len(encoders) * enc[-1], *head, 1],
                                      ["lrelu"] * len(head) + ["linear"], rng)
    return Critic(branches, nets)


def critic_leaves(tape: Tape, critic: Critic) -> dict[str, list]:
    """Each net's ``nn.mlp_leaves`` list, by name in the order of ``critic.nets``."""
    return {name: nn.mlp_leaves(tape, net) for name, net in critic.nets.items()}


def _fused_score(critic, inputs, encoders, head: str, tape: Tape,
                 params: Optional[dict]) -> Tensor:
    """Encoders over their inputs, concatenated into a head: the score (B,
    1).  ``params`` is a ``critic_leaves`` dict, or None for the weights as
    constants."""
    params = params or {}
    outs = [nn.mlp_apply(critic.nets[name], x, tape, params.get(name))
            for x, name in zip(inputs, encoders)]
    return nn.mlp_apply(critic.nets[head], ad.concat(outs, axis=1), tape, params.get(head))


def score(critic, streams: dict, tape: Tape, params: Optional[dict] = None) -> Tensor:
    """Per-sample score (B, 1), the sum of the critic's branch heads."""
    total = None
    for keys, encoders, head in critic.branches:
        s = _fused_score(critic, [streams[k] for k in keys], encoders, head, tape, params)
        total = s if total is None else ad.add(total, s)
    return total


def _input_gradients(critic, streams: dict) -> tuple[list, list]:
    """Each encoder's input gradient of the critic's score at ``streams``, in
    branch and encoder order, and the input-gradient chains to pull back:
    per branch, each encoder's (name, trace, operands, columns of the head
    input) and the head's (name, trace, operands).  Numpy, in the weights'
    dtype; a forward pass keeps only what ``nn.mlp_vjp`` reads."""
    grads, chains = [], []
    for keys, encoders, head in critic.branches:
        outs, traces = zip(*(nn.mlp_trace(critic.nets[name], streams[k])
                             for k, name in zip(keys, encoders)))
        widths = np.cumsum([0] + [out.shape[1] for out in outs])
        out, head_trace = nn.mlp_trace(critic.nets[head], np.concatenate(outs, axis=1))
        del outs  # the head has read them
        if out.shape[1] != 1:
            raise ValueError(f"the penalty needs scalar critic scores, got {out.shape}")
        g_h, head_ops = nn.mlp_vjp(critic.nets[head], head_trace, np.ones_like(out))
        encoder_chains = []
        for name, trace, lo, hi in zip(encoders, traces, widths[:-1], widths[1:]):
            g, ops = nn.mlp_vjp(critic.nets[name], trace, g_h[:, lo:hi])
            grads.append(g)
            encoder_chains.append((name, trace, ops, slice(lo, hi)))
        chains.append((encoder_chains, (head, head_trace, head_ops)))
    return grads, chains


def penalty(critic, streams: dict, alpha: float, tape: Tape,
            params: Optional[dict] = None) -> Tensor:
    """The WGAN-GP penalty alpha * mean((|g| - 1)^2) at the given
    (interpolated) streams, g each sample's gradient with respect to the
    inputs of every encoder; each head must have a scalar output.

    One tape node whose parents are the weights ``w`` of the
    ``critic_leaves`` dict ``params`` (None: a constant).  Its pullback is
    the closed form: back through the norm (the subgradient of sqrt at 0 is
    0), then each input-gradient chain (``nn.mlp_vjp_pullback``) to the
    weights; biases get no gradient.  The critic's layers must be lrelu or
    linear, whose derivatives do not move with the weights.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    for name, net in critic.nets.items():
        for k, layer in enumerate(net.layers):
            if layer.act not in ("lrelu", "linear"):
                raise ValueError(f"the penalty needs lrelu or linear layers; "
                                 f"layer {k} of {name!r} is {layer.act}")
    grads, chains = _input_gradients(critic, streams)
    dtype = grads[0].dtype
    total = (grads[0] * grads[0]).sum(axis=1)
    for g in grads[1:]:
        total = total + (g * g).sum(axis=1)
    norm = np.sqrt(total)
    dev = norm - np.asarray(1.0, dtype)
    value = (dev * dev).sum() * np.asarray(1.0 / dev.size, dtype) * np.asarray(alpha, dtype)
    weights = {name: [w for w, _ in pairs] for name, pairs in (params or {}).items()}
    parents = tuple(w for name in critic.nets for w in weights.get(name, ()))
    if not parents:
        return tape.const(value)

    def pull(name, trace, operands, g):
        w_grads, g = nn.mlp_vjp_pullback(critic.nets[name], trace, operands, g)
        for w, grad in zip(weights.get(name, ()), w_grads):
            if w.requires_grad:
                w.accumulate(grad)
        return g

    def bwd(g):
        # back through alpha * mean(dev^2), sqrt, and each stream's sum of squares
        g = g * np.asarray(alpha, dtype) * np.asarray(1.0 / dev.size, dtype) * 2.0 * dev
        safe = np.where(norm > 0.0, norm, 1.0)
        g = np.where(norm > 0.0, g * 0.5 / safe, 0.0) * 2.0
        for encoder_chains, (head, head_trace, head_ops) in chains:
            g_h = np.zeros((g.shape[0], critic.nets[head].in_dim), dtype)
            for name, trace, ops, cols in encoder_chains:
                g_h[:, cols] += pull(name, trace, ops, g[:, None] * grads.pop(0))
            pull(head, head_trace, head_ops, g_h)

    return ad.node("penalty", value, parents, bwd)


# perfbench times each critic's scoring and penalty under these names,
# patching them by module attribute; a caller scoring one critic calls its
# alias, so the time lands in that critic's span.
frame_score = motion_score = score
frame_penalty = motion_penalty = penalty


def discriminate(critic, streams: dict) -> np.ndarray:
    """Deterministic critic scores, (B,), numpy in and out, in the weights' dtype."""
    with Tape() as tape:
        return score(critic, streams, tape).values[:, 0]


# --------------------------------------------------------------------------
# Batches and losses

def feature_batch(pose3d, pose2d, cam, pairs: AdjacentBonePairs) -> dict:
    """Numpy critic streams of B samples (``dataset.as_samples``), (B, T, K,
    3/2) or (B, K, 3/2), with their motion streams when T >= 2: the stream
    functions run on constants.  ``cam`` is one ``CameraIntrinsics`` or
    (B, 5) rows (see ``frame_streams``), one per sample."""
    pose3d = np.asarray(pose3d, dtype=np.float64)
    pose2d = np.asarray(pose2d, dtype=np.float64)
    kp = pose3d.shape[-2]
    frames = pose3d[0].size // (kp * 3)
    if not isinstance(cam, CameraIntrinsics):  # a sequence's frames share its row
        cam = np.repeat(np.asarray(cam, dtype=np.float64), frames, axis=0)
    with Tape() as tape:
        streams = _streams(tape.const(pose3d.reshape(-1, kp, 3)),
                           tape.const(pose2d.reshape(-1, kp, 2)), cam, pairs, frames)
    return {k: v.values for k, v in streams.items()}


def _check_matching(real: dict, fake: dict) -> None:
    if real.keys() != fake.keys():
        raise ShapeError(f"real/fake batches differ in streams {sorted(real.keys() ^ fake.keys())}")
    for k in real:
        if real[k].shape != fake[k].shape:
            raise ShapeError(f"real/fake {k} shapes differ: {real[k].shape} vs {fake[k].shape}")


def _interpolate(real: dict, fake: dict, rng: np.random.Generator, critics) -> dict:
    """The penalty inputs: per sample eps * real + (1 - eps) * fake with eps
    uniform, one draw for the streams of each critic in turn."""
    hat = {}
    for critic in critics:
        keys = [k for streams, _, _ in critic.branches for k in streams]
        eps = rng.uniform(size=(real[keys[0]].shape[0], 1))
        for k in keys:
            e = eps.astype(real[k].dtype, copy=False)
            hat[k] = e * real[k] + (1.0 - e) * fake[k]
    return hat


def active_critics(critics: dict, gamma: int) -> dict:
    """The critics a loss trains, by name: the frame critic, and the motion
    critic while ``gamma`` is on."""
    return {name: critic for name, critic in critics.items() if gamma or name != "motion"}


def _alias(name: str, kind: str):
    """The critic ``name``'s perfbench alias for ``kind`` ("score" or
    "penalty"), looked up when called so that a patched alias is the one run."""
    return globals()[f"{name}_{kind}"]


def _check_motion_streams(critics: dict, streams: dict) -> None:
    if "motion" in critics and not streams.keys() >= set(MOTION_STREAMS):
        raise ShapeError("motion terms are on but the batches carry no motion streams")


def critic_loss(critics: dict, real: dict, fake: dict, alpha: float, rng: np.random.Generator,
                tape: Tape, params: Optional[dict] = None) -> tuple[Tensor, dict]:
    """Critic objective: over the active ``critics`` (see ``active_critics``),
    the sum of E[D(fake)] - E[D(real)] + alpha * penalty, the penalty at
    per-sample uniform interpolations of real and fake.  ``params`` holds each
    critic's ``critic_leaves`` by name, or is None for the weights as constants.

    Also returns each critic's terms by name: the per-sample scores (B,) of
    this forward pass under "real" and "fake", and the penalty's value under
    "penalty".
    """
    _check_matching(real, fake)
    _check_motion_streams(critics, real)
    hat = _interpolate(real, fake, rng, critics.values())
    loss, terms = None, {}
    for name, critic in critics.items():
        leaves = (params or {}).get(name)
        s_fake = _alias(name, "score")(critic, fake, tape, leaves)
        s_real = _alias(name, "score")(critic, real, tape, leaves)
        pen = _alias(name, "penalty")(critic, hat, alpha, tape, leaves)
        term = ad.add(ad.sub(ad.mean(s_fake), ad.mean(s_real)), pen)
        loss = term if loss is None else ad.add(loss, term)
        terms[name] = {"real": s_real.values[:, 0], "fake": s_fake.values[:, 0],
                       "penalty": float(pen.values)}
    return loss, terms


def generator_loss(critics: dict, fake: TapeGenOutput, tape: Tape) -> Tensor:
    """Adversarial complement: -E[D_s(fake)] - gamma * E[D_m(fake)] over the
    active ``critics``, which score with their weights as constants: they get
    no gradient here."""
    _check_motion_streams(critics, fake.streams)
    loss = None
    for name, critic in critics.items():
        s = ad.mean(_alias(name, "score")(critic, fake.streams, tape))
        loss = ad.neg(s) if loss is None else ad.sub(loss, s)
    return loss


# --------------------------------------------------------------------------
# Training loop

@dataclass
class TrainState:
    config: TrainConfig
    gen: DhGenerator
    critics: dict[str, Critic]      # "frame", then "motion" when T >= 2
    adam: dict[str, nn.AdamState]   # "gen", then each critic's by name
    rng: np.random.Generator
    epoch: int = 0


def init_train_state(config: TrainConfig,
                     topology: Optional[SkeletonTopology] = None,
                     table: Optional[ConstraintTable] = None) -> TrainState:
    config.validate()
    rng = np.random.default_rng(config.seed)
    gen = build_generator(config, rng, topology, table)
    n_pairs = len(adjacent_bone_pairs(gen.topology).pairs)
    critics = {"frame": build_critic(FRAME_BRANCHES, config, n_pairs, rng)}
    if config.frames > 1:
        critics["motion"] = build_critic(MOTION_BRANCHES, config, n_pairs, rng)
    adam = {name: nn.AdamState(lr=config.lr) for name in ("gen", *critics)}
    return TrainState(config=config, gen=gen, critics=critics, adam=adam, rng=rng)


def _abort_if_bad(value: float, what: str, state: TrainState):
    if not np.isfinite(value):
        raise TrainingDivergedError(f"non-finite {what} at epoch {state.epoch}",
                                    {"what": what, "value": float(value), "epoch": state.epoch})


def _real_minibatch(state: TrainState, data: RealData, idx: np.ndarray) -> dict:
    return feature_batch(data.pose3d[idx], data.pose2d[idx], data.cams[idx],
                         adjacent_bone_pairs(state.gen.topology))


def _fake_minibatch(state: TrainState, batch: int) -> tuple[dict, int]:
    z = sample_latent(batch, state.config.z_dim, state.rng)
    with Tape() as tape:
        fake = generate_on_tape(state.gen, z, tape, None)
    bad = count_violations(fake.params.values, state.gen.table)
    return {k: v.values for k, v in fake.streams.items()}, bad


def critic_update(state: TrainState, real: dict, fake: dict, gamma: int) -> dict:
    """One critic step in the weights' dtype; Adam updates the weights."""
    critics = active_critics(state.critics, gamma)
    with Tape() as tape:
        leaves = {name: critic_leaves(tape, critic) for name, critic in critics.items()}
        loss, terms = critic_loss(critics, real, fake, state.config.alpha, state.rng, tape,
                                  leaves)
        value = float(loss.values)
        _abort_if_bad(value, "critic loss", state)
        ad.backward(tape, loss)
    for name, critic in critics.items():
        nn.adam_update(state.adam[name], critic.nets.values(), leaves[name].values())
    # separation measured by the step's own forward pass, before its update
    frame = terms["frame"]
    return {"d_gap": float(frame["real"].mean() - frame["fake"].mean())}


def generator_update(state: TrainState, batch: int, gamma: int) -> dict:
    """One generator step: net and critics in their weights' dtype, geometry
    in float64; Adam updates the generator's weights."""
    with Tape() as tape:
        gen_leaves = nn.mlp_leaves(tape, state.gen.net)
        z = sample_latent(batch, state.config.z_dim, state.rng)
        fake = generate_on_tape(state.gen, z, tape, gen_leaves)
        loss = generator_loss(active_critics(state.critics, gamma), fake, tape)
        value = float(loss.values)
        _abort_if_bad(value, "generator loss", state)
        violations = count_violations(fake.params.values, state.gen.table)
        ad.backward(tape, loss)
    nn.adam_update(state.adam["gen"], [state.gen.net], [gen_leaves])
    return {"gen_loss": value, "violations": violations}


def train_epoch(state: TrainState, data: RealData, synth_dir: Optional[str] = None) -> dict:
    """One epoch: alternating critic/generator updates plus end-of-epoch synthesis.

    Synthesizes exactly as many pairs as the training corpus holds and writes
    them as a dataset file in ``synth_dir`` when it is given.
    The metric ``d_gap`` is the mean over the epoch's critic steps of the
    real minus fake mean frame score, each measured by the step's own
    forward pass before its update.
    """
    if len(data) == 0:
        raise ValueError("training data is empty")
    cfg = state.config
    if data.frames != cfg.frames:
        raise ValueError(f"the config has {cfg.frames} frames per sample, the data "
                         f"{data.frames}")
    gamma = gamma_schedule(state.epoch, cfg.beta_epoch) if "motion" in state.critics else 0
    batch = min(cfg.batch_size, len(data))
    steps = max(1, len(data) // batch)
    d_gaps, gen_losses = [], []
    violations = 0
    for _ in range(steps):
        for _ in range(cfg.critic_steps):
            idx = state.rng.integers(0, len(data), size=batch)
            real = _real_minibatch(state, data, idx)
            fake, bad = _fake_minibatch(state, batch)
            violations += bad
            m = critic_update(state, real, fake, gamma)
            d_gaps.append(m["d_gap"])
        g = generator_update(state, batch, gamma)
        violations += g["violations"]
        gen_losses.append(g["gen_loss"])
    # the critic objective's terms on a fresh batch, with constant weights, for the log
    idx = state.rng.integers(0, len(data), size=batch)
    real = _real_minibatch(state, data, idx)
    fake, _ = _fake_minibatch(state, batch)
    with Tape() as tape:
        terms = critic_loss(active_critics(state.critics, gamma), real, fake, cfg.alpha,
                            state.rng, tape)[1]
    motion = terms.get("motion")
    metrics = {
        "epoch": state.epoch,
        "gamma": gamma,
        "d_gap": float(np.mean(d_gaps)),
        "penalty": terms["frame"]["penalty"],
        "motion_gap": float(motion["real"].mean() - motion["fake"].mean()) if motion else 0.0,
        "motion_penalty": motion["penalty"] if motion else 0.0,
        "gen_loss": float(np.mean(gen_losses)),
        "violations": int(violations),
        "steps": steps,
    }
    if synth_dir:
        from .dataset import synthesize_dataset

        import os
        os.makedirs(synth_dir, exist_ok=True)
        path = os.path.join(synth_dir, f"epoch_{state.epoch:03d}.txt")
        seed = int(state.rng.integers(0, 2 ** 31))
        summary = synthesize_dataset(state.gen, len(data), state.gen.mode, seed, path)
        metrics["synth_count"] = summary.records
        metrics["synth_path"] = path
    state.epoch += 1
    return metrics


def save_generator(gen: DhGenerator, path, seed: int,
                   meta: Optional[dict[str, str]] = None) -> None:
    """Write the generator net and what shapes its output besides: mode,
    frames, the raw layout (``RAW_LAYOUT``), the hashes of its topology and
    constraint table, and its bounds (``repr``, so they read back exactly);
    ``meta`` adds header lines that ``load_generator`` ignores."""
    nn.save_checkpoint(path, {"gen": gen.net}, seed,
                       extra={"mode": gen.mode, "frames": str(gen.frames), "layout": RAW_LAYOUT,
                              "topology": topology_hash(gen.topology),
                              "constraints": table_hash(gen.table),
                              "bounds": " ".join(map(repr, gen.bounds.lo + gen.bounds.hi)),
                              **(meta or {})})


def load_generator(path, topology: Optional[SkeletonTopology] = None,
                   table: Optional[ConstraintTable] = None) -> DhGenerator:
    """The generator of a ``save_generator`` checkpoint, with its bounds.  A
    topology or constraint table other than the one it was trained against
    raises ValueError naming both hashes.  A checkpoint without ``meta
    bounds`` or ``meta constraints`` lines gets the default bounds or takes
    any table, one without ``meta frames`` has 1 frame, and one of 2 or more
    frames without ``meta layout`` predates ``RAW_LAYOUT`` and is refused.
    A malformed meta value raises ``ParseError`` at its line."""
    nets, _, meta = nn.load_checkpoint(path)
    kinds = {"topology": [str], "constraints": [str], "mode": [str], "frames": [int],
             "layout": [RAW_LAYOUT], "bounds": [float] * (len(meta["bounds"].tokens) - 2)
             if "bounds" in meta else []}
    got = {key: meta[key].fields("meta", key, *kind)[2:] for key, kind in kinds.items()
           if key in meta}
    topology = topology or default_topology()
    table = table or default_constraint_table()
    for key, digest in (("topology", topology_hash(topology)), ("constraints", table_hash(table))):
        if key in got and got[key][0] != digest:
            raise ValueError(f"{path}: checkpoint was trained against {key} {got[key][0]}, "
                             f"not {digest}")
    if "gen" not in nets:
        raise ValueError(f"{path}: checkpoint holds no generator net 'gen' "
                         f"(nets: {', '.join(nets) or 'none'})")
    frames = got.get("frames", [1])[0]
    if frames > 1 and "layout" not in got:
        raise ValueError(f"{path}: this {frames}-frame checkpoint predates the raw output "
                         f"layout {RAW_LAYOUT!r}, which orders its outputs otherwise; retrain it")
    try:
        if "mode" in got:
            check_mode(got["mode"][0], frames)
        bounds = got.get("bounds")
        return DhGenerator(net=nets["gen"], topology=topology, table=table,
                           camera=default_camera(), frames=frames,
                           bounds=GlobalBounds() if bounds is None
                           else GlobalBounds(bounds[:N_GLOBAL], bounds[N_GLOBAL:]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
