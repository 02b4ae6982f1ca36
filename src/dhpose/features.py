"""Critic input features: adjacent bone pairs and their inter-bone cosines.

The trajectory streams the motion critic sees (frame-to-frame differences of
the 3D pose, of these cosines and of the normalized 2D root keypoint) are
built by ``gan.motion_streams``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .skeleton import ROOT_KEYPOINT, SkeletonTopology

MIN_BONE_LENGTH = 1e-9  # meters; anything shorter is a degenerate bone
_COS_SLACK = 1e-12      # rounding slack absorbed by the [-1, 1] clamp


class DegenerateBoneError(ValueError):
    def __init__(self, bone: int, parent: int, child: int, length: float):
        self.bone = bone
        super().__init__(
            f"bone {bone} (keypoints {parent}-{child}) has length {length:.3g} m; "
            f"cosines need at least {MIN_BONE_LENGTH:g} m")


@dataclass(frozen=True)
class AdjacentBonePairs:
    """Index pairs (into ``bones``) of adjacent bones sharing one keypoint."""

    bones: tuple[tuple[int, int], ...]
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for i, j in self.pairs:
            shared = set(self.bones[i]) & set(self.bones[j])
            if len(shared) != 1:
                raise ValueError(f"bones {i} and {j} must share exactly one keypoint")


def adjacent_bone_pairs(topology: SkeletonTopology) -> AdjacentBonePairs:
    """Pair every bone with its parent bone.

    At each non-root keypoint the incoming bone pairs with each outgoing
    bone.  The root has no incoming bone, so its trunk bone (the child
    subtree with the most keypoints) stands in and pairs with the other
    root bones.  For the 16-keypoint tree this yields 14 pairs.
    """
    bones = topology.bone_list
    children: dict[int, list[int]] = {}
    incoming: dict[int, int] = {}
    for bi, (parent, child) in enumerate(bones):
        children.setdefault(parent, []).append(bi)
        incoming[child] = bi

    def subtree_size(kp: int) -> int:
        return 1 + sum(subtree_size(bones[b][1]) for b in children.get(kp, []))

    pairs = []
    root_bones = children.get(ROOT_KEYPOINT, [])
    trunk = max(root_bones, key=lambda b: (subtree_size(bones[b][1]), -b))
    for b in root_bones:
        if b != trunk:
            pairs.append((trunk, b))
    for kp, inc in incoming.items():
        for out in children.get(kp, []):
            pairs.append((inc, out))
    pairs.sort()
    return AdjacentBonePairs(bones=tuple(bones), pairs=tuple(pairs))


def bone_vectors(pose, pairs: AdjacentBonePairs) -> np.ndarray:
    """(..., n_bones, 3) child-minus-parent vectors."""
    pose = np.asarray(pose, dtype=np.float64)
    bones = np.asarray(pairs.bones)
    return pose[..., bones[:, 1], :] - pose[..., bones[:, 0], :]


def joint_cosines(pose, pairs: AdjacentBonePairs) -> np.ndarray:
    """Cosine of the angle between each adjacent bone pair, in [-1, 1]."""
    vec = bone_vectors(pose, pairs)
    lengths = np.linalg.norm(vec, axis=-1)
    if np.any(lengths < MIN_BONE_LENGTH):
        flat = np.argwhere(lengths < MIN_BONE_LENGTH)[0]
        bone = int(flat[-1])
        parent, child = pairs.bones[bone]
        raise DegenerateBoneError(bone, parent, child, float(lengths[tuple(flat)]))
    idx = np.asarray(pairs.pairs)
    va, vb = vec[..., idx[:, 0], :], vec[..., idx[:, 1], :]
    la, lb = lengths[..., idx[:, 0]], lengths[..., idx[:, 1]]
    cosines = np.sum(va * vb, axis=-1) / (la * lb)
    if np.any(np.abs(cosines) > 1.0 + _COS_SLACK):
        raise FloatingPointError("cosine left [-1, 1] by more than rounding slack")
    return np.clip(cosines, -1.0, 1.0)
