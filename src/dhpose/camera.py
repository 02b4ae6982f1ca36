"""Pinhole projection of camera-space poses to pixel keypoints, written once
as autodiff tape ops: training differentiates through it, and
``project_pose`` runs it on constants."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .skeleton import KEYPOINT_NAMES


class DepthViolationError(ValueError):
    """A joint sits closer than the camera's minimum admissible depth."""

    def __init__(self, joint: int, name: str, depth: float, z_min: float):
        self.joint = joint
        self.name = name
        super().__init__(f"joint {joint} ({name}) at depth {depth:.4g} m is in front of z_min={z_min:g} m")


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float = 1145.0
    fy: float = 1145.0
    cx: float = 512.0
    cy: float = 512.0
    z_min: float = 0.1

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if not self.z_min > 0:
            raise ValueError(f"z_min must be positive, got {self.z_min}")

    def as_array(self) -> np.ndarray:
        return np.array([self.fx, self.fy, self.cx, self.cy, self.z_min])

    @classmethod
    def from_array(cls, values) -> "CameraIntrinsics":
        fx, fy, cx, cy, z_min = (float(v) for v in values)
        return cls(fx, fy, cx, cy, z_min)


def default_camera() -> CameraIntrinsics:
    """Shipped default: square pixels, principal point of a 1024^2 frame."""
    return CameraIntrinsics()


def project(pose: Tensor, cam: CameraIntrinsics) -> Tensor:
    """u = fx*x/z + cx, v = fy*y/z + cy per joint of (..., K, 3) poses, as tape ops."""
    z = pose[..., 2]
    u = ad.add(ad.div(ad.mul(pose[..., 0], cam.fx), z), cam.cx)
    v = ad.add(ad.div(ad.mul(pose[..., 1], cam.fy), z), cam.cy)
    return ad.concat([ad.reshape(w, w.shape + (1,)) for w in (u, v)], axis=-1)


def project_pose(pose, cam: CameraIntrinsics) -> np.ndarray:
    """``project`` of a (..., K, 3) pose array; a joint in front of the near
    plane raises DepthViolationError."""
    pose = np.asarray(pose, dtype=np.float64)
    z = pose[..., 2]
    if np.any(z < cam.z_min):
        flat = np.argwhere(z < cam.z_min)[0]
        joint = int(flat[-1])
        name = KEYPOINT_NAMES[joint] if pose.shape[-2] == len(KEYPOINT_NAMES) else f"#{joint}"
        raise DepthViolationError(joint, name, float(z[tuple(flat)]), cam.z_min)
    with ad.Tape() as tape:
        return project(tape.const(pose), cam).values
