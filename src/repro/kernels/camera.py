"""Cameras and the paper's 8-viewpoint orbit (Section IV-B4).

The volume-rendering tests orbit the viewpoint around the dataset
centre; at viewpoints 0 and 4 the rays run parallel to the x axis (the
fastest-varying axis of the array-order layout, the friendly case), and
in between they are increasingly misaligned.  We orbit in the x–y plane
with z up, so the alignment schedule matches the paper's Figure 4/5
description exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

__all__ = ["Camera", "orbit_camera", "generate_rays"]


def _normalize(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.where(n == 0, 1.0, n)


@dataclass(frozen=True)
class Camera:
    """A pinhole (perspective) or parallel (orthographic) camera.

    Attributes
    ----------
    eye : (3,) float
        Camera position in volume coordinates (voxel units).
    center : (3,) float
        Look-at point.
    up : (3,) float
        Approximate up direction.
    width, height : int
        Output image size in pixels.
    fov_y_deg : float
        Vertical field of view (perspective).
    projection : {"perspective", "orthographic"}
        The paper measures perspective (per-ray unique slopes, the
        "semi-structured" pattern); orthographic is provided for the
        structured limit.
    ortho_height : float
        World-space image height for orthographic projection.
    """

    eye: Tuple[float, float, float]
    center: Tuple[float, float, float]
    up: Tuple[float, float, float] = (0.0, 0.0, 1.0)
    width: int = 256
    height: int = 256
    fov_y_deg: float = 30.0
    projection: str = "perspective"
    ortho_height: float = 0.0

    def __post_init__(self):
        if self.projection not in ("perspective", "orthographic"):
            raise ValueError(f"unknown projection {self.projection!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if self.projection == "orthographic" and self.ortho_height <= 0:
            raise ValueError("orthographic projection needs ortho_height > 0")

    @property
    def aspect(self) -> float:
        """Width / height."""
        return self.width / self.height

    def basis(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Orthonormal (forward, right, up) triple (read-only arrays)."""
        return self._basis

    @cached_property
    def _basis(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        # computed on first use, then shared by every tile's rays
        eye = np.asarray(self.eye, dtype=np.float64)
        ctr = np.asarray(self.center, dtype=np.float64)
        fwd = _normalize(ctr - eye)
        right = _normalize(np.cross(fwd, np.asarray(self.up, dtype=np.float64)))
        true_up = np.cross(right, fwd)
        for v in (fwd, right, true_up):
            v.flags.writeable = False
        return fwd, right, true_up


def orbit_camera(volume_shape: Sequence[int], viewpoint: int,
                 n_viewpoints: int = 8, width: int = 256, height: int = 256,
                 distance_factor: float = 2.5, fov_y_deg: float = 30.0,
                 projection: str = "perspective") -> Camera:
    """Camera at orbit position ``viewpoint`` of ``n_viewpoints``.

    Viewpoint 0 sits on the +x axis looking in −x (rays ∥ x, the
    array-order-friendly alignment); viewpoint ``n/2`` sits on −x.  The
    orbit runs counter-clockwise in the x–y plane at a radius of
    ``distance_factor`` × the largest volume extent.
    """
    if not 0 <= viewpoint < n_viewpoints:
        raise ValueError(f"viewpoint {viewpoint} out of range 0..{n_viewpoints - 1}")
    shape = np.asarray(volume_shape, dtype=np.float64)
    center = (shape - 1.0) / 2.0
    radius = distance_factor * float(shape.max())
    theta = 2.0 * np.pi * viewpoint / n_viewpoints
    eye = center + radius * np.array([np.cos(theta), np.sin(theta), 0.0])
    return Camera(
        eye=tuple(eye),
        center=tuple(center),
        up=(0.0, 0.0, 1.0),
        width=width,
        height=height,
        fov_y_deg=fov_y_deg,
        projection=projection,
        ortho_height=float(shape.max()) * 1.2 if projection == "orthographic" else 0.0,
    )


def generate_rays(camera: Camera, px: np.ndarray, py: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Origins and unit directions for pixels ``(px, py)``.

    Pixel centres are sampled (the +0.5 convention); ``py`` grows upward
    in image space.  Returns ``(origins, dirs)`` of shape ``(n, 3)``.
    In perspective projection every ray has its own slope (the paper's
    semi-structured pattern); in orthographic all slopes are identical.
    """
    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    fwd, right, up = camera.basis()
    u = (px + 0.5) / camera.width * 2.0 - 1.0
    v = (py + 0.5) / camera.height * 2.0 - 1.0
    if camera.projection == "perspective":
        half_h = np.tan(np.radians(camera.fov_y_deg) / 2.0)
        half_w = half_h * camera.aspect
        dirs = (
            fwd[None, :]
            + (u * half_w)[:, None] * right[None, :]
            + (v * half_h)[:, None] * up[None, :]
        )
        dirs = _normalize(dirs)
        origins = np.broadcast_to(
            np.asarray(camera.eye, dtype=np.float64), dirs.shape
        ).copy()
        return origins, dirs
    half_h = camera.ortho_height / 2.0
    half_w = half_h * camera.aspect
    origins = (
        np.asarray(camera.eye, dtype=np.float64)[None, :]
        + (u * half_w)[:, None] * right[None, :]
        + (v * half_h)[:, None] * up[None, :]
    )
    dirs = np.broadcast_to(fwd, origins.shape).copy()
    return origins, dirs
