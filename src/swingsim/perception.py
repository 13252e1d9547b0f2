"""Synthetic depth capture and elevation-map extraction.

Pipeline (one capture per stride, taken in late stance):
    capture -> crop_and_project -> kmeans_prune -> extract_estimate -> control_modify

The camera is a fan of rays standing in for hardware. Boxes are axis-aligned,
resting on the ground, centered on the sagittal plane y = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .leg_kinematics import DEG

# Fixed lateral fan of the synthetic camera (full angle, radians).
LATERAL_FAN = 20.0 * DEG


@dataclass(frozen=True)
class Box:
    """Rectangular obstacle resting on the ground, centered on y = 0."""

    front_x: float   # m, world x of the near vertical face
    height: float    # m
    depth: float = 0.15   # m, extent along x
    width: float = 0.40   # m, extent along y

    def __post_init__(self):
        for name in ("height", "depth", "width"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"Box.{name} must be positive")

    @property
    def back_x(self) -> float:
        return self.front_x + self.depth


@dataclass(frozen=True)
class ObstacleScene:
    ground_height: float = 0.0
    boxes: tuple = ()

    def __post_init__(self):
        boxes = tuple(sorted(self.boxes, key=lambda b: b.front_x))
        object.__setattr__(self, "boxes", boxes)
        for a, b in zip(boxes, boxes[1:]):
            if b.front_x < a.back_x:
                raise ValueError("scene boxes overlap in x")

    @cached_property
    def spans(self) -> tuple:
        """(front_x, back_x, top z) of each box, computed once per scene."""
        return tuple((b.front_x, b.back_x, self.ground_height + b.height) for b in self.boxes)


@dataclass(frozen=True)
class CameraModel:
    """Synthetic depth camera.

    max_range is a slant-range cap roughly equivalent to the 1 m ground
    look-ahead the narrow FOV allows; the FOV edge is the operative limit
    with the default mount.
    """

    fov: float = 65.0 * DEG
    max_range: float = 1.25            # m along the ray
    rays_vertical: int = 192
    rays_lateral: int = 7
    mount_along_thigh: float = 0.10    # m below hip along the thigh axis
    mount_perp: float = 0.0            # m anterior, perpendicular to the thigh
    mount_pitch: float = 21.0 * DEG    # optical axis forward of the thigh-down axis
    depth_noise_sigma: float = 0.0     # m, Gaussian, applied along the ray

    def __post_init__(self):
        if not 0.0 < self.fov < math.pi:
            raise ValueError("CameraModel.fov must be in (0, pi)")
        if self.rays_vertical < 2 or self.rays_lateral < 2:
            raise ValueError("CameraModel ray counts must be >= 2")
        if self.depth_noise_sigma < 0.0:
            raise ValueError("CameraModel.depth_noise_sigma must be >= 0")


@dataclass(frozen=True)
class CameraPose:
    """World pose of the camera; axis_pitch is the optical axis angle from
    straight down, positive tilting forward."""

    x: float
    y: float
    z: float
    axis_pitch: float


@dataclass(frozen=True)
class PointCloud:
    points: np.ndarray            # (n, 3) world xyz; may be empty

    @property
    def empty(self) -> bool:
        return self.points.shape[0] == 0


@dataclass(frozen=True)
class ElevationKeypoints:
    keypoints: tuple  # ((x, z), ...) strictly increasing in x


@dataclass(frozen=True)
class ObstacleEstimate:
    z_m_prime: float                 # m, max elevation ahead of the toe
    x_c_raw: Optional[float] = None  # m, toe-to-front distance; None when no rising edge


@dataclass(frozen=True)
class ControlTarget:
    z_m: float  # m, obstacle height for control (safety margin applied)
    x_c: float  # m (a distance from the capture toe, or absolute world x once
                # the harness rebases it for the planner)


def camera_pose_from_thigh(hip_x: float, hip_z: float, theta_h: float,
                           model: CameraModel) -> CameraPose:
    """Mount the camera on the thigh segment and derive its world pose."""
    sh, ch = math.sin(theta_h), math.cos(theta_h)
    # thigh-down direction (sh, -ch); anterior perpendicular (ch, sh)
    cx = hip_x + model.mount_along_thigh * sh + model.mount_perp * ch
    cz = hip_z - model.mount_along_thigh * ch + model.mount_perp * sh
    return CameraPose(x=cx, y=0.0, z=cz, axis_pitch=theta_h + model.mount_pitch)


def capture(scene: ObstacleScene, pose: CameraPose, model: CameraModel,
            seed: int) -> PointCloud:
    """Ray-cast one synthetic depth frame.

    One point per ray that hits the ground or a box face within max_range,
    perturbed along the ray by Gaussian noise. An empty cloud (camera looking
    skyward, nothing in range) is a valid "no returns" outcome.
    """
    rng = np.random.default_rng(seed)
    zeta = pose.axis_pitch + np.linspace(-model.fov / 2, model.fov / 2, model.rays_vertical)
    psi = np.linspace(-LATERAL_FAN / 2, LATERAL_FAN / 2, model.rays_lateral)
    zz, pp = np.meshgrid(zeta, psi, indexing="ij")
    zz, pp = zz.ravel(), pp.ravel()

    dx = np.sin(zz) * np.cos(pp)
    dy = np.sin(pp)
    dz = -np.cos(zz) * np.cos(pp)

    best_t = np.full(zz.shape, np.inf)

    def consider(t, ok):
        valid = ok & (t > 1e-9) & (t <= model.max_range)
        np.copyto(best_t, t, where=valid & (t < best_t))

    # ground plane
    with np.errstate(divide="ignore", invalid="ignore"):
        tg = (scene.ground_height - pose.z) / dz
    consider(tg, np.isfinite(tg) & (dz < 0.0))

    for box in scene.boxes:
        top_z = scene.ground_height + box.height
        halfw = box.width / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            # top face
            t = (top_z - pose.z) / dz
            x = pose.x + t * dx
            y = pose.y + t * dy
            consider(t, np.isfinite(t) & (dz < 0.0)
                     & (x >= box.front_x) & (x <= box.back_x) & (np.abs(y) <= halfw))
            # front and back vertical faces
            for face_x, toward in ((box.front_x, 1.0), (box.back_x, -1.0)):
                t = (face_x - pose.x) / dx
                y = pose.y + t * dy
                z = pose.z + t * dz
                consider(t, np.isfinite(t) & (toward * dx > 0.0)
                         & (z >= scene.ground_height) & (z <= top_z) & (np.abs(y) <= halfw))

    hit = np.isfinite(best_t)
    t = best_t[hit]
    if model.depth_noise_sigma > 0.0:
        t = t + rng.normal(0.0, model.depth_noise_sigma, size=t.shape)
    pts = np.column_stack((pose.x + t * dx[hit], pose.y + t * dy[hit], pose.z + t * dz[hit]))
    return PointCloud(points=pts)


def crop_and_project(cloud: PointCloud, corridor_width: float = 0.15,
                     y_prosthesis: float = 0.0) -> np.ndarray:
    """Keep points inside the sagittal corridor and drop y.

    Returns an (n, 2) array of (x, z), sorted by x. Empty when nothing
    survives the crop; downstream treats that as level ground.
    """
    if cloud.empty:
        return np.empty((0, 2))
    pts = cloud.points
    keep = np.abs(pts[:, 1] - y_prosthesis) <= corridor_width / 2.0
    flat = pts[keep][:, (0, 2)]
    return flat[np.argsort(flat[:, 0], kind="stable")]


def _sqdist(px, pz, cx, cz, out=None) -> np.ndarray:
    """Squared distances between points (px, pz) and centers (cx, cz).

    Pass point columns as px[:, None] to get the (n, k) matrix, and a reused
    `out` buffer to spare a fresh (n, k) allocation per call. Each term is
    squared as d * d (the same float as d ** 2) and the two are added
    directly: a sum over a length-2 axis is exactly a + b, so these are the
    bits an (n, k, 2) difference array reduced over its last axis gives.
    The expanded |p|^2 - 2 p.c + |c|^2 is avoided because it moves the last
    bits, which can flip argmin ties.
    """
    d2 = np.subtract(px, cx, out=out)
    d2 *= d2
    dz = pz - cz
    dz *= dz
    d2 += dz
    return d2


def _choice_index(rng: np.random.Generator, d2: np.ndarray, total: float,
                  cdf: np.ndarray) -> int:
    """rng.choice(len(d2), p=d2 / total) without its per-call validation: the
    same single rng.random() draw looked up in the same normalized cumulative
    sum (built in the buffer cdf), so the same index and the same stream state."""
    if not math.isfinite(total):
        raise ValueError(f"k-means++ weights must have a finite total, got {total}")
    np.divide(d2, total, out=cdf)
    cdf.cumsum(out=cdf)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeans_pp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii, SODA 2007); d2, the squared
    distance to the nearest chosen center, is updated in place."""
    n = pts.shape[0]
    px, pz = pts.T.copy()
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = _sqdist(px, pz, *centers[0])
    cdf, near = np.empty(n), np.empty(n)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[i:] = pts[rng.integers(n, size=k - i)]
            break
        j = _choice_index(rng, d2, total, cdf)
        centers[i] = pts[j]
        np.minimum(d2, _sqdist(px, pz, px[j], pz[j], out=near), out=d2)
    return centers


def _lloyd(pts: np.ndarray, centers: np.ndarray, max_iter: int) -> tuple:
    """Lloyd iterations to an assignment fixpoint. Returns (centers, sse).

    While no cluster is empty the centroid update is a weighted bincount,
    which adds each cluster's points in point order exactly as
    pts[sel].mean(axis=0) does, so the centers are the same floats.

    An iteration with an empty cluster runs the per-cluster loop instead.
    Each empty cluster is reseeded at the point farthest from its nearest
    center, and that point moves to it before the later clusters' means are
    taken. The nearest distances then take in the reseeded center, so the
    next empty cluster goes to the point farthest from it too.
    """
    n, k = pts.shape[0], centers.shape[0]
    px, pz = pts.T.copy()
    pxc, pzc = px[:, None], pz[:, None]
    cx, cz = centers.T.copy()
    d2 = np.empty((n, k))
    assign = np.full(n, -1)
    for _ in range(max_iter):
        _sqdist(pxc, pzc, cx, cz, out=d2)
        new_assign = np.argmin(d2, axis=1)
        counts = np.bincount(new_assign, minlength=k)
        if counts.all():
            cx = np.bincount(new_assign, weights=px, minlength=k) / counts
            cz = np.bincount(new_assign, weights=pz, minlength=k) / counts
        else:
            nearest = np.min(d2, axis=1)
            for j in range(k):
                sel = new_assign == j
                if sel.any():
                    cx[j], cz[j] = pts[sel].mean(axis=0)
                else:
                    # re-seed an empty cluster at the farthest point
                    far = np.argmax(nearest)
                    cx[j], cz[j] = px[far], pz[far]
                    new_assign[far] = j
                    np.minimum(nearest, _sqdist(px, pz, cx[j], cz[j]), out=nearest)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    sse = float(np.min(_sqdist(pxc, pzc, cx, cz, out=d2), axis=1).sum())
    return np.column_stack((cx, cz)), sse


def kmeans_prune(points: Sequence, k: int, seed: int,
                 restarts: int = 20, max_iter: int = 100) -> ElevationKeypoints:
    """Prune a 2-D profile to k cluster centers sorted by x.

    Lloyd's algorithm with k-means++ seeding; the best of `restarts` runs is
    kept. Fewer than k points are returned as-is, sorted.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise ValueError("kmeans_prune needs a non-empty point set")
    if k < 1:
        raise ValueError("kmeans_prune needs k >= 1")
    if pts.shape[0] <= k:
        ordered = pts[np.argsort(pts[:, 0], kind="stable")]
        return _dedupe(ordered)

    rng = np.random.default_rng(seed)
    best = None
    best_sse = math.inf
    for _ in range(max(1, restarts)):
        centers = _kmeans_pp_init(pts, k, rng)
        centers, sse = _lloyd(pts, centers, max_iter)
        if sse < best_sse - 1e-15 or best is None:
            best, best_sse = centers, sse
    ordered = best[np.argsort(best[:, 0], kind="stable")]
    return _dedupe(ordered)


def _dedupe(ordered: np.ndarray) -> ElevationKeypoints:
    """Collapse (rare) duplicate x positions so x is strictly increasing."""
    out = []
    for x, z in ordered:
        if out and x - out[-1][0] <= 1e-12:
            px, pz = out[-1]
            out[-1] = (px, float((pz + z) / 2.0))
        else:
            out.append((float(x), float(z)))
    return ElevationKeypoints(keypoints=tuple(out))


def kmeans_sse(points: Sequence, keypoints: ElevationKeypoints) -> float:
    """Sum of squared distances of points to their nearest keypoint."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    cen = np.asarray(keypoints.keypoints, dtype=float).reshape(-1, 2)
    d2 = _sqdist(pts[:, :1], pts[:, 1:], cen[:, 0], cen[:, 1])
    return float(np.min(d2, axis=1).sum())


def elevation_keypoints(points: np.ndarray, k: int, seed: int,
                        restarts: int = 20, z_weight: float = 4.0) -> ElevationKeypoints:
    """Cluster a projected profile with elevation contrast emphasized.

    z is scaled by z_weight before clustering (and unscaled after) so that
    ground, obstacle face and obstacle top separate cleanly; this sharpens
    the front-edge localization without touching kmeans_prune itself.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    scaled = pts * np.array([1.0, z_weight])
    kp = kmeans_prune(scaled, k, seed, restarts=restarts)
    undone = tuple((x, z / z_weight) for x, z in kp.keypoints)
    return ElevationKeypoints(keypoints=undone)


def extract_estimate(keypoints: ElevationKeypoints, toe: tuple,
                     edge_threshold: float = 0.02) -> ObstacleEstimate:
    """Read (z_m', x_c_raw) off the pruned elevation map.

    z_m' is the maximum elevation ahead of the toe. x_c_raw is the horizontal
    distance from the toe to the keypoint immediately before the largest
    positive consecutive-z jump (the conservative front localization); absent
    when no jump exceeds edge_threshold. Ties go to the later jump, which
    lands the pre-jump keypoint on the obstacle face when one was resolved.
    """
    x_t, z_t = toe
    kps = keypoints.keypoints
    if not kps:
        return ObstacleEstimate(z_m_prime=z_t, x_c_raw=None)

    ahead = [z for x, z in kps if x > x_t]
    z_m_prime = max(ahead) if ahead else z_t

    best_jump = -math.inf
    best_i = None
    for i in range(len(kps) - 1):
        jump = kps[i + 1][1] - kps[i][1]
        if jump >= best_jump:
            best_jump = jump
            best_i = i
    if best_i is None or best_jump <= edge_threshold:
        return ObstacleEstimate(z_m_prime=z_m_prime, x_c_raw=None)
    return ObstacleEstimate(z_m_prime=z_m_prime, x_c_raw=kps[best_i][0] - x_t)


def control_modify(est: ObstacleEstimate, z_t: float, delta: float = 0.01,
                   default_x_c: float = 0.20) -> ControlTarget:
    """Safety-margin and default-distance modifications.

    z_m = max(z_m', z_t) + delta guarantees lift-off even on level ground and
    on descending profiles; when the profile is level (z_m' <= z_t) or no
    front edge was found, x_c falls back to the 20 cm default.
    """
    z_m = max(est.z_m_prime, z_t) + delta
    if est.z_m_prime <= z_t or est.x_c_raw is None:
        x_c = default_x_c
    else:
        x_c = est.x_c_raw
    return ControlTarget(z_m=z_m, x_c=x_c)
