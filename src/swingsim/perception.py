"""Synthetic depth capture and elevation-map extraction.

Pipeline (one capture per stride, taken in late stance):
    capture -> crop_and_project -> kmeans_prune -> extract_estimate -> control_modify

The camera is a fan of rays standing in for hardware. Boxes are axis-aligned,
resting on the ground, centered on the sagittal plane y = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Integral
from typing import Optional, Sequence

import numpy as np

from .leg_kinematics import (DEG, FINITE, NON_NEGATIVE, POSITIVE, Rule, _each, at_least,
                             check_rules, declare, fields_state)

# Fixed lateral fan of the synthetic camera (full angle, radians).
LATERAL_FAN = 20.0 * DEG

# Ray fans _ray_fan keeps; the largest accepted (500 x 21 rays) holds 0.25 MB.
# A fan built per capture took a campaign 1.021x at seed 2024, 1.020x at 7.
# Each workload, at either seed, reads one fan: a campaign 209/1 hits/misses, 120 ops 119/1.
RAY_FAN_CACHE = 8

# Cap on kmeans_prune's Lloyd center updates per restart: it bounds a
# restart's cost and does not promise convergence (see kmeans_prune).
LLOYD_MAX_ITER = 100

# _lloyd refreshes only the moved centers' distance columns, or the whole
# matrix past this share of k. A refresh of j of 50 columns, one (j, m) block
# scattered into the matrix, broke even with the whole matrix at j ~ 26
# (224 rows) and 30-32 (493 rows); half keeps margin. Refreshing the whole
# matrix every time took a campaign 1.035x at seed 2024 and 1.034x at 7,
# and perceive-grid's scenes 1.110x and 1.108x.
FULL_REFRESH_SHARE = 0.5

# control_modify's x_c when the profile shows no front edge ahead of the toe.
DEFAULT_X_C = 0.20


# File ranges of a box's height and of its depth and width, m; a campaign's
# boxes share them
HEIGHT_RANGE_M, SIZE_RANGE_M = (0.005, 0.5), (0.01, 2.0)


@dataclass(frozen=True)
class Box:
    """Rectangular obstacle resting on the ground, centered on y = 0: its
    near vertical face at world x front_x, extending depth along x and width
    along y, in m."""

    front_x: float = declare(FINITE, "front_x_m", -2.0, 5.0)
    height: float = declare(POSITIVE, "height_m", *HEIGHT_RANGE_M)
    depth: float = declare(POSITIVE, "depth_m", *SIZE_RANGE_M, default=0.15)
    width: float = declare(POSITIVE, "width_m", *SIZE_RANGE_M, default=0.40)

    def __post_init__(self):
        check_rules(self)

    @property
    def back_x(self) -> float:
        return self.front_x + self.depth


@dataclass(frozen=True)
class ObstacleScene:
    ground_height: float = declare(FINITE, "ground_height_m", -0.3, 0.5, default=0.0)
    boxes: tuple = declare(None, "boxes", default=())

    def __post_init__(self):
        check_rules(self)
        boxes = tuple(sorted(self.boxes, key=lambda b: b.front_x))
        object.__setattr__(self, "boxes", boxes)
        for a, b in zip(boxes, boxes[1:]):
            if b.front_x < a.back_x:
                raise ValueError("scene boxes overlap in x")

    # its spans and x_extent are rebuilt, not pickled into run_campaign's chunks
    __getstate__ = fields_state

    @cached_property
    def spans(self) -> tuple:
        """(front_x, back_x, top z) of each box, computed once per scene: the
        one place a box top is raised onto the ground."""
        return tuple((b.front_x, b.back_x, self.ground_height + b.height) for b in self.boxes)

    @cached_property
    def x_extent(self) -> tuple:
        """(front x of the first box, back x of the last); with no box (inf, -inf),
        which every x is short of and past. Sorted disjoint boxes lie inside it."""
        spans = self.spans
        return (spans[0][0], spans[-1][1]) if spans else (math.inf, -math.inf)


@dataclass(frozen=True)
class CameraModel:
    """Synthetic depth camera.

    max_range is a slant-range cap roughly equivalent to the 1 m ground
    look-ahead the narrow FOV allows; the FOV edge is the operative limit
    with the default mount.
    """

    fov: float = declare(Rule(math.ulp(0.0), math.nextafter(math.pi, 0.0), "lie in (0, pi)"),
                         "fov_deg", 10.0, 170.0, default=65.0 * DEG)
    max_range: float = declare(POSITIVE, "max_range_m", 0.1, 10.0, default=1.25)  # along the ray
    rays_vertical: int = declare(at_least(2), "rays_vertical", 2, 500, default=192)
    rays_lateral: int = declare(at_least(2), "rays_lateral", 2, 21, default=7)
    # m below the hip along the thigh axis, and anterior, perpendicular to it
    mount_along_thigh: float = declare(NON_NEGATIVE, "mount_along_thigh_m", 0.0, 0.5,
                                       default=0.10)
    mount_perp: float = declare(FINITE, "mount_perp_m", -0.2, 0.2, default=0.0)
    # optical axis forward of the thigh-down axis
    mount_pitch: float = declare(FINITE, "mount_pitch_deg", -90.0, 90.0, default=21.0 * DEG)
    # m, Gaussian, applied along the ray
    depth_noise_sigma: float = declare(NON_NEGATIVE, "noise_sigma_m", 0.0, 0.05, default=0.0)

    def __post_init__(self):
        check_rules(self)


@dataclass(frozen=True)
class CameraPose:
    """World pose of the camera; axis_pitch is the optical axis angle from
    straight down, positive tilting forward."""

    x: float
    z: float
    axis_pitch: float


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
    return CameraPose(x=cx, z=cz, axis_pitch=theta_h + model.mount_pitch)


@lru_cache(maxsize=RAY_FAN_CACHE)
def _ray_fan(axis_pitch: float, fov: float, rays_vertical: int, rays_lateral: int) -> np.ndarray:
    """Read-only (3, n) rows dx, dy, dz of the ray directions, vertical-major."""
    zeta = axis_pitch + np.linspace(-fov / 2, fov / 2, rays_vertical)
    psi = np.linspace(-LATERAL_FAN / 2, LATERAL_FAN / 2, rays_lateral)
    # libm's sin and cos, one call per angle: numpy's own kernels need not
    # give libm's floats, and the fan's last bits reach the campaign outputs
    sin_z, cos_z, sin_p, cos_p = (_each(f, a) for a in (zeta, psi) for f in (math.sin, math.cos))
    sz, sp = (a.ravel() for a in np.meshgrid(sin_z, sin_p, indexing="ij"))
    cz, cp = (a.ravel() for a in np.meshgrid(cos_z, cos_p, indexing="ij"))
    fan = np.stack((sz * cp, sp, -cz * cp))
    fan.flags.writeable = False
    return fan


def capture(scene: ObstacleScene, pose: CameraPose, model: CameraModel,
            seed: int) -> np.ndarray:
    """Ray-cast one synthetic depth frame, as (n, 3) world xyz points.

    One point per ray that hits the ground or a box face within max_range,
    perturbed along the ray by Gaussian noise. An empty cloud (camera looking
    skyward, nothing in range) is a valid "no returns" outcome. The camera
    sits on the sagittal plane y = 0. Its ray fan comes read-only from
    _ray_fan's cache. Only a noisy camera builds a Generator: one for every
    camera took a campaign 1.009x at seed 2024 and 1.006x at 7 (medians).
    """
    dx, dy, dz = _ray_fan(pose.axis_pitch, model.fov, model.rays_vertical, model.rays_lateral)
    best_t = np.full(dz.shape, np.inf)

    def consider(t, ok):
        valid = ok & (t > 1e-9) & (t <= model.max_range)
        np.copyto(best_t, t, where=valid & (t < best_t))

    # t = inf or NaN fails t <= max_range (or t < best_t): no isfinite test
    with np.errstate(divide="ignore", invalid="ignore"):
        consider((scene.ground_height - pose.z) / dz, dz < 0.0)  # ground plane
        for box, (front_x, back_x, top_z) in zip(scene.boxes, scene.spans):
            halfw = box.width / 2.0
            # top face
            t = (top_z - pose.z) / dz
            x = pose.x + t * dx
            y = t * dy
            consider(t, (dz < 0.0) & (x >= front_x) & (x <= back_x) & (np.abs(y) <= halfw))
            # front and back vertical faces
            for face_x, toward in ((front_x, 1.0), (back_x, -1.0)):
                t = (face_x - pose.x) / dx
                y = t * dy
                z = pose.z + t * dz
                consider(t, (toward * dx > 0.0) & (z >= scene.ground_height) & (z <= top_z)
                         & (np.abs(y) <= halfw))

    hit = np.isfinite(best_t)
    t = best_t[hit]
    if model.depth_noise_sigma > 0.0:
        t = t + np.random.default_rng(seed).normal(0.0, model.depth_noise_sigma, size=t.shape)
    return np.column_stack((pose.x + t * dx[hit], t * dy[hit], pose.z + t * dz[hit]))


def crop_and_project(cloud: np.ndarray, corridor_width: float) -> np.ndarray:
    """Keep the (n, 3) cloud's points inside the sagittal corridor, centered
    on the prosthesis at y = 0, and drop y.

    Returns an (n, 2) array of (x, z), sorted by x. Empty when nothing
    survives the crop; downstream treats that as level ground.
    """
    keep = np.abs(cloud[:, 1]) <= corridor_width / 2.0
    flat = cloud[keep][:, (0, 2)]
    return flat[np.argsort(flat[:, 0], kind="stable")]


def _sqdist(px, pz, cx, cz, out=None, dz=None) -> np.ndarray:
    """Squared distances between points (px, pz) and centers (cx, cz).

    Shapes broadcast: point columns tiled to (n, k) against (k,) centers
    give _lloyd's matrix, (n,) points against (r, 1) centers the seeding's
    rows and _lloyd's partial refresh. `out` and `dz` are optional reused
    buffers of the result's shape.
    Each term is squared as d * d (the same float as d ** 2) and the two are
    added directly: a sum over a length-2 axis is exactly a + b, so these
    are the bits an (n, k, 2) difference array reduced over its last axis
    gives. The expanded |p|^2 - 2 p.c + |c|^2 is avoided because it moves
    the last bits, which can flip argmin ties.
    """
    d2 = np.subtract(px, cx, out=out)
    d2 *= d2
    dz = np.subtract(pz, cz, out=dz)
    dz *= dz
    d2 += dz
    return d2


def _choice_rows(d2: np.ndarray, total: np.ndarray, u: np.ndarray,
                 cdf: np.ndarray, below: np.ndarray) -> Optional[np.ndarray]:
    """rng.choice(n, p=d2[r] / total[r]) for every row r of non-negative
    weights and its rng.random() draw u[r]: Generator.choice's normalized
    cumulative sum (in the buffer cdf), and its side="right" lookup of u[r]
    as the first entry of the sorted cdf above it (in the bool buffer below).
    None if a total is 0; a non-finite total raises ValueError, as choice
    does. Both tests run only if some total is outside (0, inf)."""
    if not 0.0 < np.minimum.reduce(total) <= np.maximum.reduce(total) < math.inf:
        if (total <= 0.0).any():
            return None
        if not np.isfinite(total).all():
            raise ValueError(f"k-means++ weights must have a finite total, got {total}")
    np.divide(d2, total[:, None], out=cdf)
    np.add.accumulate(cdf, axis=1, out=cdf)
    cdf /= cdf[:, -1:]
    return np.greater(cdf, u[:, None], out=below).argmax(axis=1)


def _seed_lockstep(pts: np.ndarray, k: int, rng: np.random.Generator,
                   restarts: int) -> Optional[np.ndarray]:
    """k-means++ seeding (Arthur & Vassilvitskii, SODA 2007) of every restart,
    as (restarts, k, 2) centers; None if some restart's weights total 0
    before its last center, when every point lies at distance 0 from fewer
    than k centers.

    Each restart's draws, integers(n) and then one random() per later center,
    are taken up front in stream order, and each center step advances all
    nearest-distance rows (d2, squared distance to the nearest chosen center)
    as one array. The centers returned are those of a restart-by-restart
    loop drawing one rng.choice(n, p=d2 / total) per center (_choice_rows),
    and rng is left where that loop leaves it.
    """
    px, pz = pts.T.copy()
    first, u = np.empty(restarts, dtype=np.intp), np.empty((restarts, k - 1))
    for r in range(restarts):
        first[r] = rng.integers(len(pts))
        u[r] = rng.random(k - 1)
    centers = np.empty((restarts, k, 2))
    c = centers[:, 0] = pts[first]
    d2 = _sqdist(px, pz, c[:, :1], c[:, 1:])
    near, cdf, below = np.empty_like(d2), np.empty_like(d2), np.empty(d2.shape, dtype=bool)
    for i in range(1, k):
        j = _choice_rows(d2, np.add.reduce(d2, axis=1), u[:, i - 1], cdf, below)
        if j is None:
            return None
        c = centers[:, i] = pts[j]
        # cdf is free again until the next step, so it serves as dz
        np.minimum(d2, _sqdist(px, pz, c[:, :1], c[:, 1:], out=near, dz=cdf), out=d2)
    return centers


def _lloyd_work(pts: np.ndarray, k: int) -> tuple:
    """What _lloyd reads for k centers, made once per kmeans_prune call and
    shared by every restart: the point columns px and pz, the index inv of
    each point's row among the distinct points (None if no point repeats:
    the rows are then the points), the rows' columns ux and uz, those tiled
    to (m, k), and two (m, k) buffers. Mirrored lateral rays make m ~0.45 n
    on clean captures. Grouping on a complex128 view costs ~0.04 ms,
    np.unique(axis=0) ~0.4 ms; a row per point instead took a campaign
    1.158x at seed 2024 and 1.146x at 7, and reading inv with no repeat took
    perceive-grid 1.008x and 1.007x."""
    px, pz = pts.T.copy()
    xz = np.ascontiguousarray(pts).view(np.complex128)[:, 0]
    distinct, inv = np.unique(xz, return_inverse=True)
    if distinct.size == xz.size:
        distinct, inv = xz, None
    ux, uz = distinct.real.copy(), distinct.imag.copy()
    tx, tz = np.tile(ux[:, None], k), np.tile(uz[:, None], k)
    return px, pz, inv, ux, uz, tx, tz, np.empty_like(tx), np.empty_like(tx)


def _lloyd(pts: np.ndarray, work: tuple, centers: np.ndarray, max_iter: int) -> tuple:
    """Lloyd iterations to an assignment fixpoint. Returns (centers, sse).

    `work` is _lloyd_work(pts, k). Equal points (±0 too) have equal distance
    rows and an unmoved center an unchanged column, so the matrix has a row
    per distinct point, read back through inv, and each update refreshes the
    moved centers' columns only: one contiguous (moved, m) block, scattered
    once. Every sum and test sees the floats of a full matrix, in point
    order. While no cluster is empty the centroid update is a weighted
    bincount, which adds each cluster's points in point order exactly as
    pts[sel].mean(axis=0) does, so the centers are the same floats.

    An iteration with an empty cluster runs the per-cluster loop instead.
    Each empty cluster is reseeded at the point farthest from its nearest
    center, and that point moves to it before the later clusters' means are
    taken. The nearest distances then take in the reseeded center, so the
    next empty cluster goes to the point farthest from it too.

    In exact arithmetic each iteration lowers the SSE until the fixpoint. On
    points that differ only in their last bits, the mean of a cluster's
    equal points can be off by an ulp, and the assignment can then cycle
    through SSEs of ~1e-33 and never reach its fixpoint. So the loop also
    stops, at the centers it holds, on an SSE that does not fall.
    """
    px, pz, inv, ux, uz, tx, tz, d2, dz = work
    m, k = tx.shape
    rows = np.arange(m) * k  # d2.take(rows + c) reads d2[i, c[i]] for every i
    cx, cz = centers.T.copy()
    assign = np.full(px.shape[0], -1)
    sse, fixpoint = math.inf, False
    _sqdist(tx, tz, cx, cz, out=d2, dz=dz)
    for i in range(max_iter + 1):
        nearest_c = d2.argmin(axis=1)
        nearest = d2.take(rows + nearest_c)
        if inv is not None:
            nearest_c, nearest = nearest_c[inv], nearest[inv]
        last_sse, sse = sse, float(np.add.reduce(nearest))
        if fixpoint or i == max_iter or not sse < last_sse:
            return np.column_stack((cx, cz)), sse
        counts = np.bincount(nearest_c, minlength=k)
        before = cx, cz
        if counts.all():
            new_assign = nearest_c
            cx = np.bincount(new_assign, weights=px, minlength=k) / counts
            cz = np.bincount(new_assign, weights=pz, minlength=k) / counts
        else:
            new_assign = nearest_c.copy()
            cx, cz = cx.copy(), cz.copy()
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
        moved = ((cx != before[0]) | (cz != before[1])).nonzero()[0]
        fixpoint = (new_assign == assign).all()
        if fixpoint and not moved.size:
            return np.column_stack((cx, cz)), sse
        if moved.size > FULL_REFRESH_SHARE * k:
            _sqdist(tx, tz, cx, cz, out=d2, dz=dz)
        elif moved.size:
            d2[:, moved] = _sqdist(ux, uz, cx[moved, None], cz[moved, None]).T
        assign = new_assign


def kmeans_prune(points: Sequence, k: int, seed: int, restarts: int) -> ElevationKeypoints:
    """Prune a 2-D profile to k cluster centers sorted by x.

    Lloyd's algorithm with k-means++ seeding (_seed_lockstep); the best of
    `restarts` runs is kept. A profile with nothing to prune is returned
    as-is, sorted: one of at most k points, or one on which some restart's
    k-means++ weights total 0 before its last center, so that every point
    already lies at distance 0 from fewer than k of them.

    Each restart makes at most LLOYD_MAX_ITER center updates. The cap bounds
    a restart's cost and does not promise convergence: Lloyd has no general
    iteration bound in the plane (Vattani, DCG 2011), and a restart stopped
    at the cap competes with the SSE it holds there.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.shape[0] == 0:
        raise ValueError("kmeans_prune needs a non-empty point set")
    for name, n in (("k", k), ("restarts", restarts)):
        if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
            raise ValueError(f"kmeans_prune needs an int {name} >= 1, got {n!r}")
    seeded = (_seed_lockstep(pts, k, np.random.default_rng(seed), restarts)
              if pts.shape[0] > k else None)
    best = pts
    if seeded is not None:
        work, best_sse = _lloyd_work(pts, k), math.inf
        for centers in seeded:
            centers, sse = _lloyd(pts, work, centers, LLOYD_MAX_ITER)
            if sse < best_sse - 1e-15 or best is pts:
                best, best_sse = centers, sse
    ordered = best[np.argsort(best[:, 0], kind="stable")]
    return _dedupe(ordered)


def _dedupe(ordered: np.ndarray) -> ElevationKeypoints:
    """Collapse duplicate x positions so x is strictly increasing.

    Common on Lloyd's output: over 660 captures, 389 groups of 2-21 box-face
    keypoints shared an x. Each merge averages z with the group's merged z so
    far, so a group's z is an order-dependent pairwise average, not its mean."""
    out = []
    for x, z in ordered:
        if out and x - out[-1][0] <= 1e-12:
            out[-1] = (out[-1][0], float((out[-1][1] + z) / 2.0))
        else:
            out.append((float(x), float(z)))
    return ElevationKeypoints(keypoints=tuple(out))


def elevation_keypoints(points: np.ndarray, k: int, seed: int, restarts: int,
                        z_weight: float) -> ElevationKeypoints:
    """Cluster a projected profile with elevation contrast emphasized.

    z is scaled by z_weight before clustering (and unscaled after) so that
    ground, obstacle face and obstacle top separate cleanly; this sharpens
    the front-edge localization without touching kmeans_prune itself.
    """
    scaled = np.asarray(points, dtype=float).reshape(-1, 2) * np.array([1.0, z_weight])
    kp = kmeans_prune(scaled, k, seed, restarts=restarts)
    return ElevationKeypoints(keypoints=tuple((x, z / z_weight) for x, z in kp.keypoints))


def extract_estimate(keypoints: ElevationKeypoints, toe: tuple,
                     edge_threshold: float) -> ObstacleEstimate:
    """Read (z_m', x_c_raw) off the pruned elevation map.

    z_m' is the maximum elevation ahead of the toe. x_c_raw is the horizontal
    distance from the toe to the keypoint immediately before the largest
    positive consecutive-z jump (the conservative front localization); absent
    when no jump exceeds edge_threshold. Ties go to the later jump, which
    lands the pre-jump keypoint on the obstacle face when one was resolved.
    """
    x_t, z_t = toe
    kps = keypoints.keypoints
    ahead = [z for x, z in kps if x > x_t]
    z_m_prime = max(ahead) if ahead else z_t

    best_jump, best_i = -math.inf, None
    for i in range(len(kps) - 1):
        jump = kps[i + 1][1] - kps[i][1]
        if jump >= best_jump:
            best_jump = jump
            best_i = i
    if best_i is None or best_jump <= edge_threshold:
        return ObstacleEstimate(z_m_prime=z_m_prime, x_c_raw=None)
    return ObstacleEstimate(z_m_prime=z_m_prime, x_c_raw=kps[best_i][0] - x_t)


def control_modify(est: ObstacleEstimate, z_t: float, delta: float) -> ControlTarget:
    """Safety-margin and default-distance modifications.

    z_m = max(z_m', z_t) + delta guarantees lift-off even on level ground and
    on descending profiles; when the profile is level (z_m' <= z_t) or no
    front edge was found, x_c falls back to the 20 cm DEFAULT_X_C.
    """
    z_m = max(est.z_m_prime, z_t) + delta
    if est.z_m_prime <= z_t or est.x_c_raw is None:
        x_c = DEFAULT_X_C
    else:
        x_c = est.x_c_raw
    return ControlTarget(z_m=z_m, x_c=x_c)
