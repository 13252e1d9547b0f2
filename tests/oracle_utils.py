"""Independent oracles shared by the planner and acceptance suites.

These deliberately avoid the solver code paths they check: dense grid scans
over the forward kinematics, exhaustive partition enumeration, and a
reference k-means kept in its original per-cluster-loop form.
"""
import math

import numpy as np

from swingsim.leg_kinematics import DEG, LegGeometry
from swingsim.perception import _dedupe

GEOM = LegGeometry()
LIMIT = 85.0 * DEG


def toe_z_fn(z_h, theta_h, geom=GEOM):
    """Toe height as a function of theta_k at a fixed hip height and angle."""
    z0 = z_h - geom.thigh_m * math.cos(theta_h)

    def f(tk):
        ts = theta_h - tk
        return z0 - geom.shank_m * math.cos(ts) + geom.toe_m * math.sin(ts)

    return f


def grid_boundary(z_h, z_m, theta_h, step=0.01 * DEG, interpolate=False,
                  geom=GEOM, limit=LIMIT):
    """Dense-scan oracle for the upward-exit boundary of M_z.

    Walks theta_k down from the knee limit to the lowest angle of the
    terminal above-z_m run; optionally interpolates the crossing linearly
    (used by the slope oracle, where grid quantization would dominate).
    """
    tks = np.arange(0.0, limit + step / 2, step)
    ts = theta_h - tks
    toe = (z_h - geom.thigh_m * math.cos(theta_h)
           - geom.shank_m * np.cos(ts) + geom.toe_m * np.sin(ts))
    above = toe >= z_m
    if not above[-1]:
        return None
    idx = len(tks) - 1
    while idx > 0 and above[idx - 1]:
        idx -= 1
    if idx == 0:
        return 0.0
    if not interpolate:
        return float(tks[idx])
    lo, hi = tks[idx - 1], tks[idx]
    flo, fhi = toe[idx - 1] - z_m, toe[idx] - z_m
    return float(lo - flo * (hi - lo) / (fhi - flo))


def brute_force_kmeans_sse(points, kmax):
    """Exhaustive minimum SSE over all partitions into at most kmax parts.

    Restricted-growth enumeration avoids counting label permutations.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    best = math.inf

    def rec(i, labels, used):
        nonlocal best
        if i == n:
            sse = 0.0
            for j in range(used):
                sel = pts[np.array(labels) == j]
                sse += float(((sel - sel.mean(axis=0)) ** 2).sum())
            best = min(best, sse)
            return
        for j in range(min(used + 1, kmax)):
            labels.append(j)
            rec(i + 1, labels, max(used, j + 1))
            labels.pop()

    rec(0, [], 0)
    return best


# Reference k-means: the original loop implementation, kept verbatim so the
# vectorized production path can be checked for equal keypoints.

def _kmeans_pp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[i:] = pts[rng.integers(n, size=k - i)]
            break
        probs = d2 / total
        centers[i] = pts[rng.choice(n, p=probs)]
        d2 = np.minimum(d2, np.sum((pts - centers[i]) ** 2, axis=1))
    return centers


def _lloyd(pts: np.ndarray, centers: np.ndarray, max_iter: int) -> tuple:
    """Lloyd iterations to an assignment fixpoint. Returns (centers, sse)."""
    n, k = pts.shape[0], centers.shape[0]
    assign = np.full(n, -1)
    for _ in range(max_iter):
        d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        new_assign = np.argmin(d2, axis=1)
        for j in range(k):
            sel = new_assign == j
            if sel.any():
                centers[j] = pts[sel].mean(axis=0)
            else:
                # re-seed an empty cluster at the farthest point
                far = np.argmax(np.min(d2, axis=1))
                centers[j] = pts[far]
                new_assign[far] = j
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    sse = float(np.min(d2, axis=1).sum())
    return centers, sse


def kmeans_prune(points, k: int, seed: int,
                 restarts: int = 20, max_iter: int = 100):
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
            best, best_sse = centers.copy(), sse
    ordered = best[np.argsort(best[:, 0], kind="stable")]
    return _dedupe(ordered)
