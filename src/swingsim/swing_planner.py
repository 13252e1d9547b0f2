"""Three-phase joint-space swing planner for the prosthesis knee.

Planning lives in the (theta_h, theta_k) plane. The capture-time obstacle
target (z_m, x_c) induces two moving regions:

    M_z: configurations with the toe below z_m   (forbidden once past x_c)
    M_x: configurations with the toe short of x_c

Phase one climbs out of M_z before leaving M_x (slope rule with a lower
threshold aimed at the region peak). Phase two follows the tangent of the
M_z contour to hold toe height without chasing the shrinking region. Phase
three (heel past hip) extends the knee along the falling contour, saturates
the slope magnitude, converges the knee onto theta_k = theta_h - theta_0 and
then mirrors the hip rate so the shank keeps a constant forward lean until
contact. Commands cross-fade from the measured knee velocity at phase entry.

Both region edges are sinusoids in a single joint angle, so the boundary
and edge solvers are closed forms (asin) over the same forward kinematics;
dense-grid scans in the test suite act as independent oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

import numpy as np

# forward_points is unused here, but perfbench/tracer.py patches this import site
from .leg_kinematics import (DEG, FootPoints, HipPose, JointState, LegGeometry, forward_points,
                             toe_point)
from .perception import ControlTarget

TANGENT_STEP = 0.25 * DEG  # rad, central difference half-step
# Defensive cap on the phase-two commanded slope. The contour's fold and the
# knee-limit wall make the finite-difference slope jump discontinuously; a
# tight cap lags the descending boundary (safe side) instead of diving
# through it. Kept separate from k_max, which also sets the convergence gain.
PHASE2_SLOPE_CLAMP = 3.0
PEAK_GRID_STEP = 0.5 * DEG
PEAK_GRID_LO = -45.0 * DEG
PEAK_GRID_HI = 75.0 * DEG
MX_THETA_H_CAP = 100.0 * DEG  # rad, thigh angle past which the M_x edge is unreachable
MIN_DTHETA_H = 1e-3        # rad, floor for the M_x distance in slope denominators
HIP_VEL_FLOOR = 0.1        # rad/s, floor for the phase-three running max


class Phase(Enum):
    ONE = "ONE"
    TWO = "TWO"
    THREE_TANGENT = "THREE_TANGENT"
    THREE_CONVERGE = "THREE_CONVERGE"
    THREE_MIRROR = "THREE_MIRROR"


MAJOR = {Phase.ONE: 1, Phase.TWO: 2, Phase.THREE_TANGENT: 3,
         Phase.THREE_CONVERGE: 3, Phase.THREE_MIRROR: 3}


@dataclass(frozen=True)
class PlannerParams:
    delta: float = 0.01                 # m, safety margin (kept with the target)
    theta_0: float = 5.0 * DEG          # rad, landing shank lean
    k_max: float = 8.0                  # slope magnitude saturation, hand-tuned
    alpha_1: float = 0.05               # per-tick blend decay
    alpha_2: float = 0.05
    dt: float = 0.001                   # s, must match the harness tick
    conv_tol: float = 0.5 * DEG         # rad, knee-converged tolerance
    knee_limit: float = 85.0 * DEG      # rad, hardware flexion limit

    def __post_init__(self):
        for name in ("delta", "theta_0", "k_max", "alpha_1", "alpha_2",
                     "dt", "conv_tol", "knee_limit"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"PlannerParams.{name} must be positive")


@dataclass(frozen=True)
class RegionSnapshot:
    """Hip pose plus (z_m, x_c) fixing M_x/M_z at one instant.

    x_c is absolute world x here; the harness rebases the capture-time
    distance once at swing start.
    """

    hip: HipPose
    z_m: float
    x_c: float


@dataclass
class PhaseState:
    phase: Phase = Phase.ONE
    ticks_in_phase: int = 0                 # n in the blending law; resets on 1->2->3
    theta_k_ddot_ini: float = 0.0           # rad/s^2 at entry of the current major phase
    hip_vel_running_max: float = HIP_VEL_FLOOR
    theta_k_star: float = 0.0               # rad, knee at slope saturation
    theta_h_star: float = 0.0               # rad, hip at slope saturation
    frozen_region: Optional[RegionSnapshot] = None
    last_k2: float = 0.0                    # fallback when the boundary query fails


@dataclass(frozen=True)
class PlannerCommand:
    knee_vel_cmd: float      # rad/s, after blending
    phase_after: PhaseState
    slope: float = 0.0       # active slope (k_1, k_2 or converge gain), for logging
    c_t: float = float("nan")
    gamma_1: float = 0.0


# ---------------------------------------------------------------------------
# region boundary solvers


def mz_boundary_knee(geom: LegGeometry, region: RegionSnapshot, theta_h_query: float,
                     knee_limit: float = 85.0 * DEG) -> Optional[float]:
    """Knee angle on the upward-exit boundary of M_z at one hip angle.

    Returns the smallest theta_k from which the toe stays at or above z_m all
    the way up to the knee limit (0 when the whole column is already clear).
    None when even full flexion leaves the toe below z_m: the boundary is
    unreachable there and callers fall back to the peak-based slope.

    At fixed theta_h the toe height is z0 + R sin(theta_h - theta_k - psi)
    with z0 = z_h - thigh cos(theta_h), R = hypot(shank, toe) and
    psi = atan2(shank, toe): it dips until the shank trails by
    atan(toe/shank) and rises beyond. Past the two endpoint tests the
    boundary lies on that rising branch, at dip + pi/2 + asin((z_m - z0)/R).
    """
    hip, z_m = region.hip, region.z_m
    dip = theta_h_query + math.atan2(geom.toe_m, geom.shank_m)
    lo = min(max(dip, 0.0), knee_limit)
    if toe_point(geom, hip.x_h, hip.z_h, theta_h_query, lo)[1] >= z_m:
        return 0.0  # M_z empty in this column: already clear
    if toe_point(geom, hip.x_h, hip.z_h, theta_h_query, knee_limit)[1] < z_m:
        return None  # unreachable at this hip angle
    z0 = hip.z_h - geom.thigh_m * math.cos(theta_h_query)
    q = (z_m - z0) / math.hypot(geom.shank_m, geom.toe_m)
    # the endpoint tests put q in [-1, 1]; the clamp absorbs rounding
    return dip + 0.5 * math.pi + math.asin(max(-1.0, min(1.0, q)))


def _peak_scan(geom: LegGeometry, z_h: float, z_m: float, knee_limit: float):
    """Grid + golden-section maximization of the boundary over theta_h.

    Columns with an unreachable boundary count as knee_limit: the region
    spans the whole column there, so any climb tops out at the limit. The
    planner calls this every phase-one tick through a cache.
    """
    region = RegionSnapshot(hip=HipPose(x_h=0.0, z_h=z_h, theta_h=0.0), z_m=z_m, x_c=0.0)

    def value_at(t):
        b = mz_boundary_knee(geom, region, t, knee_limit)
        return knee_limit if b is None else b

    th = np.arange(PEAK_GRID_LO, PEAK_GRID_HI + PEAK_GRID_STEP / 2, PEAK_GRID_STEP)
    bounds = [mz_boundary_knee(geom, region, float(t), knee_limit) for t in th]
    if all(b is None for b in bounds):
        return None
    value = [knee_limit if b is None else b for b in bounds]
    best = int(np.argmax(value))
    best_th, best_v = float(th[best]), value[best]
    if best_v >= knee_limit - 1e-9:
        return best_th, knee_limit

    # golden-section refinement around the coarse maximum
    a, b = best_th - PEAK_GRID_STEP, best_th + PEAK_GRID_STEP
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = value_at(c), value_at(d)
    while b - a > 1e-5:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = value_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = value_at(d)
    t_best = 0.5 * (a + b)
    return t_best, value_at(t_best)


@lru_cache(maxsize=8192)
def _peak_cached(geom_key, z_h_key, z_m_key, limit_key):
    geom = LegGeometry(*geom_key)
    return _peak_scan(geom, z_h_key, z_m_key, limit_key)


def mz_peak(geom: LegGeometry, region: RegionSnapshot,
            knee_limit: float = 85.0 * DEG) -> tuple:
    """(theta_h, theta_k) at the peak of the M_z contour.

    Falls back to (current theta_h, knee_limit) when the boundary is absent
    everywhere. Hip height is quantized to 1 mm for caching; the peak moves
    far less than the phase-one slope tolerance over that step.
    """
    key = (geom.thigh_m, geom.shank_m, geom.toe_m, geom.heel_m)
    out = _peak_cached(key, round(region.hip.z_h, 3), round(region.z_m, 5),
                       round(knee_limit, 6))
    if out is None:
        return region.hip.theta_h, knee_limit
    return out


def mx_exit_distance(geom: LegGeometry, hip: HipPose, theta_k: float,
                     x_c: float) -> Optional[float]:
    """Smallest positive hip-angle advance putting the toe at x_c.

    The hip position is held at its current value: this is the horizontal
    distance to the edge of the current M_x in joint space. None when the
    toe cannot reach x_c at this knee angle before the thigh passes
    MX_THETA_H_CAP (region past the workspace).

    At fixed theta_k the toe x is x_h + hypot(A, B) sin(theta_h + atan2(B, A))
    with A = thigh + shank cos(theta_k) + toe sin(theta_k) and
    B = toe cos(theta_k) - shank sin(theta_k); the edge is the upward
    crossing where that sine equals q = (x_c - x_h) / hypot(A, B).
    """
    if toe_point(geom, hip.x_h, hip.z_h, hip.theta_h, theta_k)[0] >= x_c:
        return 0.0
    T, S, F = geom.thigh_m, geom.shank_m, geom.toe_m
    ck, sk = math.cos(theta_k), math.sin(theta_k)
    A, B = T + S * ck + F * sk, F * ck - S * sk
    q = (x_c - hip.x_h) / math.hypot(A, B)
    if q > 1.0:
        return None  # x_c lies beyond the toe's reach
    phase = math.remainder(hip.theta_h + math.atan2(B, A), 2.0 * math.pi)
    if phase > 0.5 * math.pi:
        phase -= 2.0 * math.pi  # past the crest: the next rise follows the trough
    # a toe short of x_c sits before the crossing; the floor absorbs rounding
    d = max(math.asin(max(q, -1.0)) - phase, 0.0)
    return d if hip.theta_h + d <= MX_THETA_H_CAP else None


# ---------------------------------------------------------------------------
# phase velocity laws


def phase1_velocity(geom: LegGeometry, hip: HipPose, joint: JointState,
                    region: RegionSnapshot, params: PlannerParams) -> tuple:
    """Slope rule: climb out of M_z before leaving M_x.

    slope = max(dk/dh, k_min) with k_min aimed at the region peak; when the
    upward boundary is unreachable the peak-based slope governs alone. An
    unreachable M_x edge is stood in for by the distance to swing the thigh
    to vertical (conservative), floored to keep the slope finite.
    """
    bound = mz_boundary_knee(geom, region, hip.theta_h, params.knee_limit)
    dh = mx_exit_distance(geom, hip, joint.theta_k, region.x_c)
    if dh is None:
        dh = max(-hip.theta_h, MIN_DTHETA_H)
    dh = max(dh, MIN_DTHETA_H)

    _, peak_k = mz_peak(geom, region, params.knee_limit)
    k_min = (peak_k - joint.theta_k) / dh
    if bound is None:
        slope = k_min
    else:
        slope = max((bound - joint.theta_k) / dh, k_min)
    return slope * hip.theta_h_dot, slope


def _tangent_with_freeze(geom: LegGeometry, fresh: RegionSnapshot,
                         state: PhaseState, params: PlannerParams) -> tuple:
    """Phase-two/three tangent evaluation with the freeze rule.

    A negative slope retains the previously active snapshot (the region must
    not inflate once the hip starts lowering); a non-negative slope clears
    the freeze so the next tick sees a fresh snapshot. An absent boundary
    holds the last valid slope.

    Also reports whether the region has vanished around the query angle
    (boundary identically zero on both sides): past the fold of the contour
    the tangent has already swung through vertical, which phase three treats
    as slope saturation.
    """
    active = state.frozen_region if state.frozen_region is not None else fresh
    b_plus = mz_boundary_knee(geom, active, fresh.hip.theta_h + TANGENT_STEP,
                              params.knee_limit)
    b_minus = mz_boundary_knee(geom, active, fresh.hip.theta_h - TANGENT_STEP,
                               params.knee_limit)
    if b_plus is None or b_minus is None:
        k2 = state.last_k2
    else:
        k2 = (b_plus - b_minus) / (2.0 * TANGENT_STEP)
    vanished = b_plus == 0.0 and b_minus == 0.0
    if k2 < 0.0:
        state.frozen_region = active
    else:
        state.frozen_region = None
    state.last_k2 = k2
    return k2, vanished


def phase2_velocity(geom: LegGeometry, hip: HipPose, joint: JointState,
                    region: RegionSnapshot, state: PhaseState,
                    params: PlannerParams) -> tuple:
    """Tangent following to hold toe height above z_m.

    The commanded slope is clamped: the contour folds vertical where the
    region collapses, and an unclamped finite difference across the fold
    would command an unbounded extension spike.
    """
    k2, _ = _tangent_with_freeze(geom, region, state, params)
    slope = max(-PHASE2_SLOPE_CLAMP, min(PHASE2_SLOPE_CLAMP, k2))
    return slope * hip.theta_h_dot, state, slope


def phase3_velocity(geom: LegGeometry, hip: HipPose, joint: JointState,
                    region: RegionSnapshot, state: PhaseState,
                    params: PlannerParams) -> tuple:
    """Landing preparation: saturated tangent, convergence gain, mirror.

    Returns (raw velocity, state, slope-for-log, C_t).
    """
    v_max = state.hip_vel_running_max

    if state.phase is Phase.THREE_TANGENT:
        k2, vanished = _tangent_with_freeze(geom, region, state, params)
        if abs(k2) < params.k_max and not vanished:
            # hip velocity replaced by its running max to keep the knee moving
            return k2 * v_max, state, k2, float("nan")
        # slope saturated (or the region collapsed, i.e. the tangent already
        # passed vertical): memorize the configuration and convert
        state.theta_k_star = joint.theta_k
        state.theta_h_star = hip.theta_h
        denom = state.theta_k_star - state.theta_h_star + params.theta_0
        state.phase = Phase.THREE_CONVERGE if denom > 0.0 else Phase.THREE_MIRROR

    if state.phase is Phase.THREE_CONVERGE:
        err = joint.theta_k - hip.theta_h + params.theta_0
        if err <= params.conv_tol:
            state.phase = Phase.THREE_MIRROR
        else:
            denom = state.theta_k_star - state.theta_h_star + params.theta_0
            # the entry blend can briefly carry the knee past the memorized
            # configuration; the slope magnitude stays saturated at k_max
            c_t = min(err / denom, 1.0)
            # knee extension is negative knee velocity under our sign
            # convention; k_max acts as a magnitude
            return -c_t * params.k_max * v_max, state, -c_t * params.k_max, c_t

    # THREE_MIRROR: knee mirrors the instantaneous hip rate (not the running
    # max); the shank holds its forward lean until contact
    return hip.theta_h_dot, state, 1.0, 0.0


def blend_command(raw_vel: float, measured_knee_vel: float, state: PhaseState,
                  params: PlannerParams) -> float:
    """Exponential cross-fade from the measured velocity at phase entry.

    gamma_i = exp(-alpha_i * n); at n = 0 the command is the measured
    velocity carried forward by the entry acceleration.
    """
    n = state.ticks_in_phase
    g1 = math.exp(-params.alpha_1 * n)
    g2 = math.exp(-params.alpha_2 * n)
    return (1.0 - g1) * raw_vel + g1 * (measured_knee_vel
                                        + g2 * state.theta_k_ddot_ini * params.dt)


def _enter_major_phase(state: PhaseState, phase: Phase, joint: JointState,
                       hip: HipPose) -> None:
    state.phase = phase
    state.ticks_in_phase = 0
    state.theta_k_ddot_ini = joint.theta_k_ddot
    if phase is Phase.THREE_TANGENT:
        state.hip_vel_running_max = max(hip.theta_h_dot, HIP_VEL_FLOOR)


def planner_step(geom: LegGeometry, hip: HipPose, joint: JointState, pts: FootPoints,
                 measured_knee_vel: float, region_target: ControlTarget,
                 state: PhaseState, params: PlannerParams) -> PlannerCommand:
    """One 1 kHz planner tick.

    pts must be forward_points(geom, hip, joint.theta_k), which the caller
    computes once per tick and shares. region_target.x_c must already
    be absolute world x. Transition predicates run on ground-truth state
    first: the toe reaching z_m advances one->two; the heel passing the hip
    advances any phase to three (possibly skipping two). The blending counter
    resets only on these major transitions; the sub-mode handovers inside
    phase three are continuous by construction, and re-blending them would
    unlock the shank lean the mirror mode exists to hold.
    """
    z_m, x_c = region_target.z_m, region_target.x_c

    if MAJOR[state.phase] < 3 and pts.heel[0] > hip.x_h:
        _enter_major_phase(state, Phase.THREE_TANGENT, joint, hip)
    elif state.phase is Phase.ONE and pts.toe[1] >= z_m:
        _enter_major_phase(state, Phase.TWO, joint, hip)

    fresh = RegionSnapshot(hip=hip, z_m=z_m, x_c=x_c)
    c_t = float("nan")
    if MAJOR[state.phase] == 3:
        state.hip_vel_running_max = max(state.hip_vel_running_max, hip.theta_h_dot)
        raw, state, slope, c_t = phase3_velocity(geom, hip, joint, fresh, state, params)
    elif state.phase is Phase.TWO:
        raw, state, slope = phase2_velocity(geom, hip, joint, fresh, state, params)
    else:
        raw, slope = phase1_velocity(geom, hip, joint, fresh, params)

    g1 = math.exp(-params.alpha_1 * state.ticks_in_phase)
    cmd = blend_command(raw, measured_knee_vel, state, params)
    state.ticks_in_phase += 1
    return PlannerCommand(knee_vel_cmd=cmd, phase_after=state, slope=slope, c_t=c_t,
                          gamma_1=g1)

