"""Three-phase joint-space swing planner for the prosthesis knee.

Planning lives in the (theta_h, theta_k) plane. The capture-time obstacle
target (z_m, x_c) is fixed for the whole swing; with the current hip it sets
two moving regions:

    M_z: configurations with the toe below z_m   (forbidden once past x_c)
    M_x: configurations with the toe short of x_c

Phase one climbs out of M_z before leaving M_x (slope rule with a lower
threshold aimed at the region peak). Phase two follows the tangent of the
M_z contour to hold toe height without chasing the shrinking region; while
that slope is negative, M_z stays at the hip height it was taken at. Phase
three (heel past hip) extends the knee along the falling contour, saturates
the slope magnitude, converges the knee onto theta_k = theta_h - theta_0 and
then mirrors the hip rate so the shank keeps a constant forward lean until
contact. Commands cross-fade from the measured knee velocity at phase entry.

Both region edges are sinusoids in a single joint angle, so the boundary
and edge solvers are closed forms (asin) over the same forward kinematics,
and the M_z peak is the boundary's best value at five closed-form hip
angles; dense-grid scans in the test suite act as independent oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple, Optional

# forward_points is unused here, but perfbench/tracer.py patches this import site
from .leg_kinematics import DEG, FootPoints, HipPose, JointState, LegGeometry, forward_points
from .perception import ControlTarget

TANGENT_STEP = 0.25 * DEG  # rad, central difference half-step
# Defensive cap on the phase-two commanded slope. The contour's fold and the
# knee-limit wall make the finite-difference slope jump discontinuously; a
# tight cap lags the descending boundary (safe side) instead of diving
# through it. Kept separate from k_max, which also sets the convergence gain.
PHASE2_SLOPE_CLAMP = 3.0
PEAK_THETA_H_LO = -45.0 * DEG  # rad, hip range over which the M_z peak is taken
PEAK_THETA_H_HI = 75.0 * DEG
MX_THETA_H_CAP = 100.0 * DEG  # rad, thigh angle past which the M_x edge is unreachable
MIN_DTHETA_H = 1e-3        # rad, floor for the M_x distance in slope denominators
HIP_VEL_FLOOR = 0.1        # rad/s, floor for the phase-three running max


class Phase(Enum):
    ONE = "ONE"
    TWO = "TWO"
    THREE_TANGENT = "THREE_TANGENT"
    THREE_CONVERGE = "THREE_CONVERGE"
    THREE_MIRROR = "THREE_MIRROR"


BEFORE_THREE = frozenset((Phase.ONE, Phase.TWO))


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


@dataclass
class PhaseState:
    phase: Phase = Phase.ONE
    ticks_in_phase: int = 0                 # n in the blending law; resets on 1->2->3
    theta_k_ddot_ini: float = 0.0           # rad/s^2 at entry of the current major phase
    hip_vel_running_max: float = HIP_VEL_FLOOR
    theta_k_star: float = 0.0               # rad, knee at slope saturation
    theta_h_star: float = 0.0               # rad, hip at slope saturation
    frozen_z_h: Optional[float] = None      # m, hip height M_z is held at
    last_k2: float = 0.0                    # fallback when the boundary query fails


class PlannerCommand(NamedTuple):
    """One tick's output; a NamedTuple for the same reason as FootPoints."""

    knee_vel_cmd: float      # rad/s, after blending
    phase_after: PhaseState
    slope: float = 0.0       # active slope (k_1, k_2 or converge gain), for logging
    c_t: float = float("nan")
    gamma_1: float = 0.0


# ---------------------------------------------------------------------------
# region boundary solvers


def mz_boundary_knee(geom: LegGeometry, z_h: float, z_m: float, theta_h: float,
                     knee_limit: float) -> Optional[float]:
    """Knee angle on the upward-exit boundary of M_z at one hip angle.

    M_z is set by the hip height z_h and the target z_m; toe height does
    not depend on the hip's x.

    Returns the smallest theta_k from which the toe stays at or above z_m all
    the way up to the knee limit (0 when the whole column is already clear).
    None when even full flexion leaves the toe below z_m: the boundary is
    unreachable there and callers fall back to the peak-based slope.

    At fixed theta_h the toe height is z0 - R cos(dip - theta_k) with
    z0 = z_h - thigh cos(theta_h), R = hypot(shank, toe) and
    dip = theta_h + atan2(toe, shank): it dips until the knee reaches dip
    and rises beyond. The endpoint tests read it at dip (clamped to the
    knee range) and at the limit; past them the boundary lies on the rising
    branch, at dip + pi/2 + asin((z_m - z0)/R).
    """
    z0 = z_h - geom.thigh_m * math.cos(theta_h)
    R = math.hypot(geom.shank_m, geom.toe_m)
    dip = theta_h + math.atan2(geom.toe_m, geom.shank_m)
    if z0 - R * math.cos(dip - min(max(dip, 0.0), knee_limit)) >= z_m:
        return 0.0  # M_z empty in this column: already clear
    if z0 - R * math.cos(dip - knee_limit) < z_m:
        return None  # unreachable at this hip angle
    q = (z_m - z0) / R
    # the endpoint tests put q in [-1, 1]; the clamp absorbs rounding
    return dip + 0.5 * math.pi + math.asin(max(-1.0, min(1.0, q)))


def _peak_closed_form(geom: LegGeometry, z_h: float, z_m: float, knee_limit: float):
    """(theta_h, theta_k) maximizing the boundary over PEAK_THETA_H_LO..HI.

    Unreachable columns count as knee_limit (any climb tops out there); they
    are those where the toe at the knee limit, a sinusoid in theta_h, is
    below z_m: some are iff its trough or a range end is, all are (None) iff
    those and its crest are. Between them the boundary has one stationary
    point, with the toe straight below the hip: cos(theta*) = (R^2 - T^2 -
    c^2)/(2cT), c = z_m - z_h, T = thigh, R = hypot(shank, toe). The maximum
    is the boundary solver's best value at these five angles.
    """
    T, S, F = geom.thigh_m, geom.shank_m, geom.toe_m
    # toe height at the knee limit: z_h + A cos(theta_h) + B sin(theta_h)
    cl, sl = math.cos(knee_limit), math.sin(knee_limit)
    crest = math.atan2(F * cl - S * sl, -T - S * cl - F * sl)
    angles = [PEAK_THETA_H_LO, PEAK_THETA_H_HI, math.remainder(crest, 2.0 * math.pi),
              math.remainder(crest + math.pi, 2.0 * math.pi)]
    c = z_m - z_h
    if c != 0.0:
        cos_star = (S * S + F * F - T * T - c * c) / (2.0 * c * T)
        if abs(cos_star) <= 1.0:
            angles.append(math.acos(cos_star))
    bounds = [(t, mz_boundary_knee(geom, z_h, z_m, t, knee_limit))
              for t in angles if PEAK_THETA_H_LO <= t <= PEAK_THETA_H_HI]
    if all(bd is None for _, bd in bounds):
        return None
    t, v = max(((t, knee_limit if bd is None else bd) for t, bd in bounds),
               key=lambda tv: tv[1])
    return t, v if v < knee_limit - 1e-9 else knee_limit


# keyed on the frozen LegGeometry itself; perfbench/tracer.py reads its cache_info
_peak_cached = lru_cache(maxsize=8192)(_peak_closed_form)


def mz_peak(geom: LegGeometry, z_h: float, z_m: float, knee_limit: float) -> float:
    """Knee angle at the peak of the M_z contour.

    Closed form (_peak_closed_form), saturated at knee_limit; knee_limit
    when the boundary is absent everywhere. Hip height is quantized to 1 mm
    and z_m to 1e-5 m for caching (a hit is ~6x cheaper than the closed
    form); the peak moves far less than the phase-one slope tolerance over
    that step. knee_limit, fixed per trial, is not rounded: the saturated
    peak is the hardware limit itself.
    """
    out = _peak_cached(geom, round(z_h, 3), round(z_m, 5), knee_limit)
    return knee_limit if out is None else out[1]


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
    crossing where that sine equals q = (x_c - x_h) / hypot(A, B). The
    same sine at the current hip angle says whether the toe is already past.
    """
    T, S, F = geom.thigh_m, geom.shank_m, geom.toe_m
    ck, sk = math.cos(theta_k), math.sin(theta_k)
    A, B = T + S * ck + F * sk, F * ck - S * sk
    R = math.hypot(A, B)
    phase = math.remainder(hip.theta_h + math.atan2(B, A), 2.0 * math.pi)
    if hip.x_h + R * math.sin(phase) >= x_c:
        return 0.0
    q = (x_c - hip.x_h) / R
    if q > 1.0:
        return None  # x_c lies beyond the toe's reach
    if phase > 0.5 * math.pi:
        phase -= 2.0 * math.pi  # past the crest: the next rise follows the trough
    # a toe short of x_c sits before the crossing; the floor absorbs rounding
    d = max(math.asin(max(q, -1.0)) - phase, 0.0)
    return d if hip.theta_h + d <= MX_THETA_H_CAP else None


# ---------------------------------------------------------------------------
# phase velocity laws


def phase1_velocity(geom: LegGeometry, hip: HipPose, joint: JointState,
                    target: ControlTarget, params: PlannerParams) -> tuple:
    """Slope rule: climb out of M_z before leaving M_x.

    slope = max(dk/dh, k_min) with k_min aimed at the region peak; when the
    upward boundary is unreachable the peak-based slope governs alone. An
    unreachable M_x edge is stood in for by the distance to swing the thigh
    to vertical (conservative), floored to keep the slope finite.
    """
    bound = mz_boundary_knee(geom, hip.z_h, target.z_m, hip.theta_h, params.knee_limit)
    dh = mx_exit_distance(geom, hip, joint.theta_k, target.x_c)
    dh = max(-hip.theta_h if dh is None else dh, MIN_DTHETA_H)

    peak_k = mz_peak(geom, hip.z_h, target.z_m, params.knee_limit)
    k_min = (peak_k - joint.theta_k) / dh
    if bound is None:
        slope = k_min
    else:
        slope = max((bound - joint.theta_k) / dh, k_min)
    return slope * hip.theta_h_dot, slope


def _tangent_with_freeze(geom: LegGeometry, hip: HipPose, z_m: float,
                         state: PhaseState, params: PlannerParams) -> tuple:
    """Phase-two/three tangent evaluation with the freeze rule.

    A negative slope holds M_z at the hip height it was taken at (the region
    must not inflate once the hip starts lowering); a non-negative slope
    clears the freeze so the next tick sees the current hip height. An
    absent boundary holds the last valid slope.

    Also reports whether the region has vanished around the query angle
    (boundary identically zero on both sides): past the fold of the contour
    the tangent has already swung through vertical, which phase three treats
    as slope saturation.
    """
    z_h = hip.z_h if state.frozen_z_h is None else state.frozen_z_h
    b_plus = mz_boundary_knee(geom, z_h, z_m, hip.theta_h + TANGENT_STEP, params.knee_limit)
    b_minus = mz_boundary_knee(geom, z_h, z_m, hip.theta_h - TANGENT_STEP, params.knee_limit)
    if b_plus is None or b_minus is None:
        k2 = state.last_k2
    else:
        k2 = (b_plus - b_minus) / (2.0 * TANGENT_STEP)
    vanished = b_plus == 0.0 and b_minus == 0.0
    state.frozen_z_h = z_h if k2 < 0.0 else None
    state.last_k2 = k2
    return k2, vanished


def phase2_velocity(geom: LegGeometry, hip: HipPose, target: ControlTarget,
                    state: PhaseState, params: PlannerParams) -> tuple:
    """Tangent following to hold toe height above z_m.

    The commanded slope is clamped: the contour folds vertical where the
    region collapses, and an unclamped finite difference across the fold
    would command an unbounded extension spike.
    """
    k2, _ = _tangent_with_freeze(geom, hip, target.z_m, state, params)
    slope = max(-PHASE2_SLOPE_CLAMP, min(PHASE2_SLOPE_CLAMP, k2))
    return slope * hip.theta_h_dot, slope


def phase3_velocity(geom: LegGeometry, hip: HipPose, joint: JointState,
                    target: ControlTarget, state: PhaseState,
                    params: PlannerParams) -> tuple:
    """Landing preparation: saturated tangent, convergence gain, mirror.

    Returns (raw velocity, slope-for-log, C_t).
    """
    v_max = state.hip_vel_running_max

    if state.phase is Phase.THREE_TANGENT:
        k2, vanished = _tangent_with_freeze(geom, hip, target.z_m, state, params)
        if abs(k2) < params.k_max and not vanished:
            # hip velocity replaced by its running max to keep the knee moving
            return k2 * v_max, k2, float("nan")
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
            return -c_t * params.k_max * v_max, -c_t * params.k_max, c_t

    # THREE_MIRROR: knee mirrors the instantaneous hip rate (not the running
    # max); the shank holds its forward lean until contact
    return hip.theta_h_dot, 1.0, 0.0


def blend_command(raw_vel: float, measured_vel: float, state: PhaseState,
                  params: PlannerParams) -> tuple:
    """Exponential cross-fade from the measured velocity at phase entry.

    gamma_i = exp(-alpha_i * n); at n = 0 the command is the measured
    velocity carried forward by the entry acceleration. Returns (command,
    gamma_1).
    """
    n = state.ticks_in_phase
    g1 = math.exp(-params.alpha_1 * n)
    g2 = math.exp(-params.alpha_2 * n)
    return (1.0 - g1) * raw_vel + g1 * (measured_vel
                                        + g2 * state.theta_k_ddot_ini * params.dt), g1


def _enter_major_phase(state: PhaseState, phase: Phase, joint: JointState,
                       hip: HipPose) -> None:
    state.phase = phase
    state.ticks_in_phase = 0
    state.theta_k_ddot_ini = joint.theta_k_ddot
    if phase is Phase.THREE_TANGENT:
        state.hip_vel_running_max = max(hip.theta_h_dot, HIP_VEL_FLOOR)


def planner_step(geom: LegGeometry, hip: HipPose, joint: JointState, pts: FootPoints,
                 target: ControlTarget, state: PhaseState,
                 params: PlannerParams) -> PlannerCommand:
    """One 1 kHz planner tick.

    pts must be forward_points(geom, hip, joint.theta_k), which the caller
    computes once per tick and shares. target.x_c must already be absolute
    world x; joint.theta_k_dot is the measured knee velocity the command
    blends from. Between ticks the planner keeps only `state`. Transition
    predicates run on ground-truth state
    first: the toe reaching z_m advances one->two; the heel passing the hip
    advances any phase to three (possibly skipping two). The blending counter
    resets only on these major transitions; the sub-mode handovers inside
    phase three are continuous by construction, and re-blending them would
    unlock the shank lean the mirror mode exists to hold.
    """
    if state.phase in BEFORE_THREE and pts.heel[0] > hip.x_h:
        _enter_major_phase(state, Phase.THREE_TANGENT, joint, hip)
    elif state.phase is Phase.ONE and pts.toe[1] >= target.z_m:
        _enter_major_phase(state, Phase.TWO, joint, hip)

    c_t = float("nan")
    if state.phase is Phase.ONE:
        raw, slope = phase1_velocity(geom, hip, joint, target, params)
    elif state.phase is Phase.TWO:
        raw, slope = phase2_velocity(geom, hip, target, state, params)
    else:
        state.hip_vel_running_max = max(state.hip_vel_running_max, hip.theta_h_dot)
        raw, slope, c_t = phase3_velocity(geom, hip, joint, target, state, params)

    cmd, g1 = blend_command(raw, joint.theta_k_dot, state, params)
    state.ticks_in_phase += 1
    return PlannerCommand(cmd, state, slope, c_t, g1)

