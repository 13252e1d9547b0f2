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
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from math import asin, atan2, cos, exp, hypot, remainder, sin
from typing import NamedTuple, Optional

# forward_points is unused here, but perfbench/tracer.py patches this import site
from .leg_kinematics import (DEG, POSITIVE, FootPoints, HipPose, JointState, LegGeometry,
                             _new_tuple, check_rules, declare, forward_points)
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
HALF_PI = 0.5 * math.pi
TWO_PI = 2.0 * math.pi


class Phase(Enum):
    ONE = "ONE"
    TWO = "TWO"
    THREE_TANGENT = "THREE_TANGENT"
    THREE_CONVERGE = "THREE_CONVERGE"
    THREE_MIRROR = "THREE_MIRROR"


# The per-tick code below is written for CPython's fast paths, with outputs
# equal to the plain spelling float for float: phases are tested by identity
# against these names (a Phase.X lookup or an Enum hash costs ~10x a global
# read on 3.11), and two-operand min/max are spelled as the conditional that
# returns the same operand as the builtin, ties, NaN and -0.0 included:
# max(a, b) is `b if b > a else a`, min(a, b) is `b if b < a else a`.
# Spelled plainly, the Phase.X lookups took a campaign 1.052x at seed 2024
# and 1.057x at seed 7, the builtins 1.102x and 1.099x.
ONE, TWO, THREE_TANGENT = Phase.ONE, Phase.TWO, Phase.THREE_TANGENT
THREE_CONVERGE, THREE_MIRROR = Phase.THREE_CONVERGE, Phase.THREE_MIRROR
NAN = math.nan


@dataclass(frozen=True)
class PlannerParams:
    delta: float = declare(POSITIVE, "delta_m", 0.001, 0.1, default=0.01)  # m, safety margin
    # rad, landing shank lean
    theta_0: float = declare(POSITIVE, "theta0_deg", 0.5, 30.0, default=5.0 * DEG)
    # slope magnitude saturation, hand-tuned
    k_max: float = declare(POSITIVE, "kmax", 0.5, 50.0, default=8.0)
    # per-tick blend decays
    alpha_1: float = declare(POSITIVE, "alpha1", 0.001, 1.0, default=0.05)
    alpha_2: float = declare(POSITIVE, "alpha2", 0.001, 1.0, default=0.05)
    # s, must match the harness tick. Outcomes are not monotone in the tick:
    # over the 0.25 ms grid from 0.5 to 5 ms, seed-2024 step-overs first turn
    # into trips at 1.75 ms, so 1.5 ms is the last tick at and below which
    # every campaign outcome holds, and the most a file may set
    dt: float = declare(POSITIVE, "dt_s", 0.0005, 0.0015, default=0.001)
    # rad, knee-converged tolerance
    conv_tol: float = declare(POSITIVE, "conv_tol_deg", 0.05, 10.0, default=0.5 * DEG)
    # rad, hardware flexion limit
    knee_limit: float = declare(POSITIVE, "knee_limit_deg", 30.0, 150.0, default=85.0 * DEG)

    def __post_init__(self):
        check_rules(self)


@dataclass
class PhaseState:
    """The planner's memory between ticks. conv_span's sign picks CONVERGE or
    MIRROR, and CONVERGE's gain c_t is the same span now over it. peak_k, out
    of == and repr with peak_key, is mz_peak at peak_key = (geometry, z_m,
    knee_limit, round(z_h, 3)).

    The bucket rule: phase one reuses peak_k without rounding z_h while
    peak_key holds this geometry (by identity), z_m and knee_limit and
    |z_h - peak_key[3]| < 0.0005 - 1e-12. That implies round(z_h, 3) ==
    peak_key[3]: the subtraction is exact (Sterbenz), round is correctly
    rounded, and the margin keeps out the midpoints that round half to even
    into the next bucket (0.8125 lies 0.0005 - 5.5e-17 from the double 0.813
    and rounds to 0.812). Any other hip height takes the rounded key, as a
    fresh state does. Rounding on every phase-one tick instead took a
    campaign's trials 1.016x at seed 2024 and 1.007-1.012x at seed 7."""
    phase: Phase = Phase.ONE
    ticks_in_phase: int = 0                 # n in the blending law; resets on 1->2->3
    theta_k_ddot_ini: float = 0.0           # rad/s^2 at entry of the current major phase
    hip_vel_running_max: float = HIP_VEL_FLOOR
    conv_span: float = 0.0                  # rad, theta_k - theta_h + theta_0 at slope saturation
    frozen_z_h: Optional[float] = None      # m, hip height M_z is held at
    last_k2: float = 0.0                    # fallback when the boundary query fails
    peak_key: Optional[tuple] = field(default=None, compare=False, repr=False)
    peak_k: float = field(default=0.0, compare=False, repr=False)


class PlannerCommand(NamedTuple):
    """One tick's output; a NamedTuple for the same reason as FootPoints."""

    knee_vel_cmd: float      # rad/s, after blending
    phase_after: PhaseState
    slope: float = 0.0       # active slope (k_1, k_2 or converge gain), for logging
    c_t: float = NAN
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
    z0 = z_h - geom.thigh_m * cos(theta_h)
    R = geom.knee_toe_m
    dip = theta_h + geom.knee_toe_angle
    lowest = 0.0 if 0.0 > dip else dip  # the dip clamped to [0, knee_limit]
    lowest = knee_limit if knee_limit < lowest else lowest
    if z0 - R * cos(dip - lowest) >= z_m:
        return 0.0  # M_z empty in this column: already clear
    if z0 - R * cos(dip - knee_limit) < z_m:
        return None  # unreachable at this hip angle
    q = (z_m - z0) / R
    # the endpoint tests put q in [-1, 1]; the clamp absorbs rounding
    q = q if q < 1.0 else 1.0
    return dip + HALF_PI + asin(q if q > -1.0 else -1.0)


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
    angles = [PEAK_THETA_H_LO, PEAK_THETA_H_HI, math.remainder(crest, TWO_PI),
              math.remainder(crest + math.pi, TWO_PI)]
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


# keyed on the frozen LegGeometry itself; perfbench/tracer.py reads its cache_info. A campaign
# ends holding 113 peaks (5,256/113 hits/misses at seed 2024, 5,381/113 at 7), 120 runs 112-113.
_peak_cached = lru_cache(maxsize=8192)(_peak_closed_form)


def mz_peak(geom: LegGeometry, z_h: float, z_m: float, knee_limit: float) -> float:
    """Knee angle at the peak of the M_z contour.

    Closed form (_peak_closed_form), saturated at knee_limit; knee_limit
    when the boundary is absent everywhere. Hip height is quantized to 1 mm
    and z_m to 1e-5 m for caching (a hit, ~0.3 us on CPython 3.11, is ~20x
    cheaper than the closed form); the peak moves far less than the
    phase-one slope tolerance over that step. knee_limit, fixed per trial,
    is not rounded: the saturated peak is the hardware limit itself. The
    cache serves every swing of a process; within a swing PhaseState keeps
    the last answer, which leaves 5,369 of the seed-2024 campaign's 62,230
    phase-one lookups (a per-swing dict of buckets would leave as many).
    Phase one calls round only when the hip height leaves PhaseState's
    bucket (its bucket rule), on 5,424 of those 62,230 ticks; a round costs
    ~0.6 us of a ~3 us phase-one tick.
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
    S, F = geom.shank_m, geom.toe_m
    ck, sk = cos(theta_k), sin(theta_k)
    A, B = geom.thigh_m + S * ck + F * sk, F * ck - S * sk
    R = hypot(A, B)
    theta_h, x_h = hip.theta_h, hip.x_h
    phase = remainder(theta_h + atan2(B, A), TWO_PI)
    if x_h + R * sin(phase) >= x_c:
        return 0.0
    q = (x_c - x_h) / R
    if q > 1.0:
        return None  # x_c lies beyond the toe's reach
    if phase > HALF_PI:
        phase -= TWO_PI  # past the crest: the next rise follows the trough
    # a toe short of x_c sits before the crossing; the floor absorbs rounding
    d = asin(-1.0 if -1.0 > q else q) - phase
    d = 0.0 if 0.0 > d else d
    return d if theta_h + d <= MX_THETA_H_CAP else None


# ---------------------------------------------------------------------------
# phase velocity laws


def phase1_velocity(geom: LegGeometry, hip: HipPose, joint: JointState,
                    target: ControlTarget, state: PhaseState, params: PlannerParams) -> tuple:
    """Slope rule: climb out of M_z before leaving M_x.

    slope = max(dk/dh, k_min) with k_min aimed at the region peak; when the
    upward boundary is unreachable the peak-based slope governs alone. An
    unreachable M_x edge is stood in for by the distance to swing the thigh
    to vertical (conservative), floored to keep the slope finite.
    """
    theta_k, z_m, knee_limit = joint.theta_k, target.z_m, params.knee_limit
    bound = mz_boundary_knee(geom, hip.z_h, z_m, hip.theta_h, knee_limit)
    dh = mx_exit_distance(geom, hip, theta_k, target.x_c)
    dh = -hip.theta_h if dh is None else dh
    dh = MIN_DTHETA_H if MIN_DTHETA_H > dh else dh

    z_h, key = hip.z_h, state.peak_key
    # inside the stored 1 mm bucket by more than the margin, round(z_h, 3) is
    # key[3] (see PhaseState), so round runs only near or past its edge
    if not (key is not None and key[0] is geom and key[1] == z_m and key[2] == knee_limit
            and abs(z_h - key[3]) < 0.0005 - 1e-12):
        key = (geom, z_m, knee_limit, round(z_h, 3))
        if state.peak_key != key:
            state.peak_key, state.peak_k = key, mz_peak(geom, z_h, z_m, knee_limit)
    # max(k_min, k1) as one division: (x - theta_k) / dh, dh > 0, is monotone in x
    top = state.peak_k
    top = bound if bound is not None and bound > top else top
    slope = (top - theta_k) / dh
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
    slope = k2 if k2 < PHASE2_SLOPE_CLAMP else PHASE2_SLOPE_CLAMP
    slope = slope if slope > -PHASE2_SLOPE_CLAMP else -PHASE2_SLOPE_CLAMP
    return slope * hip.theta_h_dot, slope


def phase3_velocity(geom: LegGeometry, hip: HipPose, joint: JointState,
                    target: ControlTarget, state: PhaseState,
                    params: PlannerParams) -> tuple:
    """Landing preparation: saturated tangent, convergence gain, mirror.

    Returns (raw velocity, slope-for-log, C_t).
    """
    v_max = state.hip_vel_running_max
    phase = state.phase

    if phase is THREE_TANGENT:
        k2, vanished = _tangent_with_freeze(geom, hip, target.z_m, state, params)
        if abs(k2) < params.k_max and not vanished:
            # hip velocity replaced by its running max to keep the knee moving
            return k2 * v_max, k2, NAN
        # slope saturated (or the region collapsed, i.e. the tangent already
        # passed vertical): memorize how far the knee is from theta_h - theta_0
        span = state.conv_span = joint.theta_k - hip.theta_h + params.theta_0
        phase = state.phase = THREE_CONVERGE if span > 0.0 else THREE_MIRROR

    if phase is THREE_CONVERGE:
        err = joint.theta_k - hip.theta_h + params.theta_0
        if err <= params.conv_tol:
            state.phase = THREE_MIRROR
        else:
            # the entry blend can briefly carry the knee past the memorized
            # span; the slope magnitude stays saturated at k_max
            c_t = err / state.conv_span
            c_t = 1.0 if 1.0 < c_t else c_t
            # knee extension is negative knee velocity under our sign
            # convention; k_max acts as a magnitude
            return -c_t * params.k_max * v_max, -c_t * params.k_max, c_t

    # THREE_MIRROR: knee mirrors the hip rate of this tick (not the running
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
    g1, g2 = exp(-params.alpha_1 * n), exp(-params.alpha_2 * n)
    return (1.0 - g1) * raw_vel + g1 * (measured_vel
                                        + g2 * state.theta_k_ddot_ini * params.dt), g1


def _enter_major_phase(state: PhaseState, phase: Phase, joint: JointState,
                       hip: HipPose) -> None:
    state.phase = phase
    state.ticks_in_phase = 0
    state.theta_k_ddot_ini = joint.theta_k_ddot
    if phase is THREE_TANGENT:
        v = hip.theta_h_dot
        state.hip_vel_running_max = HIP_VEL_FLOOR if HIP_VEL_FLOOR > v else v


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
    phase = state.phase
    # pts[3] is the heel and pts[2] the toe: an index skips the field's descriptor
    if (phase is ONE or phase is TWO) and pts[3][0] > hip.x_h:
        _enter_major_phase(state, THREE_TANGENT, joint, hip)
        phase = THREE_TANGENT
    elif phase is ONE and pts[2][1] >= target.z_m:
        _enter_major_phase(state, TWO, joint, hip)
        phase = TWO

    c_t = NAN
    if phase is ONE:
        raw, slope = phase1_velocity(geom, hip, joint, target, state, params)
    elif phase is TWO:
        raw, slope = phase2_velocity(geom, hip, target, state, params)
    else:
        v, v_max = hip.theta_h_dot, state.hip_vel_running_max
        state.hip_vel_running_max = v if v > v_max else v_max
        raw, slope, c_t = phase3_velocity(geom, hip, joint, target, state, params)

    cmd, g1 = blend_command(raw, joint.theta_k_dot, state, params)
    state.ticks_in_phase += 1
    return _new_tuple(PlannerCommand, (cmd, state, slope, c_t, g1))

