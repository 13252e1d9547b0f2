import math

import numpy as np
import pytest

from oracle_utils import GEOM, LIMIT, grid_boundary, peak_scan, toe_xz, toe_z_fn

from swingsim.config import GEOMETRY, PLANNER
from swingsim.leg_kinematics import DEG, HipPose, JointState, LegGeometry, forward_points
from swingsim.perception import ControlTarget
from swingsim.swing_planner import (
    MIN_DTHETA_H,
    PEAK_THETA_H_HI,
    PEAK_THETA_H_LO,
    Phase,
    PhaseState,
    PlannerParams,
    _peak_closed_form,
    _tangent_with_freeze,
    blend_command,
    mx_exit_distance,
    mz_boundary_knee,
    mz_peak,
    phase1_velocity,
    phase2_velocity,
    planner_step,
)

LIMIT_ROW = next(f for f in PLANNER if f.attr == "knee_limit")


def table_leg(rng):
    """A leg drawn over the scenario table, and a knee limit the table accepts."""
    geom = LegGeometry(**{f.attr: rng.uniform(f.lo, f.hi) for f in GEOMETRY})
    return geom, rng.uniform(LIMIT_ROW.lo, LIMIT_ROW.hi) * DEG


def far_target(z_m):
    return ControlTarget(z_m=z_m, x_c=10.0)


# ---------------------------------------------------------------------------
# boundary solver


def test_boundary_already_clear_returns_zero():
    # z_m far below even the toe's dip: the whole column is clear
    assert mz_boundary_knee(GEOM, 1.0, 0.10, 30 * DEG, LIMIT) == 0.0


def test_boundary_unreachable_returns_none():
    assert mz_boundary_knee(GEOM, 0.9, 0.5, 0.0, LIMIT) is None


def test_boundary_spec_point_matches_grid():
    b = mz_boundary_knee(GEOM, 1.0, 0.17, 20 * DEG, LIMIT)
    f = toe_z_fn(1.0, 20 * DEG)
    assert f(b) == pytest.approx(0.17, abs=1e-6)
    assert b == pytest.approx(grid_boundary(1.0, 0.17, 20 * DEG), abs=0.1 * DEG)


def test_boundary_oracle_1000_random_states():
    # acceptance 6(a): closed form within 0.1 deg of a 0.01 deg dense scan
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 1000:
        z_h = rng.uniform(0.80, 1.00)
        z_m = rng.uniform(0.01, 0.20)
        th = rng.uniform(-30 * DEG, 50 * DEG)
        b = mz_boundary_knee(GEOM, z_h, z_m, th, LIMIT)
        o = grid_boundary(z_h, z_m, th)
        assert (b is None) == (o is None)
        if b is None:
            continue
        checked += 1
        worst = max(worst, abs(b - o))
        assert abs(b - o) <= 0.1 * DEG
    assert worst <= 0.1 * DEG


def test_boundary_is_terminal_clear_threshold():
    # from the returned angle to the limit, the toe never drops below z_m
    rng = np.random.default_rng(5)
    for _ in range(200):
        z_h = rng.uniform(0.8, 1.0)
        z_m = rng.uniform(0.01, 0.2)
        th = rng.uniform(-30 * DEG, 50 * DEG)
        b = mz_boundary_knee(GEOM, z_h, z_m, th, LIMIT)
        if b is None:
            continue
        f = toe_z_fn(z_h, th)
        for tk in np.linspace(b, LIMIT, 40):
            # the solver is exact to rounding; 1e-6 m leaves room for the
            # oracle's own toe formula
            assert f(tk) >= z_m - 1e-6


# ---------------------------------------------------------------------------
# peak


def exhaustive_peak(z_h, z_m, step=0.1 * DEG, geom=GEOM, limit=LIMIT):
    # the contour top is flat in theta_h, so the oracle interpolates its
    # crossings: a quantized boundary would tie across a wide plateau
    best = None
    th = -45 * DEG
    while th <= 75 * DEG:
        b = grid_boundary(z_h, z_m, th, interpolate=True, geom=geom, limit=limit)
        v = limit if b is None else b
        if b is not None and (best is None or v > best[1]):
            best = (th, v)
        th += step
    return best


LONG_THIGH = LegGeometry(thigh_m=0.50, shank_m=0.40, toe_m=0.20, heel_m=0.08)


def test_mz_peak_matches_exhaustive_scan():
    # a 30 deg limit leaves an interior peak only in a 0.5 mm band of z_m
    for geom, limit, z_h, z_m in (
            (GEOM, LIMIT, 0.90, 0.05), (GEOM, LIMIT, 0.92, 0.09), (GEOM, LIMIT, 0.88, 0.03),
            (LONG_THIGH, 30 * DEG, 0.90, -0.047), (LONG_THIGH, 150 * DEG, 0.85, 0.10)):
        th_p, _ = _peak_closed_form(geom, z_h, z_m, limit)
        tk_p = mz_peak(geom, z_h, z_m, limit)
        oth, otk = exhaustive_peak(z_h, z_m, geom=geom, limit=limit)
        assert 0.0 < tk_p < limit
        assert abs(th_p - oth) <= 0.2 * DEG
        assert abs(tk_p - otk) <= 0.2 * DEG


def test_mz_peak_reads_the_hip_height_to_the_millimetre_and_the_target_to_10_microns():
    # the rounding is part of the model the digests rest on, not only a cache
    # key: hip heights a few mm apart, in different 1 mm buckets, see
    # different peaks, and each is the closed form's at the rounded inputs
    peaks = set()
    for z_h in (0.9031, 0.9049, 0.9071, 0.9114):
        for z_m in (0.0502346, 0.0812344):
            peak = _peak_closed_form(GEOM, round(z_h, 3), round(z_m, 5), LIMIT)[1]
            assert mz_peak(GEOM, z_h, z_m, LIMIT) == peak
            peaks.add(peak)
    assert len(peaks) == 8


def test_peak_closed_form_equals_scan_on_default_domain():
    # the grid + golden-section search the closed form replaced, at the
    # planner's own leg and limit over the campaign's hip heights and targets
    rng = np.random.default_rng(8)
    kinds = {"none": 0, "clear": 0, "interior": 0, "saturated": 0}
    for _ in range(3000):
        z_h, z_m = rng.uniform(0.85, 0.95), rng.uniform(0.0, 0.35)
        ref = peak_scan(GEOM, z_h, z_m, LIMIT)
        got = _peak_closed_form(GEOM, z_h, z_m, LIMIT)
        assert (got is None) == (ref is None)
        if got is None:
            kinds["none"] += 1
            continue
        assert abs(got[1] - ref[1]) <= 1e-9
        kinds["clear" if got[1] == 0.0 else
              "saturated" if got[1] == LIMIT else "interior"] += 1
    assert min(kinds["clear"], kinds["interior"], kinds["saturated"]) >= 50


def _end_value(geom, z_h, z_m, limit, theta_h):
    b = mz_boundary_knee(geom, z_h, z_m, theta_h, limit)
    return limit if b is None or b >= limit - 1e-9 else b


def test_peak_closed_form_equals_scan_over_table_ranges():
    # leg lengths over the scenario table, any knee limit it accepts, and
    # hip heights and targets well past the campaign's
    rng = np.random.default_rng(9)
    kinds = {"none": 0, "saturated": 0, "left_range": 0}
    for _ in range(2000):
        geom, limit = table_leg(rng)
        z_h, z_m = rng.uniform(0.6, 1.3), rng.uniform(-0.3, 0.6)
        ref = peak_scan(geom, z_h, z_m, limit)
        got = _peak_closed_form(geom, z_h, z_m, limit)
        assert (got is None) == (ref is None)
        if got is None:
            kinds["none"] += 1
            continue
        kinds["saturated"] += got[1] == limit
        if PEAK_THETA_H_LO <= ref[0] <= PEAK_THETA_H_HI:
            assert abs(got[1] - ref[1]) <= 1e-9
        else:
            # the golden-section bracket around a grid end leaves the range
            # and refines past it; the closed form stays at the end
            kinds["left_range"] += 1
            end = min(max(ref[0], PEAK_THETA_H_LO), PEAK_THETA_H_HI)
            assert got[1] == _end_value(geom, z_h, z_m, limit, end)
    assert kinds["none"] >= 50 and kinds["saturated"] >= 500
    assert 1 <= kinds["left_range"] <= 10


def test_peak_closed_form_finds_columns_reachable_only_near_the_crest():
    # a thigh and a knee limit past the table's fold the toe above the hip,
    # and the toe height at the limit crests inside the hip range: a z_m just
    # under that crest leaves a reachable band there and none at the ends
    geom, limit, z_h = LegGeometry(0.15, 0.45, 0.20, 0.05), 178 * DEG, 0.9
    toe_z = [toe_xz(geom, 0.0, z_h, t, limit)[1] for t in (-45 * DEG, -36.4 * DEG, 75 * DEG)]
    z_m = toe_z[1] - 0.1 * (toe_z[1] - max(toe_z[0], toe_z[2]))
    ref = peak_scan(geom, z_h, z_m, limit)
    got = _peak_closed_form(geom, z_h, z_m, limit)
    assert ref is not None and got is not None
    assert got[1] == pytest.approx(ref[1], abs=1e-9)


def test_mz_peak_small_for_ground_level_margin():
    # hip high enough that the toe cannot reach below the delta-only target:
    # nothing to climb, the aim point degenerates to a straight knee
    tk_p = mz_peak(GEOM, 1.0, 0.02, LIMIT)
    assert tk_p < 10 * DEG


def test_mz_peak_conservative_fallback():
    assert _peak_closed_form(GEOM, 0.9, 2.0, LIMIT) is None
    assert mz_peak(GEOM, 0.9, 2.0, LIMIT) == LIMIT


def test_mz_peak_clipped_at_knee_limit_when_wall_bound():
    # 16 cm target: the region tops out above the hardware limit, and the
    # peak is the planner's limit itself, not a rounding of it past 85 deg
    limit = PlannerParams().knee_limit
    assert mz_peak(LegGeometry(), 0.915, 0.17, limit) == limit


# ---------------------------------------------------------------------------
# M_x distance


def test_mx_exit_zero_on_boundary():
    hip = HipPose(x_h=0.0, z_h=1.0, theta_h=0.0)
    x_t = forward_points(GEOM, hip, 10 * DEG).toe[0]
    assert mx_exit_distance(GEOM, hip, 10 * DEG, x_t) == 0.0
    assert mx_exit_distance(GEOM, hip, 10 * DEG, x_t - 0.05) == 0.0


def test_mx_exit_matches_grid_scan():
    hip = HipPose(x_h=0.0, z_h=1.0, theta_h=-10 * DEG)
    tk = 10 * DEG
    x_t = forward_points(GEOM, hip, tk).toe[0]
    x_c = x_t + 0.3
    d = mx_exit_distance(GEOM, hip, tk, x_c)
    # dense 0.01 deg scan oracle
    dths = np.arange(0.0, 100 * DEG, 0.01 * DEG)
    ts = (hip.theta_h + dths) - tk
    toe_x = (hip.x_h + GEOM.thigh_m * np.sin(hip.theta_h + dths)
             + GEOM.shank_m * np.sin(ts) + GEOM.toe_m * np.cos(ts))
    first = np.argmax(toe_x >= x_c)
    assert d == pytest.approx(float(dths[first]), abs=0.02 * DEG)
    assert forward_points(GEOM, HipPose(x_h=0.0, z_h=1.0, theta_h=hip.theta_h + d),
                          tk).toe[0] == pytest.approx(x_c, abs=1e-5)


def test_mx_exit_unreachable():
    hip = HipPose(x_h=0.0, z_h=1.0, theta_h=0.0)
    assert mx_exit_distance(GEOM, hip, 10 * DEG, 5.0) is None


def test_mx_exit_past_the_crest_is_unreachable():
    # at 85 deg with a straight knee the toe is past the crest of its reach
    # (theta_h + atan2(B, A) > 90 deg), so an x_c between the toe and the
    # crest is only met again after a full turn, beyond MX_THETA_H_CAP
    hip = HipPose(x_h=0.0, z_h=1.0, theta_h=85 * DEG)
    toe_x = toe_xz(GEOM, 0.0, 1.0, hip.theta_h, 0.0)[0]
    crest = math.hypot(GEOM.thigh_m + GEOM.shank_m, GEOM.toe_m)
    assert hip.theta_h + math.atan2(GEOM.toe_m, GEOM.thigh_m + GEOM.shank_m) > math.pi / 2
    assert toe_x < crest - 1e-3
    assert mx_exit_distance(GEOM, hip, 0.0, (toe_x + crest) / 2) is None


def test_mx_exit_finds_a_narrow_crossing_at_the_crest():
    # x_c 1e-5 m short of the toe's farthest reach: the toe is past x_c for
    # about half a degree of hip angle around the crest
    tk = 10 * DEG
    ths = np.arange(0.0, 100 * DEG, 1e-4)
    ts = ths - tk
    reach = float((GEOM.thigh_m * np.sin(ths) + GEOM.shank_m * np.sin(ts)
                   + GEOM.toe_m * np.cos(ts)).max())
    d = mx_exit_distance(GEOM, HipPose(x_h=0.0, z_h=1.0, theta_h=0.0), tk, reach - 1e-5)
    assert d is not None
    assert toe_xz(GEOM, 0.0, 1.0, d, tk)[0] == pytest.approx(reach - 1e-5, abs=1e-9)


def test_solvers_put_the_toe_exactly_on_the_region_edges():
    # the toe sits on z_m at every returned M_z boundary and on x_c at every
    # returned M_x advance, to rounding, over the leg and knee-limit table
    rng = np.random.default_rng(8)
    on_z = on_x = 0
    for _ in range(3000):
        geom, limit = table_leg(rng)
        z_h = rng.uniform(0.80, 1.00)
        z_m = rng.uniform(0.01, 0.20)
        th = rng.uniform(-30 * DEG, 50 * DEG)
        b = mz_boundary_knee(geom, z_h, z_m, th, limit)
        if b:  # None and 0.0 (clear column) have no crossing
            assert abs(toe_xz(geom, 0.0, z_h, th, b)[1] - z_m) <= 1e-9
            on_z += 1
        tk = rng.uniform(0.0, limit)
        x_c = rng.uniform(0.0, 1.0)
        d = mx_exit_distance(geom, HipPose(x_h=0.0, z_h=z_h, theta_h=th), tk, x_c)
        if d:
            assert abs(toe_xz(geom, 0.0, z_h, th + d, tk)[0] - x_c) <= 1e-9
            on_x += 1
    assert on_z > 500 and on_x > 500


def test_solver_endpoint_tests_agree_with_the_chain_oracle():
    # mz_boundary_knee is 0 iff the toe at its dip (clamped to the knee
    # range) is at or above z_m, and None iff the toe at the limit is below;
    # mx_exit_distance is 0 iff the toe is at or past x_c
    rng = np.random.default_rng(10)
    tie = 1e-12  # m; draws this close to a threshold are skipped
    kinds = {"clear": 0, "none": 0, "crossing": 0, "past": 0, "short": 0}
    for _ in range(4000):
        geom, limit = table_leg(rng)
        z_h, z_m = rng.uniform(0.6, 1.3), rng.uniform(-0.3, 0.6)
        th = rng.uniform(PEAK_THETA_H_LO, PEAK_THETA_H_HI)
        dip = th + math.atan2(geom.toe_m, geom.shank_m)
        z_lo = toe_xz(geom, 0.0, z_h, th, min(max(dip, 0.0), limit))[1]
        z_top = toe_xz(geom, 0.0, z_h, th, limit)[1]
        if abs(z_lo - z_m) > tie and abs(z_top - z_m) > tie:
            b = mz_boundary_knee(geom, z_h, z_m, th, limit)
            assert (b == 0.0) == (z_lo >= z_m)
            assert (b is None) == (z_top < z_m)
            kinds["clear" if b == 0.0 else "none" if b is None else "crossing"] += 1
        x_h, tk, x_c = rng.uniform(-1.0, 1.0), rng.uniform(0.0, limit), rng.uniform(-1.0, 2.0)
        toe_x = toe_xz(geom, x_h, z_h, th, tk)[0]
        if abs(toe_x - x_c) > tie:
            d = mx_exit_distance(geom, HipPose(x_h=x_h, z_h=z_h, theta_h=th), tk, x_c)
            assert (d == 0.0) == (toe_x >= x_c)
            kinds["past" if d == 0.0 else "short"] += 1
    assert min(kinds.values()) >= 300


# ---------------------------------------------------------------------------
# phase laws


def test_phase1_slope_arithmetic():
    # slope = max(dk/dh, k_min); both distances arranged by construction
    params = PlannerParams()
    hip = HipPose(x_h=0.0, z_h=0.9, theta_h=-10 * DEG, theta_h_dot=1.0)
    joint = JointState(theta_k=10 * DEG)
    target = ControlTarget(z_m=0.05, x_c=forward_points(GEOM, hip, 10 * DEG).toe[0] + 0.25)
    vel, slope = phase1_velocity(GEOM, hip, joint, target, PhaseState(), params)
    bound = mz_boundary_knee(GEOM, hip.z_h, target.z_m, hip.theta_h, params.knee_limit)
    dh = mx_exit_distance(GEOM, hip, joint.theta_k, target.x_c)
    peak_k = mz_peak(GEOM, hip.z_h, target.z_m, params.knee_limit)
    k1 = (bound - joint.theta_k) / dh
    kmin = (peak_k - joint.theta_k) / dh
    assert slope == pytest.approx(max(k1, kmin))
    assert vel == pytest.approx(slope * 1.0)
    assert kmin > k1  # far-ish obstacle: the lower threshold governs here


@pytest.mark.parametrize("theta_h", [-20 * DEG, 5 * DEG])
def test_phase1_unreachable_mx_edge_uses_the_thigh_to_vertical_distance(theta_h):
    # x_c beyond the toe's reach: the M_x edge is stood in for by
    # max(-theta_h, MIN_DTHETA_H), the floor governing once the thigh is forward
    params = PlannerParams()
    hip = HipPose(x_h=0.0, z_h=0.9, theta_h=theta_h, theta_h_dot=1.5)
    joint = JointState(theta_k=10 * DEG)
    target = ControlTarget(z_m=0.05, x_c=5.0)
    assert mx_exit_distance(GEOM, hip, joint.theta_k, target.x_c) is None
    vel, slope = phase1_velocity(GEOM, hip, joint, target, PhaseState(), params)
    dh = max(-theta_h, MIN_DTHETA_H)
    bound = mz_boundary_knee(GEOM, hip.z_h, target.z_m, theta_h, params.knee_limit)
    peak_k = mz_peak(GEOM, hip.z_h, target.z_m, params.knee_limit)
    assert bound is not None
    assert slope == max((bound - joint.theta_k) / dh, (peak_k - joint.theta_k) / dh)
    assert vel == slope * 1.5


def test_phase1_lower_threshold_rule():
    # construct k_1 < k_min by starting with the knee just below the boundary
    params = PlannerParams()
    hip = HipPose(x_h=0.0, z_h=0.9, theta_h=0.0, theta_h_dot=2.0)
    target = ControlTarget(z_m=0.05, x_c=forward_points(GEOM, hip, 0.0).toe[0] + 0.15)
    bound = mz_boundary_knee(GEOM, hip.z_h, target.z_m, 0.0, params.knee_limit)
    joint = JointState(theta_k=bound - 1 * DEG)
    vel, slope = phase1_velocity(GEOM, hip, joint, target, PhaseState(), params)
    dh = mx_exit_distance(GEOM, hip, joint.theta_k, target.x_c)
    peak_k = mz_peak(GEOM, hip.z_h, target.z_m, params.knee_limit)
    assert slope == pytest.approx((peak_k - joint.theta_k) / dh)
    assert vel == pytest.approx(slope * 2.0)


def test_phase1_peak_memo_never_serves_another_target_geometry_or_knee_limit():
    # one PhaseState reused across targets, legs and knee limits, at hip
    # heights in one 1 mm bucket, gives the commands of fresh states
    short = LegGeometry(thigh_m=0.40, shank_m=0.40)
    cases = [(GEOM, 0.05, LIMIT), (GEOM, 0.17, LIMIT), (short, 0.17, LIMIT),
             (short, 0.17, 70 * DEG), (GEOM, 0.05, LIMIT)]
    state, seen = PhaseState(), set()
    for geom, z_m, limit in cases:
        params = PlannerParams(knee_limit=limit)
        for z_h in (0.9001, 0.9, 0.8996):
            hip = HipPose(x_h=0.0, z_h=z_h, theta_h=-10 * DEG, theta_h_dot=1.0)
            joint, target = JointState(theta_k=0.0), far_target(z_m)
            fresh = phase1_velocity(geom, hip, joint, target, PhaseState(), params)
            assert phase1_velocity(geom, hip, joint, target, state, params) == fresh
            seen.add(fresh)
    assert state == PhaseState() and repr(state) == repr(PhaseState())
    assert len(seen) == 4  # the peak moves with each of z_m, the leg and the limit


def test_phase1_peak_memo_keeps_a_hip_height_in_its_bucket_only_inside_the_margin():
    # one PhaseState, its key stored anew before each probe, probed at each
    # 0.5 mm midpoint around the key and one ulp either side gives the peak
    # key, peak and command of a fresh state. The doubles 0.8125 and 0.9375
    # lie less than 0.0005 from the doubles 0.813 and 0.937 but round half to
    # even into the next bucket: the margin alone keeps them out.
    params, state = PlannerParams(), PhaseState()
    joint, target = JointState(theta_k=0.0), far_target(0.17)

    def hip(z_h):
        return HipPose(x_h=0.0, z_h=z_h, theta_h=-10 * DEG, theta_h_dot=1.0)

    moved = kept = 0
    for key_z in (0.813, 0.9, 0.937):
        for mid in (key_z - 0.0005, key_z + 0.0005):
            for z_h in (math.nextafter(mid, -math.inf), mid, math.nextafter(mid, math.inf)):
                phase1_velocity(GEOM, hip(key_z), joint, target, state, params)
                assert state.peak_key[3] == key_z
                fresh = PhaseState()
                command = phase1_velocity(GEOM, hip(z_h), joint, target, fresh, params)
                assert phase1_velocity(GEOM, hip(z_h), joint, target, state, params) == command
                assert (state.peak_key, state.peak_k) == (fresh.peak_key, fresh.peak_k)
                moved += round(z_h, 3) != key_z
                kept += round(z_h, 3) == key_z
    assert (moved, kept) == (8, 10)
    assert {0.8125, 0.9375} <= {key_z + d for key_z in (0.813, 0.937) for d in (-0.0005, 0.0005)}


def test_tangent_slope_matches_grid_secant_1000_states():
    # acceptance 6(b): the planner's FD tangent of the closed-form boundary vs
    # the interpolated dense-grid secant over the same +/-0.25 deg step,
    # within 0.01. A fresh state holds NaN when either boundary is absent.
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 1000:
        z_h = rng.uniform(0.82, 1.0)
        z_m = rng.uniform(0.02, 0.19)
        th = rng.uniform(-25 * DEG, 45 * DEG)
        k2, _ = _tangent_with_freeze(GEOM, HipPose(x_h=0.0, z_h=z_h, theta_h=th), z_m,
                                     PhaseState(last_k2=math.nan), PlannerParams())
        if math.isnan(k2):
            continue
        g_plus = grid_boundary(z_h, z_m, th + 0.25 * DEG, interpolate=True)
        g_minus = grid_boundary(z_h, z_m, th - 0.25 * DEG, interpolate=True)
        if g_plus is None or g_minus is None:
            continue
        secant = (g_plus - g_minus) / (0.5 * DEG)
        assert abs(k2 - secant) <= 0.01
        checked += 1


def test_phase2_zero_slope_commands_zero():
    # at the contour apex the tangent is flat: command vanishes regardless
    # of hip velocity
    params = PlannerParams()
    z_h, z_m = 0.92, 0.09
    th_p, _ = _peak_closed_form(GEOM, z_h, z_m, params.knee_limit)
    hip = HipPose(x_h=0.0, z_h=z_h, theta_h=th_p, theta_h_dot=3.0)
    state = PhaseState(phase=Phase.TWO)
    vel, slope = phase2_velocity(GEOM, hip, far_target(z_m), state, params)
    assert abs(slope) < 0.02
    assert vel == pytest.approx(slope * 3.0)


def test_phase2_freeze_rule_keeps_snapshot():
    params = PlannerParams()
    z_m = 0.09
    # on the falling flank the slope is negative: the snapshot must freeze
    # and stay identical across consecutive ticks
    th = 28 * DEG
    hip1 = HipPose(x_h=0.0, z_h=0.92, theta_h=th, theta_h_dot=1.0)
    state = PhaseState(phase=Phase.TWO)
    _, s1 = phase2_velocity(GEOM, hip1, far_target(z_m), state, params)
    assert s1 < 0
    assert state.frozen_z_h == 0.92
    hip2 = HipPose(x_h=0.01, z_h=0.915, theta_h=th + 0.5 * DEG, theta_h_dot=1.0)
    _, s2 = phase2_velocity(GEOM, hip2, far_target(z_m), state, params)
    assert s2 < 0
    assert state.frozen_z_h == 0.92  # unchanged while k2 < 0


def test_phase2_unfreezes_on_nonnegative_slope():
    params = PlannerParams()
    state = PhaseState(phase=Phase.TWO)
    # rising flank: positive slope clears any previous freeze
    state.frozen_z_h = 0.92
    hip = HipPose(x_h=0.0, z_h=0.92, theta_h=0.0, theta_h_dot=1.0)
    _, slope = phase2_velocity(GEOM, hip, far_target(0.09), state, params)
    assert slope > 0
    assert state.frozen_z_h is None


def test_phase3_converge_gain_is_one_at_saturation():
    params = PlannerParams()
    state = PhaseState(phase=Phase.THREE_CONVERGE, hip_vel_running_max=2.0,
                       conv_span=60 * DEG - 30 * DEG + params.theta_0)
    joint = JointState(theta_k=60 * DEG)
    hip = HipPose(x_h=0.3, z_h=0.9, theta_h=30 * DEG, theta_h_dot=1.0)
    from swingsim.swing_planner import phase3_velocity
    raw, slope, c_t = phase3_velocity(GEOM, hip, joint, far_target(0.05), state, params)
    assert c_t == pytest.approx(1.0)
    assert raw == pytest.approx(-params.k_max * 2.0)


def test_phase3_converged_enters_mirror():
    params = PlannerParams()
    state = PhaseState(phase=Phase.THREE_CONVERGE, hip_vel_running_max=2.0,
                       conv_span=60 * DEG - 30 * DEG + params.theta_0)
    hip = HipPose(x_h=0.3, z_h=0.9, theta_h=30 * DEG, theta_h_dot=0.8)
    joint = JointState(theta_k=hip.theta_h - params.theta_0)  # C^t = 0
    from swingsim.swing_planner import phase3_velocity
    raw, slope, c_t = phase3_velocity(GEOM, hip, joint, far_target(0.05), state, params)
    assert state.phase is Phase.THREE_MIRROR
    assert raw == pytest.approx(0.8)  # mirror law: instantaneous hip rate


def test_phase3_degenerate_denominator_skips_converge():
    params = PlannerParams()
    state = PhaseState(phase=Phase.THREE_TANGENT, hip_vel_running_max=2.0,
                       last_k2=-10.0)
    # an absent boundary holds last_k2 = -10, |k2| >= k_max saturates; the
    # memorized convergence span is negative
    hip = HipPose(x_h=0.5, z_h=0.9, theta_h=40 * DEG, theta_h_dot=1.0)
    joint = JointState(theta_k=10 * DEG)  # theta_k - theta_h + theta_0 < 0
    from swingsim.swing_planner import phase3_velocity
    raw, slope, c_t = phase3_velocity(GEOM, hip, joint, far_target(0.5), state, params)
    assert state.phase is Phase.THREE_MIRROR


def test_phase3_saturation_memorizes_the_convergence_span_converge_divides_by():
    # the knee half a landing lean short of theta_h - theta_0: the span counts
    # theta_0, so it is positive and the swing converges; the gain starts at
    # exactly 1 and is the span now over the memorized one
    from swingsim.swing_planner import phase3_velocity
    params = PlannerParams()
    state = PhaseState(phase=Phase.THREE_TANGENT, hip_vel_running_max=2.0,
                       last_k2=-10.0)
    hip = HipPose(x_h=0.5, z_h=0.9, theta_h=40 * DEG, theta_h_dot=1.0)
    joint = JointState(theta_k=hip.theta_h - 0.5 * params.theta_0)
    raw, slope, c_t = phase3_velocity(GEOM, hip, joint, far_target(0.5), state, params)
    span = joint.theta_k - hip.theta_h + params.theta_0
    assert state.phase is Phase.THREE_CONVERGE and state.conv_span == span
    assert (c_t, slope, raw) == (1.0, -params.k_max, -params.k_max * 2.0)
    hip = HipPose(x_h=0.5, z_h=0.9, theta_h=41 * DEG, theta_h_dot=1.0)
    raw, slope, c_t = phase3_velocity(GEOM, hip, joint, far_target(0.5), state, params)
    assert c_t == (joint.theta_k - hip.theta_h + params.theta_0) / span
    assert state.phase is Phase.THREE_CONVERGE and state.conv_span == span


def test_mirror_holds_shank_under_ideal_tracking():
    # forward-integration oracle on the mirror law: theta_k tracks theta_h,
    # so the shank angle stays put to integration precision
    params = PlannerParams()
    dt = params.dt
    theta_h = 30 * DEG
    theta_k = theta_h - params.theta_0
    shank0 = theta_h - theta_k
    for i in range(500):
        vel = 0.8  # told to mirror the hip rate
        theta_h += vel * dt
        theta_k += vel * dt
    assert abs((theta_h - theta_k) - shank0) < 1e-9


# ---------------------------------------------------------------------------
# blending


def test_blend_at_n_zero_is_measured_plus_accel_step():
    params = PlannerParams()
    state = PhaseState(ticks_in_phase=0, theta_k_ddot_ini=30.0)
    cmd, _ = blend_command(5.0, 0.5, state, params)
    assert cmd == pytest.approx(0.5 + 30.0 * params.dt)


def test_blend_large_n_converges_to_raw():
    params = PlannerParams()
    state = PhaseState(ticks_in_phase=400, theta_k_ddot_ini=30.0)
    cmd, _ = blend_command(2.0, -5.0, state, params)
    assert cmd == pytest.approx(2.0, rel=1e-5)


def test_blend_spec_arithmetic_n20():
    params = PlannerParams(alpha_1=0.05, alpha_2=0.05)
    state = PhaseState(ticks_in_phase=20, theta_k_ddot_ini=0.0)
    cmd, _ = blend_command(2.0, 0.5, state, params)
    g1 = math.exp(-1.0)
    assert cmd == pytest.approx((1 - g1) * 2.0 + g1 * 0.5)
    assert cmd == pytest.approx(1.4482, abs=1e-4)


def test_blend_takes_each_alpha_for_its_own_gamma():
    # alpha_1 fades the raw command in, alpha_2 fades the entry acceleration
    # out: with distinct alphas, gamma_2 is its own exponential
    params = PlannerParams(alpha_1=0.05, alpha_2=0.2)
    state = PhaseState(ticks_in_phase=10, theta_k_ddot_ini=30.0)
    cmd, gamma_1 = blend_command(2.0, 0.5, state, params)
    g1, g2 = math.exp(-params.alpha_1 * 10), math.exp(-params.alpha_2 * 10)
    assert gamma_1 == g1
    assert cmd == (1.0 - g1) * 2.0 + g1 * (0.5 + g2 * 30.0 * params.dt)


# ---------------------------------------------------------------------------
# planner_step transitions


def standard_target():
    return ControlTarget(z_m=0.05, x_c=0.4)


def test_planner_step_one_to_two_on_toe_height():
    params = PlannerParams()
    state = PhaseState()
    # toe already above z_m: first step flips to phase TWO
    hip = HipPose(x_h=0.0, z_h=0.9, theta_h=0.0, theta_h_dot=1.0)
    joint = JointState(theta_k=70 * DEG)
    cmd = planner_step(GEOM, hip, joint, forward_points(GEOM, hip, joint.theta_k),
                       standard_target(), state, params)
    assert cmd.phase_after.phase is Phase.TWO


def test_planner_step_direct_one_to_three_predicate_precedence():
    params = PlannerParams()
    state = PhaseState()
    # heel ahead of hip while still in ONE: jumps straight to phase three
    hip = HipPose(x_h=0.0, z_h=0.9, theta_h=35 * DEG, theta_h_dot=1.0)
    joint = JointState(theta_k=5 * DEG)
    pts = forward_points(GEOM, hip, joint.theta_k)
    assert pts.heel[0] > hip.x_h
    cmd = planner_step(GEOM, hip, joint, forward_points(GEOM, hip, joint.theta_k),
                       ControlTarget(z_m=0.5, x_c=2.0), state, params)
    assert cmd.phase_after.phase in (Phase.THREE_TANGENT, Phase.THREE_CONVERGE,
                                     Phase.THREE_MIRROR)


def test_planner_step_resets_blend_counter_on_transition():
    params = PlannerParams()
    state = PhaseState(ticks_in_phase=500)
    hip = HipPose(x_h=0.0, z_h=0.9, theta_h=0.0, theta_h_dot=1.0)
    joint = JointState(theta_k=70 * DEG, theta_k_dot=1.5, theta_k_ddot=12.0)
    cmd = planner_step(GEOM, hip, joint, forward_points(GEOM, hip, joint.theta_k),
                       standard_target(), state, params)
    # n was reset to 0 by the ONE->TWO transition before blending
    assert cmd.gamma_1 == pytest.approx(1.0)
    assert cmd.knee_vel_cmd == pytest.approx(1.5 + 12.0 * params.dt)
    assert state.theta_k_ddot_ini == 12.0
