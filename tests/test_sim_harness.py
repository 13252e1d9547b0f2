import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swingsim.config import parse_campaign
from swingsim.leg_kinematics import DEG, HipPose, FootPoints, forward_points
from swingsim.perception import Box, ObstacleScene
from swingsim.human_model import GaitIntent
from swingsim.swing_planner import Phase
from swingsim.sim_harness import (
    ROW_FORMAT,
    CampaignConfig,
    Contact,
    LogRow,
    Outcome,
    Surface,
    TrialConfig,
    _classify,
    build_trial_specs,
    capture_state,
    contact_check,
    perceive,
    run_campaign,
    run_swing,
    span_lows,
    summarize,
    summary_json,
    trial_config_for,
)


def foot_at(heel, toe, knee=(0.0, 0.8), ankle=(0.0, 0.4)):
    return FootPoints(knee=knee, ankle=ankle, toe=toe, heel=heel)


BOX_SCENE = ObstacleScene(boxes=(Box(front_x=0.4, height=0.16, depth=0.2, width=0.4),))


def test_contact_penetrating_box_top_is_trip_outside_mirror():
    # the whole foot inside the span [0.4, 0.6] and below the 0.16 top, so
    # no face is crossed: the trip comes from the box-top test
    pts = foot_at(heel=(0.45, 0.10), toe=(0.55, 0.12))
    c = contact_check(pts, BOX_SCENE, span_lows(pts, BOX_SCENE), in_mirror=False, downward=True)
    assert c == Contact("trip", Surface.OBSTACLE_TOP, 0.45, 0.10)


def test_step_over_landing_on_a_box_top_is_a_trip():
    pts = foot_at(heel=(0.45, 0.159), toe=(0.58, 0.165))
    c = contact_check(pts, BOX_SCENE, span_lows(pts, BOX_SCENE), in_mirror=True, downward=True)
    assert c.kind == "landing" and c.surface is Surface.OBSTACLE_TOP
    cfg = TrialConfig(intent=GaitIntent.STEP_OVER, scene=BOX_SCENE)
    assert _classify(c, cfg) == (Outcome.TRIP, 0.45, Surface.OBSTACLE_TOP)
    ground = foot_at(heel=(0.7, -0.001), toe=(0.9, 0.02))
    c = contact_check(ground, BOX_SCENE, span_lows(ground, BOX_SCENE), in_mirror=True,
                      downward=True)
    assert _classify(c, cfg) == (Outcome.SUCCESS_STEP_OVER, 0.7, Surface.GROUND)


def test_step_over_landing_on_the_ground_short_of_its_box_is_a_scuff():
    ground = foot_at(heel=(0.1, -0.001), toe=(0.3, 0.02))
    c = contact_check(ground, BOX_SCENE, span_lows(ground, BOX_SCENE), in_mirror=True,
                      downward=True)
    cfg = TrialConfig(intent=GaitIntent.STEP_OVER, scene=BOX_SCENE)
    assert _classify(c, cfg) == (Outcome.SCUFF, 0.1, Surface.GROUND)
    # a box 1.6 m out, past the look-ahead: the swing comes down ~0.5 m short
    base = TrialConfig(intent=GaitIntent.STEP_OVER, seed=3)
    _, pts = capture_state(base)
    scene = ObstacleScene(boxes=(Box(front_x=pts.toe[0] + 1.6, height=0.16,
                                     depth=0.15, width=0.40),))
    _, res = run_swing(replace(base, scene=scene))
    assert res.outcome is Outcome.SCUFF and res.landing_surface is Surface.GROUND
    assert res.landing_x < scene.boxes[0].front_x - 0.4


def test_contact_box_top_landing_in_mirror():
    pts = foot_at(heel=(0.45, 0.159), toe=(0.58, 0.165))
    c = contact_check(pts, BOX_SCENE, span_lows(pts, BOX_SCENE), in_mirror=True, downward=True)
    assert c is not None and c.kind == "landing" and c.surface is Surface.OBSTACLE_TOP


def test_contact_front_face_strike_is_trip_even_in_mirror():
    pts = foot_at(heel=(0.30, 0.10), toe=(0.45, 0.08))
    c = contact_check(pts, BOX_SCENE, span_lows(pts, BOX_SCENE), in_mirror=True, downward=True)
    assert c is not None and c.kind == "trip"


def test_contact_ground_heel_strike():
    pts = foot_at(heel=(0.1, -0.001), toe=(0.3, 0.02))
    c = contact_check(pts, BOX_SCENE, span_lows(pts, BOX_SCENE), in_mirror=True, downward=True)
    assert c is not None and c.kind == "landing" and c.surface is Surface.GROUND
    c2 = contact_check(pts, BOX_SCENE, span_lows(pts, BOX_SCENE), in_mirror=False, downward=True)
    assert c2 is not None and c2.kind == "scuff"


def test_contact_airborne_foot_none():
    pts = foot_at(heel=(0.1, 0.2), toe=(0.3, 0.25))
    assert contact_check(pts, BOX_SCENE, span_lows(pts, BOX_SCENE), in_mirror=True, downward=True) is None


def test_level_swing_succeeds_with_toe_clearance():
    cfg = TrialConfig(intent=GaitIntent.LEVEL, seed=1)
    log, res = run_swing(cfg)
    assert res.outcome is Outcome.SUCCESS_LEVEL
    assert res.landing_surface is Surface.GROUND
    # mid-swing toe clearance at least the safety margin
    n = len(log.rows)
    mid = [r.z_t for r in log.rows[n // 4: 3 * n // 4]]
    assert min(mid) >= cfg.planner.delta


def test_step_over_success_land_beyond_box():
    base = TrialConfig(intent=GaitIntent.STEP_OVER, seed=2)
    _, pts = capture_state(base)
    scene = ObstacleScene(boxes=(Box(front_x=pts.toe[0] + 0.4, height=0.16,
                                     depth=0.15, width=0.40),))
    cfg = replace(base, scene=scene)
    log, res = run_swing(cfg)
    assert res.outcome is Outcome.SUCCESS_STEP_OVER
    assert res.landing_x > scene.boxes[0].back_x
    assert res.min_clearance is not None and res.min_clearance > 0.0


def test_step_on_lands_on_top_in_mirror():
    base = TrialConfig(intent=GaitIntent.STEP_ON, seed=3)
    _, pts = capture_state(base)
    scene = ObstacleScene(boxes=(Box(front_x=pts.toe[0] + 0.6, height=0.16,
                                     depth=0.15, width=0.40),))
    log, res = run_swing(replace(base, scene=scene))
    assert res.outcome is Outcome.SUCCESS_STEP_ON
    assert res.landing_surface is Surface.OBSTACLE_TOP
    assert scene.boxes[0].front_x <= res.landing_x <= scene.boxes[0].back_x
    assert log.rows[-1].phase == Phase.THREE_MIRROR.value


def test_raised_ground_swings_like_ground_at_zero():
    # hip and capture pose stand on the scene's ground: at 5 cm the level
    # swing succeeds, and an 8 cm step-over matches the one at 0 m
    _, res = run_swing(TrialConfig(intent=GaitIntent.LEVEL, seed=1,
                                   scene=ObstacleScene(ground_height=0.05)))
    assert res.outcome is Outcome.SUCCESS_LEVEL
    base = TrialConfig(intent=GaitIntent.STEP_OVER, seed=2)
    box = Box(front_x=capture_state(base)[1].toe[0] + 0.4, height=0.08, depth=0.15,
              width=0.40)
    flat, raised = (run_swing(replace(base, scene=ObstacleScene(ground_height=g,
                                                                 boxes=(box,))))[1]
                    for g in (0.0, 0.05))
    assert raised.outcome is flat.outcome is Outcome.SUCCESS_STEP_OVER
    assert raised.peak_knee_flexion == pytest.approx(flat.peak_knee_flexion, abs=1e-9)


def test_landing_always_in_mirror_phase():
    # the controller never commands landing; contact ends the swing while
    # the mirror lock is active
    for intent, seed in ((GaitIntent.LEVEL, 4), (GaitIntent.STEP_OVER, 5)):
        base = TrialConfig(intent=intent, seed=seed)
        if intent is GaitIntent.STEP_OVER:
            _, pts = capture_state(base)
            base = replace(base, scene=ObstacleScene(boxes=(
                Box(front_x=pts.toe[0] + 0.35, height=0.08, depth=0.15, width=0.4),)))
        log, res = run_swing(base)
        assert res.outcome in (Outcome.SUCCESS_LEVEL, Outcome.SUCCESS_STEP_OVER)
        assert log.rows[-1].phase == Phase.THREE_MIRROR.value


def test_steplog_rows_kinematically_consistent():
    cfg = TrialConfig(intent=GaitIntent.LEVEL, seed=6)
    log, _ = run_swing(cfg)
    for r in log.rows[:: max(1, len(log.rows) // 100)]:
        hip = HipPose(x_h=r.x_h, z_h=r.z_h, theta_h=r.theta_h,
                      theta_h_dot=r.theta_h_dot)
        pts = forward_points(cfg.geometry, hip, r.theta_k)
        assert pts.toe[0] == r.x_t and pts.toe[1] == r.z_t
        assert pts.heel[0] == r.x_l and pts.heel[1] == r.z_l


def test_steplog_tick_spacing():
    cfg = TrialConfig(intent=GaitIntent.LEVEL, seed=6)
    log, res = run_swing(cfg)
    ts = [r.t for r in log.rows]
    assert ts[0] == 0.0
    assert np.allclose(np.diff(ts), cfg.planner.dt)
    assert len(log.rows) == pytest.approx(res.swing_duration / cfg.planner.dt, abs=2)


def test_knee_respects_limits():
    base = TrialConfig(intent=GaitIntent.STEP_OVER, seed=7)
    _, pts = capture_state(base)
    scene = ObstacleScene(boxes=(Box(front_x=pts.toe[0] + 0.5, height=0.16,
                                     depth=0.15, width=0.4),))
    log, _ = run_swing(replace(base, scene=scene))
    for r in log.rows:
        assert -1e-12 <= r.theta_k <= base.planner.knee_limit + 1e-12


def test_run_swing_deterministic():
    cfg = TrialConfig(intent=GaitIntent.LEVEL, seed=11)
    log1, res1 = run_swing(cfg)
    log2, res2 = run_swing(cfg)
    assert res1.swing_duration == res2.swing_duration
    assert res1.peak_knee_flexion == res2.peak_knee_flexion
    assert [r.theta_k for r in log1.rows] == [r.theta_k for r in log2.rows]


def test_run_swing_samples_hip_once_per_tick(monkeypatch):
    from swingsim import human_model
    calls = []
    real = human_model.hip_pose

    def counting(params, t, seed=None):
        calls.append(t)
        return real(params, t, seed)

    monkeypatch.setattr(human_model, "hip_pose", counting)
    human_model.hip_track.cache_clear()
    cfg = TrialConfig(intent=GaitIntent.LEVEL, seed=11)
    log, _ = run_swing(cfg)
    # the poses at 0 and dt before the loop, then one look-ahead per tick
    assert len(calls) == len(log.rows) + 2
    assert calls == sorted(set(calls))
    # the hip is open loop: an identical trial reads the same track
    calls.clear()
    again, _ = run_swing(cfg)
    assert calls == []
    assert steplog_text(again) == steplog_text(log)


def steplog_text(log):
    # rows hold NaN (c_t before phase three), so compare them as written
    return [ROW_FORMAT % row for row in log.rows]


def test_run_swing_rows_equal_with_warm_and_cleared_hip_track():
    from swingsim import human_model
    # 1 deg of hip noise, so the track's key carries the trial's noise seed
    human = replace(human_model.preset(GaitIntent.STEP_OVER), noise_sigma=1.0 * DEG)
    base = TrialConfig(intent=GaitIntent.STEP_OVER, human=human, seed=11)
    _, pts = capture_state(base)
    # one trajectory, two swing lengths: a step-over, and a trip on a 0.16 m
    # box at 0.9 m
    long_, short = (replace(base, scene=ObstacleScene(boxes=(
        Box(front_x=pts.toe[0] + d, height=h),))) for d, h in ((0.6, 0.08), (0.9, 0.16)))

    cold = {}
    for cfg in (long_, short):
        human_model.hip_track.cache_clear()
        cold[cfg] = steplog_text(run_swing(cfg)[0])
    assert len(cold[short]) < len(cold[long_])
    # the long swing extends the short one's track; the short one reads a prefix
    for cfg in (long_, short):
        assert steplog_text(run_swing(cfg)[0]) == cold[cfg]


def test_run_swing_evaluates_kinematics_once_per_tick(monkeypatch):
    from swingsim import leg_kinematics, sim_harness, swing_planner
    calls = []
    real = leg_kinematics.forward_points

    def counting(geom, hip, theta_k):
        calls.append(theta_k)
        return real(geom, hip, theta_k)

    # both modules that import forward_points
    for module in (sim_harness, swing_planner):
        monkeypatch.setattr(module, "forward_points", counting)
    base = TrialConfig(intent=GaitIntent.STEP_OVER, seed=11)
    _, pts = capture_state(base)
    scene = ObstacleScene(boxes=(Box(front_x=pts.toe[0] + 0.4, height=0.08),))
    calls.clear()
    log, _ = run_swing(replace(base, scene=scene))
    # the capture pose, the toe-off pose, then the pose after each tick
    assert len(calls) == len(log.rows) + 2


finite_or_not = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300,
                     5e-7, -5e-7, 4.9999995e-7, 0.0000005, 123456789.1234565]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(finite_or_not, min_size=17, max_size=17),
       st.sampled_from([p.value for p in Phase]))
def test_row_format_is_the_fstring_text(values, phase):
    row = LogRow(values[0], phase, *values[1:])
    fstring = ",".join([f"{row.t:.6f}", row.phase] + [f"{v:.6f}" for v in row[2:]]) + "\n"
    assert ROW_FORMAT % row == fstring


def test_perception_fallback_when_no_returns():
    # camera with a tiny range sees nothing: level-ground target applies
    from swingsim.perception import CameraModel
    cam = CameraModel(max_range=0.01)
    cfg = TrialConfig(intent=GaitIntent.LEVEL, seed=1, camera=cam)
    target, kps, flat, toe = perceive(cfg, 1, 2)
    assert kps is None
    assert target.x_c == pytest.approx(0.20)
    assert target.z_m == pytest.approx(toe[1] + cfg.planner.delta)


def test_tracking_lag_robustness():
    # first-order lag up to 20 ms keeps representative trials successful
    base = TrialConfig(intent=GaitIntent.STEP_OVER, seed=8, tracking_lag_tau=0.02)
    _, pts = capture_state(base)
    for d, h in ((0.3, 0.16), (0.55, 0.16), (0.4, 0.08), (0.2, 0.04)):
        scene = ObstacleScene(boxes=(Box(front_x=pts.toe[0] + d, height=h,
                                         depth=0.15, width=0.4),))
        _, res = run_swing(replace(base, scene=scene))
        assert res.outcome is Outcome.SUCCESS_STEP_OVER, (d, h, res.outcome)
    _, res = run_swing(TrialConfig(intent=GaitIntent.LEVEL, seed=8,
                                   tracking_lag_tau=0.02))
    assert res.outcome is Outcome.SUCCESS_LEVEL


def test_campaign_specs_deterministic_and_sized():
    cc = CampaignConfig(seed=99, n_step_over=10, n_step_on=4, n_level=3)
    a = build_trial_specs(cc)
    b = build_trial_specs(cc)
    assert a == b
    assert len(a) == 17
    overs = [s for s in a if s.intent is GaitIntent.STEP_OVER]
    assert all(s.height in cc.heights for s in overs)
    assert all(cc.distance_range[0] <= s.distance <= cc.distance_range[1] for s in overs)
    ons = [s for s in a if s.intent is GaitIntent.STEP_ON]
    assert all(s.height == cc.step_on_height for s in ons)
    assert all(cc.step_on_distance_range[0] <= s.distance <= cc.step_on_distance_range[1]
               for s in ons)


def test_campaign_box_placement_relative_to_capture_toe():
    cc = CampaignConfig(seed=5, n_step_over=1, n_step_on=0, n_level=0)
    spec = build_trial_specs(cc)[0]
    cfg = trial_config_for(cc, spec)
    _, pts = capture_state(cfg)
    assert cfg.scene.boxes[0].front_x == pytest.approx(pts.toe[0] + spec.distance)


def test_mini_campaign_summary_and_determinism():
    cc = CampaignConfig(seed=31, n_step_over=6, n_step_on=2, n_level=2)
    r1 = run_campaign(cc)
    r2 = run_campaign(cc)
    assert summary_json(r1.summary) == summary_json(r2.summary)
    assert r1.summary["overall"]["n"] == 10
    assert set(r1.summary["conditions"]) >= {"level", "step_on_h0.16"}


@pytest.mark.parametrize("data", [
    {}, {"tau_s": 0.02, "box_depth_m": 0.3, "expect_all_success": False}])
def test_summary_campaign_block_parses_back_to_the_campaign(data):
    # summary.json echoes every campaign key, so its block is a campaign file
    cc = parse_campaign(data)
    block = json.loads(summary_json(summarize(cc, [], [])))["campaign"]
    assert parse_campaign(block) == cc


def test_campaign_parallel_matches_serial():
    cc = CampaignConfig(seed=13, n_step_over=4, n_step_on=1, n_level=1)
    serial = run_campaign(cc, jobs=1)
    parallel = run_campaign(cc, jobs=2)
    assert summary_json(serial.summary) == summary_json(parallel.summary)
