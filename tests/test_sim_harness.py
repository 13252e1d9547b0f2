import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracle_utils import contact_check_reference
from test_config import LONG_LEG

from swingsim.config import parse_campaign, parse_scenario
from swingsim.leg_kinematics import DEG, HipPose, FootPoints, forward_points
from swingsim import sim_harness
from swingsim.perception import (
    Box,
    DEFAULT_X_C,
    ControlTarget,
    ObstacleScene,
    control_modify,
    elevation_keypoints,
    extract_estimate,
)
from swingsim.human_model import GaitIntent, HipTrajectoryParams, preset
from swingsim.swing_planner import Phase
from swingsim.sim_harness import (
    ROW_FORMAT,
    CampaignConfig,
    Contact,
    LogRow,
    Outcome,
    SUCCESSES,
    StepLog,
    Surface,
    TrialConfig,
    TrialSpec,
    _classify,
    build_trial_specs,
    capture_state,
    contact_check,
    perceive,
    run_campaign,
    run_swing,
    summarize,
    summary_json,
    trial_config_for,
    trial_seeds,
)


def foot_at(heel, toe, knee=(0.0, 0.8), ankle=(0.0, 0.4)):
    return FootPoints(knee=knee, ankle=ankle, toe=toe, heel=heel)


BOX_SCENE = ObstacleScene(boxes=(Box(front_x=0.4, height=0.16, depth=0.2, width=0.4),))


def test_contact_penetrating_box_top_is_trip_outside_mirror():
    # the whole foot inside the span [0.4, 0.6] and below the 0.16 top, so
    # no face is crossed: the touch comes from the box-top test
    pts = foot_at(heel=(0.45, 0.10), toe=(0.55, 0.12))
    c = contact_check(pts, BOX_SCENE)[0]
    assert c == Contact(Surface.OBSTACLE_TOP, 0.45, 0.10)


def test_step_over_landing_on_a_box_top_is_a_trip():
    pts = foot_at(heel=(0.45, 0.159), toe=(0.58, 0.165))
    c = contact_check(pts, BOX_SCENE)[0]
    assert c.surface is Surface.OBSTACLE_TOP
    cfg = TrialConfig(intent=GaitIntent.STEP_OVER, scene=BOX_SCENE)
    assert _classify(c, True, cfg) == (Outcome.TRIP, 0.45, Surface.OBSTACLE_TOP)
    ground = foot_at(heel=(0.7, -0.001), toe=(0.9, 0.02))
    c = contact_check(ground, BOX_SCENE)[0]
    assert _classify(c, True, cfg) == (Outcome.SUCCESS_STEP_OVER, 0.7, Surface.GROUND)


def test_step_over_landing_on_the_ground_short_of_its_box_is_a_scuff():
    ground = foot_at(heel=(0.1, -0.001), toe=(0.3, 0.02))
    c = contact_check(ground, BOX_SCENE)[0]
    cfg = TrialConfig(intent=GaitIntent.STEP_OVER, scene=BOX_SCENE)
    assert _classify(c, True, cfg) == (Outcome.SCUFF, 0.1, Surface.GROUND)
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
    c = contact_check(pts, BOX_SCENE)[0]
    assert c == Contact(Surface.OBSTACLE_TOP, 0.45, 0.159)


def test_contact_front_face_strike_is_trip_even_in_mirror():
    pts = foot_at(heel=(0.30, 0.10), toe=(0.45, 0.08))
    c = contact_check(pts, BOX_SCENE)[0]
    assert c is not None and c.surface is None and c.x == 0.4


def test_contact_tick_counts_the_clearance_of_every_box():
    # the knee-ankle segment crosses the front face at x = 0.4, z = 0.15,
    # under the 0.16 top, while the heel-toe segment lies over the span 4 cm
    # up: the face touch is returned with that tick's low - top, not without it
    pts = foot_at(heel=(0.45, 0.20), toe=(0.70, 0.22), knee=(0.30, 0.05), ankle=(0.50, 0.25))
    c, clear = contact_check(pts, BOX_SCENE)
    assert c.surface is None and c.x == 0.4
    assert c.z == pytest.approx(0.15) and clear == pytest.approx(0.04)
    # a second box past the first: the pass goes on after the touch, and the
    # heel-toe low over [0.65, 0.75], 0.216 against a 0.19 top, is the least
    two = ObstacleScene(boxes=BOX_SCENE.boxes + (Box(front_x=0.65, height=0.19, depth=0.1),))
    c2, clear2 = contact_check(pts, two)
    assert c2 == c and clear2 == pytest.approx(0.026)
    # a third box between them, 6.3 cm under the foot: the pass goes on past
    # the box after the touch too
    three = ObstacleScene(boxes=two.boxes + (Box(front_x=0.61, height=0.15, depth=0.03),))
    assert contact_check(pts, three) == (c, clear2)


def test_a_tripping_swing_counts_the_clearance_of_its_contact_tick():
    # the trip's own tick holds the swing's least clearance, 0.65 mm into the
    # box top; a contact step that returned before folding it read +0.000653
    _, res = run_swing(parse_scenario({
        "human": {"intent": "level"},
        "scene": {"boxes": [{"front_x_m": 0.3584027770442344, "height_m": 0.1015390758045469,
                             "depth_m": 0.11715519482081167, "width_m": 0.4}]},
        "trial": {"seed": 676431975, "tau_s": 0.0}, "planner": {"kmax": 2.0}}))
    assert res.outcome is Outcome.TRIP
    assert round(res.min_clearance, 6) == -0.000646


def test_contact_ground_heel_strike():
    pts = foot_at(heel=(0.1, -0.001), toe=(0.3, 0.02))
    assert contact_check(pts, BOX_SCENE)[0] == Contact(Surface.GROUND, 0.1, -0.001)


def test_contact_airborne_foot_none():
    pts = foot_at(heel=(0.1, 0.2), toe=(0.3, 0.25))
    assert contact_check(pts, BOX_SCENE)[0] is None


# two boxes on ground raised 5 cm: spans [0.4, 0.6] (top 0.15) and [0.8, 0.9] (top 0.2)
TWO_BOX_SCENE = ObstacleScene(ground_height=0.05, boxes=(
    Box(front_x=0.4, height=0.1, depth=0.2), Box(front_x=0.8, height=0.15, depth=0.1)))
FRONT, BACK = TWO_BOX_SCENE.spans[0][0], TWO_BOX_SCENE.spans[-1][1]
SHORT = dict(knee=(0.0, 0.8), ankle=(0.1, 0.4))
PAST = dict(knee=(1.1, 0.8), ankle=(1.0, 0.4))
EARLY_RETURN_CASES = {
    "toe-on-the-front-face": (TWO_BOX_SCENE, foot_at((0.25, 0.12), (FRONT, 0.1), **SHORT)),
    "toe-an-ulp-short-of-the-front-face": (
        TWO_BOX_SCENE, foot_at((0.25, 0.12), (math.nextafter(FRONT, -1.0), 0.1), **SHORT)),
    "ankle-on-the-front-face": (TWO_BOX_SCENE, foot_at((0.25, 0.12), (0.3, 0.1),
                                                      knee=(0.1, 0.8), ankle=(FRONT, 0.1))),
    "heel-on-the-back-face": (TWO_BOX_SCENE, foot_at((BACK, 0.15), (1.1, 0.2), **PAST)),
    "knee-an-ulp-past-the-back-face": (TWO_BOX_SCENE, foot_at(
        (0.95, 0.15), (1.1, 0.2), knee=(math.nextafter(BACK, 2.0), 0.8), ankle=(1.0, 0.4))),
    "straddling-the-front-face-over-the-top": (
        TWO_BOX_SCENE, foot_at((0.38, 0.31), (0.55, 0.3), knee=(0.3, 0.8), ankle=(0.45, 0.4))),
    "straddling-the-front-face-under-the-top": (
        TWO_BOX_SCENE, foot_at((0.35, 0.1), (0.5, 0.12), knee=(0.3, 0.8), ankle=(0.42, 0.4))),
    "before-the-boxes": (TWO_BOX_SCENE, foot_at((0.05, 0.12), (0.25, 0.1), **SHORT)),
    "between-the-boxes": (TWO_BOX_SCENE, foot_at((0.68, 0.12), (0.75, 0.1),
                                                 knee=(0.65, 0.8), ankle=(0.7, 0.4))),
    "past-the-boxes": (TWO_BOX_SCENE, foot_at((0.95, 0.12), (1.1, 0.1), **PAST)),
    "heel-at-ground-height-before-the-boxes": (
        TWO_BOX_SCENE, foot_at((0.05, 0.05), (0.25, 0.1), **SHORT)),
    "toe-at-ground-height-past-the-boxes": (
        TWO_BOX_SCENE, foot_at((0.95, 0.12), (1.1, 0.05), **PAST)),
    "toe-an-ulp-above-the-ground-past-the-boxes": (
        TWO_BOX_SCENE, foot_at((0.95, 0.12), (1.1, math.nextafter(0.05, 1.0)), **PAST)),
    "toe-at-ground-height-without-boxes": (
        ObstacleScene(ground_height=0.05), foot_at((0.05, 0.12), (0.25, 0.05), **SHORT)),
    "above-the-ground-without-boxes": (
        ObstacleScene(ground_height=0.05), foot_at((0.05, 0.12), (0.25, 0.1), **SHORT)),
}


@pytest.mark.parametrize("scene,pts", EARLY_RETURN_CASES.values(), ids=EARLY_RETURN_CASES)
def test_contact_check_equals_the_full_scan_at_faces_and_ground(scene, pts):
    assert contact_check(pts, scene) == contact_check_reference(pts, scene)


def _ulps(x, k):
    """x moved k ulps (either way)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _near(values):
    """One of the values, or one moved by up to two ulps."""
    return st.builds(_ulps, st.sampled_from(values), st.integers(-2, 2))


@st.composite
def legs_in_scenes(draw):
    """A 0-3 box scene on shifted ground and a leg whose points lie free, on a
    face or the ground, or an ulp or two off them, sometimes clustered so the
    whole leg sits before, between or past the boxes."""
    g = draw(st.floats(-0.3, 0.3))
    boxes, front = [], draw(st.floats(-0.5, 1.0))
    for _ in range(draw(st.integers(0, 3))):
        boxes.append(Box(front_x=front, height=draw(st.floats(0.005, 0.3)),
                         depth=draw(st.floats(0.01, 0.4))))
        front = boxes[-1].back_x + draw(st.just(0.0) | st.floats(0.0, 0.3))
    scene = ObstacleScene(ground_height=g, boxes=tuple(boxes))
    faces = [x for front_x, back_x, _ in scene.spans for x in (front_x, back_x)]
    # faces stay off x = 0, where the full scan's sign test can underflow
    # (test_contact_check_skips_the_full_scans_underflow_at_a_face_at_x_0)
    assume(all(abs(x) > 1e-6 for x in faces))
    center = draw(st.floats(-1.0, 2.0) | _near(faces) if faces else st.floats(-1.0, 2.0))
    spread = draw(st.sampled_from([0.0, 0.02, 0.3]))
    xs = st.floats(center - spread, center + spread)
    xs = xs | _near(faces) if faces else xs
    zs = st.floats(g - 0.1, g + 0.6) | _near([g] + [top for *_, top in scene.spans])
    return scene, FootPoints(*[(draw(xs), draw(zs)) for _ in range(4)])


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(legs_in_scenes())
def test_contact_check_equals_the_full_scan_on_drawn_legs(case):
    scene, pts = case
    assert contact_check(pts, scene) == contact_check_reference(pts, scene)


def test_contact_check_skips_the_full_scans_underflow_at_a_face_at_x_0():
    # the toe lies 5e-324 m short of a face at x = 0: the full scan's sign
    # test (-0.1)(-5e-324) underflows to 0 and it reads a face touch there;
    # the leg is wholly short of the box, and the early return reads none
    scene = ObstacleScene(boxes=(Box(front_x=0.0, height=0.1, depth=0.2),))
    pts = foot_at((-0.1, 0.06), (-5e-324, 0.05), knee=(-0.2, 0.8), ankle=(-0.15, 0.4))
    assert contact_check_reference(pts, scene) == (Contact(None, 0.0, 0.05), None)
    assert contact_check(pts, scene) == (None, None)


def test_contact_check_reads_no_face_touch_for_a_leg_an_underflow_short_of_a_face_at_x_0():
    # between two boxes the early return does not apply; the toe lies
    # 5e-324 m short of the face at x = 0, where the full scan's product
    # (-0.1)(-5e-324) underflows to 0 and reads a touch, and signs do not
    scene = ObstacleScene(boxes=(Box(front_x=-0.5, height=0.1, depth=0.2),
                                 Box(front_x=0.0, height=0.1, depth=0.2)))
    pts = foot_at((-0.1, 0.06), (-5e-324, 0.05), knee=(-0.2, 0.8), ankle=(-0.15, 0.4))
    assert contact_check_reference(pts, scene) == (Contact(None, 0.0, 0.05), None)
    assert contact_check(pts, scene) == (None, None)


def test_classify_rules_on_every_touch_by_intent_and_landing():
    # BOX_SCENE's box spans [0.4, 0.6]; the ground touch lies past it
    face = Contact(None, 0.4, 0.08)
    top = Contact(Surface.OBSTACLE_TOP, 0.45, 0.159)
    ground = Contact(Surface.GROUND, 0.7, -0.001)
    short = Contact(Surface.GROUND, 0.1, -0.001)
    LEVEL, OVER, ON = GaitIntent.LEVEL, GaitIntent.STEP_OVER, GaitIntent.STEP_ON
    table = [
        (LEVEL, face, False, Outcome.TRIP), (LEVEL, face, True, Outcome.TRIP),
        (LEVEL, top, False, Outcome.TRIP), (LEVEL, top, True, Outcome.TRIP),
        (LEVEL, ground, False, Outcome.SCUFF), (LEVEL, ground, True, Outcome.SUCCESS_LEVEL),
        (OVER, face, False, Outcome.TRIP), (OVER, face, True, Outcome.TRIP),
        (OVER, top, False, Outcome.TRIP), (OVER, top, True, Outcome.TRIP),
        (OVER, ground, False, Outcome.SCUFF), (OVER, ground, True, Outcome.SUCCESS_STEP_OVER),
        (ON, face, False, Outcome.TRIP), (ON, face, True, Outcome.TRIP),
        (ON, top, False, Outcome.TRIP), (ON, top, True, Outcome.SUCCESS_STEP_ON),
        (ON, ground, False, Outcome.SCUFF), (ON, ground, True, Outcome.SCUFF),
        # a step-over lands clear only past its box; a level landing anywhere
        (OVER, short, True, Outcome.SCUFF), (LEVEL, short, True, Outcome.SUCCESS_LEVEL),
    ]
    for intent, c, landing, outcome in table:
        cfg = TrialConfig(intent=intent, scene=BOX_SCENE)
        # the touch's x and surface come back as given: a face's surface is None
        assert _classify(c, landing, cfg) == (outcome, c.x, c.surface), (intent, c, landing)
    assert _classify(None, True, TrialConfig()) == (Outcome.TIMEOUT, None, None)


def test_a_step_over_ground_landing_succeeds_only_strictly_past_the_last_box():
    # one ulp short of, exactly at and one ulp past the last back face: only
    # the last succeeds, with one box and with two (between them is short);
    # with no box every ground landing is past them all
    two = ObstacleScene(boxes=(Box(front_x=0.9, height=0.05), *BOX_SCENE.boxes))
    for scene, between in ((BOX_SCENE, ()), (two, ((0.7, Outcome.SCUFF),))):
        back = scene.boxes[-1].back_x
        for x, outcome in ((math.nextafter(back, -math.inf), Outcome.SCUFF),
                           (back, Outcome.SCUFF),
                           (math.nextafter(back, math.inf), Outcome.SUCCESS_STEP_OVER),
                           *between):
            c = Contact(Surface.GROUND, x, -0.001)
            cfg = TrialConfig(intent=GaitIntent.STEP_OVER, scene=scene)
            assert _classify(c, True, cfg) == (outcome, x, Surface.GROUND), (scene, x)
    for x in (-1.0, 0.0, 0.6, 5.0):
        c = Contact(Surface.GROUND, x, -0.001)
        cfg = TrialConfig(intent=GaitIntent.STEP_OVER, scene=ObstacleScene())
        assert _classify(c, True, cfg) == (Outcome.SUCCESS_STEP_OVER, x, Surface.GROUND)


def test_level_swing_succeeds_with_toe_clearance():
    cfg = TrialConfig(intent=GaitIntent.LEVEL, seed=1)
    log, res = run_swing(cfg, StepLog())
    assert res.outcome is Outcome.SUCCESS_LEVEL
    assert res.landing_surface is Surface.GROUND
    # mid-swing toe clearance at least the safety margin
    n = len(log.rows)
    mid = [r.z_t_m for r in log.rows[n // 4: 3 * n // 4]]
    assert min(mid) >= cfg.planner.delta


def test_step_over_success_land_beyond_box():
    base = TrialConfig(intent=GaitIntent.STEP_OVER, seed=2)
    _, pts = capture_state(base)
    scene = ObstacleScene(boxes=(Box(front_x=pts.toe[0] + 0.4, height=0.16,
                                     depth=0.15, width=0.40),))
    cfg = replace(base, scene=scene)
    log, res = run_swing(cfg, StepLog())
    assert res.outcome is Outcome.SUCCESS_STEP_OVER
    assert res.landing_x > scene.boxes[0].back_x
    assert res.min_clearance is not None and res.min_clearance > 0.0


def test_step_on_lands_on_top_in_mirror():
    base = TrialConfig(intent=GaitIntent.STEP_ON, seed=3)
    _, pts = capture_state(base)
    scene = ObstacleScene(boxes=(Box(front_x=pts.toe[0] + 0.6, height=0.16,
                                     depth=0.15, width=0.40),))
    log, res = run_swing(replace(base, scene=scene), StepLog())
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
        log, res = run_swing(base, StepLog())
        assert res.outcome in (Outcome.SUCCESS_LEVEL, Outcome.SUCCESS_STEP_OVER)
        assert log.rows[-1].phase == Phase.THREE_MIRROR.value


def test_a_descending_touch_before_the_mirror_sub_mode_is_no_landing():
    # at k_max 1 the first seed-2024 step-over comes down on the ground past
    # its box, foot moving down, before the planner reaches the mirror
    # sub-mode: a scuff, not a landing
    cc = CampaignConfig(seed=2024)
    cfg = trial_config_for(cc, build_trial_specs(cc)[0])
    log, res = run_swing(replace(cfg, planner=replace(cfg.planner, k_max=1.0)), StepLog())
    last, prev = log.rows[-1], log.rows[-2]
    assert last.phase != Phase.THREE_MIRROR.value
    assert min(last.z_t_m, last.z_l_m) < min(prev.z_t_m, prev.z_l_m)
    assert res.landing_surface is Surface.GROUND and res.landing_x > cfg.scene.spans[-1][1]
    assert res.outcome is Outcome.SCUFF


def test_steplog_rows_kinematically_consistent():
    cfg = TrialConfig(intent=GaitIntent.LEVEL, seed=6)
    log, _ = run_swing(cfg, StepLog())
    for r in log.rows[:: max(1, len(log.rows) // 100)]:
        hip = HipPose(x_h=r.x_h_m, z_h=r.z_h_m, theta_h=r.theta_h_rad,
                      theta_h_dot=r.theta_h_dot_rads)
        pts = forward_points(cfg.geometry, hip, r.theta_k_rad)
        assert pts.toe[0] == r.x_t_m and pts.toe[1] == r.z_t_m
        assert pts.heel[0] == r.x_l_m and pts.heel[1] == r.z_l_m


def test_steplog_tick_spacing():
    cfg = TrialConfig(intent=GaitIntent.LEVEL, seed=6)
    log, res = run_swing(cfg, StepLog())
    ts = [r.t_s for r in log.rows]
    assert ts[0] == 0.0
    assert np.allclose(np.diff(ts), cfg.planner.dt)
    assert len(log.rows) == pytest.approx(res.swing_duration / cfg.planner.dt, abs=2)


def test_knee_respects_limits():
    base = TrialConfig(intent=GaitIntent.STEP_OVER, seed=7)
    _, pts = capture_state(base)
    scene = ObstacleScene(boxes=(Box(front_x=pts.toe[0] + 0.5, height=0.16,
                                     depth=0.15, width=0.4),))
    log, _ = run_swing(replace(base, scene=scene), StepLog())
    for r in log.rows:
        assert -1e-12 <= r.theta_k_rad <= base.planner.knee_limit + 1e-12


def test_run_swing_deterministic():
    cfg = TrialConfig(intent=GaitIntent.LEVEL, seed=11)
    log1, res1 = run_swing(cfg, StepLog())
    log2, res2 = run_swing(cfg, StepLog())
    assert res1.swing_duration == res2.swing_duration
    assert res1.peak_knee_flexion == res2.peak_knee_flexion
    assert [r.theta_k_rad for r in log1.rows] == [r.theta_k_rad for r in log2.rows]


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
    log, _ = run_swing(cfg, StepLog())
    # one call over every tick time to one past the horizon, each time once
    [times] = calls
    assert len(times) > len(log.rows) + 1
    assert np.all(np.diff(times) > 0.0)
    assert times[:len(log.rows)].tolist() == [row[0] for row in log.rows]
    # the hip is open loop: an identical trial reads the same track
    calls.clear()
    again, _ = run_swing(TrialConfig(intent=GaitIntent.LEVEL, seed=11), StepLog())
    assert calls == []
    assert steplog_text(again) == steplog_text(log)


def test_a_trial_resolves_its_hip_once(monkeypatch):
    # the trial's construction, capture_state and run_swing read one
    # TrialConfig's resolved_human: a step-on validates its raised preset and
    # its aim, a step-over its raised preset, and a second swing on the
    # config nothing
    built = []
    real = HipTrajectoryParams.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(HipTrajectoryParams, "__post_init__", counting)
    cc = CampaignConfig()
    for intent, height, validations in ((GaitIntent.STEP_ON, 0.16, 2),
                                        (GaitIntent.STEP_OVER, 0.08, 1)):
        built.clear()
        cfg = trial_config_for(cc, TrialSpec(0, intent, height, 0.6, 3))
        _, result = run_swing(cfg)
        assert result.outcome in SUCCESSES
        assert len(built) == validations
        assert built[-1] is cfg.resolved_human
        run_swing(cfg)
        assert len(built) == validations


@pytest.mark.parametrize("field,value,says", [
    ("n_step_over", -5, "be an int >= 0"),
    ("n_level", 2.0, "be an int >= 0"),
    ("seed", True, "be an int >= 0"),
    ("heights", (), "be a non-empty tuple of positive, finite numbers"),
    ("heights", (0.04, math.nan), "be a non-empty tuple of positive, finite numbers"),
    ("step_on_height", 0.0, "be positive and finite"),
    ("distance_range", (0.7, 0.15), "be an ordered pair of finite numbers"),
    ("step_on_distance_range", (0.5, math.inf), "be an ordered pair of finite numbers"),
    ("box_width", -0.4, "be positive and finite"),
])
def test_campaign_refuses_a_count_height_or_range_no_campaign_could_run(field, value, says):
    # run_campaign ended n_step_over=-5 in numpy's OverflowError, heights=()
    # in "a cannot be empty", and a reversed range in "high - low < 0"
    with pytest.raises(ValueError, match=f"^CampaignConfig.{field} must {says}, got "):
        CampaignConfig(**{field: value})


def test_noisy_trials_built_before_they_run_sample_each_track_once(monkeypatch):
    from swingsim import human_model
    calls = []
    real = human_model.hip_pose

    def counting(params, t, seed=None):
        calls.append(seed)
        return real(params, t, seed)

    monkeypatch.setattr(human_model, "hip_pose", counting)
    human = replace(human_model.preset(GaitIntent.STEP_OVER), noise_sigma=5.0 * DEG)
    # more noisy trials than the cache holds, all built first, then run. Seed
    # 3's toe-off foot starts in the ground: its trial samples its track and
    # is refused
    cfgs = []
    for seed in range(10):
        try:
            cfgs.append(TrialConfig(intent=GaitIntent.STEP_OVER, human=human, seed=seed))
        except ValueError:
            assert seed == 3
    assert len(cfgs) == 9
    for cfg in cfgs:
        run_swing(cfg)
    assert sorted(calls) == sorted(trial_seeds(seed)[2] for seed in range(10))


@pytest.mark.parametrize("intent,boxes", [
    (GaitIntent.LEVEL, ()),
    (GaitIntent.STEP_ON, (Box(front_x=0.8, height=0.16),)),
], ids=["level", "aimed-step-on"])
def test_a_trial_pickles_to_its_fields_alone_after_it_has_run(intent, boxes):
    # run_campaign(jobs > 1) pickles cc.base into every pool chunk: a trial's
    # resolved hip and its track stay out of it
    import pickle
    from dataclasses import fields
    cfg = TrialConfig(intent=intent, scene=ObstacleScene(boxes=boxes), seed=4)
    run_swing(cfg)
    blob = pickle.dumps(cfg)
    # as many bytes as a copy that has not run, though the trial keeps its track
    assert len(blob) == len(pickle.dumps(replace(cfg)))
    assert "hip_track" in vars(cfg)
    copy = pickle.loads(blob)
    assert copy == cfg
    assert set(vars(copy)) == {f.name for f in fields(TrialConfig)}
    assert run_swing(copy)[1] == run_swing(cfg)[1]


@pytest.mark.parametrize("intent,boxes", [
    (GaitIntent.LEVEL, ()),
    (GaitIntent.STEP_ON, (Box(front_x=0.8, height=0.16),)),
], ids=["level", "aimed-step-on"])
def test_a_scene_a_swing_has_read_pickles_to_the_bytes_of_a_fresh_one(intent, boxes):
    # its cached spans and x_extent were pickled too: a level trial on the
    # default scene read 998 bytes after its swing and 958 before
    import pickle
    cfg = TrialConfig(intent=intent, scene=ObstacleScene(ground_height=0.01, boxes=boxes), seed=4)
    run_swing(cfg)
    assert {"spans", "x_extent"} <= set(vars(cfg.scene))
    fresh = ObstacleScene(ground_height=0.01, boxes=boxes)
    assert pickle.dumps(cfg.scene) == pickle.dumps(fresh)
    assert pickle.dumps(cfg) == pickle.dumps(replace(cfg, scene=fresh))
    copy = pickle.loads(pickle.dumps(cfg.scene))
    assert copy == fresh and copy.spans == cfg.scene.spans


def steplog_text(log):
    # rows hold NaN (c_t before phase three), so compare them as written
    return [ROW_FORMAT % row for row in log.rows]


def test_run_swing_rows_equal_with_warm_and_cleared_hip_track():
    from swingsim import human_model
    # the step-over preset, whose track the cache shares between trials
    base = TrialConfig(intent=GaitIntent.STEP_OVER, seed=11)
    _, pts = capture_state(base)
    # one trajectory, two swing lengths: a step-over, and a trip on a 0.16 m
    # box at 0.9 m; each built, and so its track read, on a cleared cache
    cold = {}
    for d, h in ((0.6, 0.08), (0.9, 0.16)):
        human_model.hip_track.cache_clear()
        cfg = replace(base, scene=ObstacleScene(boxes=(Box(front_x=pts.toe[0] + d, height=h),)))
        cold[cfg] = steplog_text(run_swing(cfg, StepLog())[0])
    long_, short = cold
    assert len(cold[short]) < len(cold[long_])
    # both read the one track, whichever swing built it: a fresh trial takes
    # its track from the cache
    info = human_model.hip_track.cache_info()
    for cfg in (long_, short):
        assert steplog_text(run_swing(replace(cfg), StepLog())[0]) == cold[cfg]
    assert human_model.hip_track.cache_info().hits == info.hits + 2


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
    log, _ = run_swing(replace(base, scene=scene), StepLog())
    # the capture pose, the toe-off pose, then the pose after each tick
    assert len(calls) == len(log.rows) + 2


def test_campaign_builds_no_step_log(monkeypatch):
    from swingsim import sim_harness
    built = [0]
    real = sim_harness.LogRow

    def counting(*fields):
        built[0] += 1
        return real(*fields)

    monkeypatch.setattr(sim_harness, "LogRow", counting)
    cc = CampaignConfig(seed=5, n_step_over=2, n_step_on=1, n_level=1,
                        expect_all_success=False)
    res = run_campaign(cc)
    assert {s.intent for s in res.specs} == set(GaitIntent)
    assert built[0] == 0
    cfg = trial_config_for(cc, res.specs[0])
    log, _ = run_swing(cfg)
    assert log is None and built[0] == 0
    # the log packs its ticks, and rows asked for are built through the same name
    log, _ = run_swing(cfg, StepLog())
    assert built[0] == 0
    rows = log.rows
    assert built[0] == len(rows) > 0


def test_step_log_rows_hold_what_each_tick_saw_and_commanded(monkeypatch):
    # row i is tick i's time, phase after the planner, hip, knee before the
    # integration, foot, target and command; a lagged step-over, so the
    # knee's actual rate is not its command
    seen = []
    real = sim_harness.planner_step

    def recording(geom, hip, joint, pts, target, state, params):
        cmd = real(geom, hip, joint, pts, target, state, params)
        seen.append((hip, joint.theta_k, joint.theta_k_dot, pts, target, cmd, state.phase.value))
        return cmd

    monkeypatch.setattr(sim_harness, "planner_step", recording)
    cc = CampaignConfig(seed=2024)
    spec = next(s for s in build_trial_specs(cc) if s.intent is GaitIntent.STEP_OVER)
    cfg = replace(trial_config_for(cc, spec), tracking_lag_tau=0.02)
    log, result = run_swing(cfg, StepLog())
    assert result.outcome is Outcome.SUCCESS_STEP_OVER
    t, expected = 0.0, []
    for hip, theta_k, theta_k_dot, pts, target, cmd, phase in seen:
        expected.append(LogRow(
            t, phase, hip.theta_h, hip.theta_h_dot, theta_k, cmd.knee_vel_cmd, theta_k_dot,
            hip.x_h, hip.z_h, *pts.toe, *pts.heel, target.z_m, target.x_c, cmd.slope, cmd.c_t,
            cmd.gamma_1))
        t += cfg.planner.dt
    assert {row.phase for row in expected} >= {Phase.ONE.value, Phase.THREE_MIRROR.value}
    # repr tells every float apart but NaN's payload, which == cannot compare
    assert list(map(repr, log.rows)) == list(map(repr, expected))


def packed_log(rows) -> StepLog:
    """A StepLog holding rows, each packed as run_swing appends a tick."""
    log = StepLog()
    for row in rows:
        log.buf += sim_harness._ROW.pack(row[0], sim_harness._PHASE_INDEX[row[1]], *row[2:])
    return log


def test_step_log_rows_give_back_every_value_bit_for_bit():
    # NaN of either sign and with a payload, -0.0, +-inf, subnormals, and
    # numpy floats, each with its own row's phase
    bits = struct.Struct("<d")
    payload_nan = bits.unpack(bytes.fromhex("0100000000f8ff7f"))[0]
    special = [math.nan, -math.nan, payload_nan, -0.0, 0.0, math.inf, -math.inf, 5e-324,
               -5e-324, 2.2250738585072009e-308, np.float64(-1.5e-310), np.float64(0.1),
               np.nextafter(1.0, 2.0), 1e300, -123.456, 7.0, np.float64(math.nan)]
    rows = [LogRow(special[i % 17], phase, *(special[(i + j) % 17] for j in range(1, 17)))
            for i, phase in enumerate([p.value for p in Phase] * 4)]
    back = packed_log(rows).rows
    assert [row.phase for row in back] == [row.phase for row in rows]
    for row, got in zip(rows, back):
        assert type(got) is LogRow
        assert [bits.pack(v) for v in row[:1] + row[2:]] == [bits.pack(v) for v in got[:1] + got[2:]]
    # a logged swing's rows read back the same way
    log, _ = run_swing(TrialConfig(intent=GaitIntent.LEVEL, seed=4), StepLog())
    assert list(map(repr, packed_log(log.rows).rows)) == list(map(repr, log.rows))


@pytest.mark.parametrize("tau", [0.0, 0.02])
def test_step_log_only_observes(tau):
    # one seed-2024 campaign trial per intent, with ideal and lagged tracking
    cc = CampaignConfig(seed=2024)
    first = {}
    for spec in build_trial_specs(cc):
        first.setdefault(spec.intent, spec)
    assert set(first) == set(GaitIntent)
    for spec in first.values():
        cfg = replace(trial_config_for(cc, spec), tracking_lag_tau=tau)
        none, bare = run_swing(cfg)
        log, logged = run_swing(cfg, StepLog())
        assert none is None
        assert logged == bare, spec
        assert len(log.rows) == round(bare.swing_duration / cfg.planner.dt)


finite_or_not = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300,
                     5e-7, -5e-7, 4.9999995e-7, 0.0000005, 123456789.1234565]),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(finite_or_not, min_size=17, max_size=17),
       st.sampled_from([p.value for p in Phase]))
def test_row_format_is_the_fstring_text(values, phase):
    row = LogRow(values[0], phase, *values[1:])
    fstring = ",".join([f"{row.t_s:.6f}", row.phase] + [f"{v:.6f}" for v in row[2:]]) + "\n"
    assert ROW_FORMAT % row == fstring


# (k + 0.5) 1e-6 lies within an ulp or two of a rounding tie of "%.6f"
near_tie = st.builds(lambda k: (k + 0.5) * 1e-6, st.integers(-999_999_998, 999_999_998))
tame = st.one_of(
    st.floats(-999.999999, 999.999999),
    st.floats(-30.0, 30.0).map(np.float64),
    near_tie,
    st.builds(np.nextafter, near_tie, st.sampled_from([-math.inf, math.inf])),
    st.sampled_from([0.0, -0.0, -1e-9, 1e-9, math.nan]),
)
# 999.9999995, a near-tie, rounds down to the largest |v| the numpy pass formats;
# plain rint would round it up and hand its whole pass to ROW_FORMAT
edge = st.one_of(tame, st.sampled_from([999.9999995, -999.9999995]))
wild = st.one_of(edge, st.floats(), st.sampled_from([math.inf, -math.inf, 1e300]))


@settings(max_examples=45, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([tame, edge, wild]).flatmap(lambda values: st.lists(
    st.tuples(st.sampled_from([p.value for p in Phase]),
              st.lists(values, min_size=17, max_size=17)), min_size=1, max_size=50)))
def test_write_csv_writes_row_format_text(tmp_path_factory, draws):
    # the vectorized writer against ROW_FORMAT: near-ties, -0.0 and -1e-9
    # (both "-0.000000"), NaN, and rows it must hand to ROW_FORMAT; six
    # copies make logs of up to 300 rows, past write_csv's 256-row passes
    rows = [LogRow(values[0], phase, *values[1:]) for phase, values in draws] * 6
    path = tmp_path_factory.getbasetemp() / "steplog.csv"
    packed_log(rows).write_csv(path)
    expected = ",".join(sim_harness.LOG_COLUMNS) + "\n" + "".join(ROW_FORMAT % r for r in rows)
    assert path.read_bytes() == expected.encode()


def test_perception_fallback_when_no_returns():
    # camera with a tiny range sees nothing: level-ground target applies
    from swingsim.perception import CameraModel
    cam = CameraModel(max_range=0.01)
    cfg = TrialConfig(intent=GaitIntent.LEVEL, seed=1, camera=cam)
    target, kps, flat, toe = perceive(cfg, 1, 2)
    assert kps is None
    assert target.x_c == pytest.approx(0.20)
    assert target.z_m == pytest.approx(toe[1] + cfg.planner.delta)


def clustered_target(cfg, flat, toe, seed_kmeans):
    """The target k-means gives the profile flat, which perceive does not cluster."""
    kps = elevation_keypoints(flat, k=cfg.kmeans_k, seed=seed_kmeans,
                              restarts=cfg.kmeans_restarts, z_weight=cfg.z_weight)
    est = extract_estimate(kps, toe, edge_threshold=cfg.edge_threshold)
    return control_modify(est, z_t=toe[1], delta=cfg.planner.delta)


def test_perceive_skips_kmeans_on_a_level_campaign_scene_with_the_same_target():
    cc = CampaignConfig(seed=2024)
    spec = next(s for s in build_trial_specs(cc) if s.intent is GaitIntent.LEVEL)
    cfg = trial_config_for(cc, spec)
    seeds = trial_seeds(cfg.seed)[:2]
    target, kps, flat, toe = perceive(cfg, *seeds)
    assert kps is None
    assert len(flat) > cfg.kmeans_k and flat[:, 1].max() < toe[1]
    assert target == clustered_target(cfg, flat, toe, seeds[1])
    assert target == ControlTarget(z_m=toe[1] + cfg.planner.delta, x_c=DEFAULT_X_C)


LEVEL_TOE = capture_state(TrialConfig())[1].toe


@st.composite
def profiles_below_the_toe(draw):
    """Points in perceive's window ahead of the default capture toe, each
    lower than it by more than LEVEL_PROFILE_MARGIN, and a k. Up to 120
    points lie one to four ulps under that bound, where a cluster mean most
    often rounds up past it; up to 20 lie anywhere in the 0.3 m below it."""
    x_t, z_t = LEVEL_TOE
    bound = z_t - sim_harness.LEVEL_PROFILE_MARGIN
    near = float(bound - draw(st.integers(1, 4)) * np.spacing(bound))
    low = st.one_of(st.floats(bound - 0.3, bound, exclude_max=True),
                    st.integers(1, 6).map(lambda i: bound - i * 0.05))
    x = st.one_of(st.floats(x_t, x_t + sim_harness.PROFILE_AHEAD_CAP),
                  st.integers(0, 9).map(lambda i: x_t + i * 0.1))
    n = draw(st.integers(1, 120))
    pts = [(xi, near) for xi in draw(st.lists(x, min_size=n, max_size=n))]
    pts += draw(st.lists(st.tuples(x, low), max_size=20))
    return pts, draw(st.one_of(st.integers(1, 12), st.integers(1, len(pts) + 1)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(profiles_below_the_toe(), st.integers(1, 8), st.floats(0.1, 50.0),
       st.floats(0.001, 0.2), st.integers(0, 2**32 - 1))
def test_clustering_a_profile_below_the_toe_gives_the_level_target(case, restarts, z_weight,
                                                                   edge, seed):
    profile, k = case
    cfg = TrialConfig(kmeans_k=k, kmeans_restarts=restarts, z_weight=z_weight,
                      edge_threshold=edge)
    cloud = np.array([(x, 0.0, z) for x, z in profile])
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sim_harness, "capture", lambda *args: cloud)
        target, kps, flat, toe = perceive(cfg, 0, seed)
    assert kps is None and len(flat) == len(profile)
    assert clustered_target(cfg, flat, toe, seed) == target


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


def test_trial_spec_draws_are_pinned_on_a_non_default_campaign():
    # choice then uniform per step-over, uniform per step-on, no draw per
    # level trial; per-trial seeds from the master SeedSequence's children
    cc = CampaignConfig(seed=6, n_step_over=4, n_step_on=3, n_level=2, heights=(0.05, 0.12),
                        step_on_height=0.10, distance_range=(0.2, 0.6),
                        step_on_distance_range=(0.45, 0.65))
    expected = [
        ("STEP_OVER", 0.05, 0.27987906688551983, 4186225163),
        ("STEP_OVER", 0.12, 0.5508531481463719, 103425314),
        ("STEP_OVER", 0.12, 0.4922415206019045, 3709245926),
        ("STEP_OVER", 0.05, 0.497932838610003, 3910125565),
        ("STEP_ON", 0.1, 0.5567574700273916, 2252857153),
        ("STEP_ON", 0.1, 0.4894633707373206, 3808686105),
        ("STEP_ON", 0.1, 0.5243988130982755, 68179006),
        ("LEVEL", None, None, 2018130635),
        ("LEVEL", None, None, 1802169776),
    ]
    assert build_trial_specs(cc) == [
        sim_harness.TrialSpec(i, GaitIntent[intent], h, d, seed)
        for i, (intent, h, d, seed) in enumerate(expected)]


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


def test_parsing_a_campaign_caches_only_the_level_preset():
    # its range check builds the base trial with each range's first box: on the
    # default base, the level preset, whose track the cache shares; no aimed
    # step-on is built, and neither the step-over nor the step-on preset read
    from swingsim import human_model
    human_model.hip_track.cache_clear()
    parse_campaign({})
    info = human_model.hip_track.cache_info()
    assert (info.hits, info.misses, info.currsize) == (3, 1, 1)
    TrialConfig(intent=GaitIntent.LEVEL)   # reads the level preset's track
    info = human_model.hip_track.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 1, 1)


def test_building_a_campaign_on_a_warm_cache_builds_no_hip_track(monkeypatch):
    # the step-on range check once built the aimed step-on's own 1,282-pose
    # track and dropped it, on every construction
    from swingsim import human_model
    CampaignConfig()
    built = []
    build = human_model.build_hip_track

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(human_model, "build_hip_track", counting)
    CampaignConfig()
    assert built == []


@pytest.mark.parametrize("base", [
    TrialConfig(),
    TrialConfig(scene=ObstacleScene(ground_height=0.05)),
    TrialConfig(human=replace(preset(GaitIntent.LEVEL), theta_h_start=-20.0 * DEG)),
    TrialConfig(human=replace(preset(GaitIntent.LEVEL), noise_sigma=0.5 * DEG), seed=3),
    TrialConfig(human=replace(preset(GaitIntent.LEVEL), noise_sigma=0.5 * DEG), seed=11),
], ids=["default", "ground-0.05", "theta-h-start-20", "noisy-seed-3", "noisy-seed-11"])
def test_every_intent_starts_from_the_base_trials_foot(base):
    # CampaignConfig's range check builds the base trial alone, with the base's
    # intent, for every range: it holds while the presets share their start and
    # a step-on's aim moves no pose at t = 0
    cc = CampaignConfig(n_step_over=0, n_step_on=0, n_level=1, base=base)
    for height, distance in ((None, None), (0.16, 0.5)):
        for intent in GaitIntent:
            cfg = trial_config_for(cc, TrialSpec(0, intent, height, distance, base.seed))
            assert cfg._aimed == (intent is GaitIntent.STEP_ON and height is not None)
            assert cfg.toe_off == base.toe_off, (intent, height)


def test_a_hip_whose_lowest_point_reaches_the_ground_is_refused():
    # the level preset lowers the hip 0.10 m: from a 0.1 m base it ends at
    # z = 0, where HipPose refused it only once the swing sampled it
    human = replace(preset(GaitIntent.LEVEL), hip_height_base=0.1)
    with pytest.raises(ValueError, match=r"^the hip's lowest point, .* got 0\.0 m$"):
        TrialConfig(human=human)


def test_a_campaign_of_no_trials_is_refused():
    # it ran nothing, and its summary divided 0 successes by 0 trials
    with pytest.raises(ValueError, match="^n_step_over, n_step_on and n_level are all 0; "):
        CampaignConfig(n_step_over=0, n_step_on=0, n_level=0)


def test_a_campaign_on_a_noisy_hip_refuses_the_trial_whose_own_start_is_in_contact(
        monkeypatch):
    # each trial's noise moves its toe-off foot, so a range check at one seed
    # alone let trial 10, whose foot starts in the ground, raise mid-campaign
    from swingsim import human_model

    def no_trial(cfg, log=None):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(sim_harness, "run_swing", no_trial)
    human = replace(human_model.preset(GaitIntent.STEP_OVER), noise_sigma=5.0 * DEG)
    base = TrialConfig(intent=GaitIntent.STEP_OVER, human=human)
    with pytest.raises(ValueError, match=r"^trial 10: the toe-off foot already touches the "
                                         r"scene \(GROUND at x = -0.0483 m"):
        CampaignConfig(n_step_over=30, n_step_on=0, n_level=0, base=base)


@pytest.mark.parametrize("build,says", [
    (lambda: CampaignConfig(base=TrialConfig(geometry=LONG_LEG)),
     r"the toe-off foot already touches the scene \(GROUND at x = -0.1552 m, z = -0.0365 m\)$"),
    (lambda: CampaignConfig(n_step_on=0, distance_range=(0.0, 0.7), heights=(0.16,)),
     r"a 0.16 m box at 0 m touches the toe-off foot \(a box face at x = "),
    (lambda: CampaignConfig(step_on_distance_range=(0.063, 0.7)),
     r"a 0.16 m box at 0.063 m touches the toe-off foot \("),
], ids=["long-leg-base", "step-over-range", "step-on-range"])
def test_a_library_campaign_whose_swings_start_in_contact_raises_before_any_trial_runs(
        monkeypatch, build, says):
    # the 0.46/0.45 m leg with a 0.17 m toe ran 0/210, every swing a SCUFF
    # at t = 1 ms; a range's first box under the foot TRIPped at t = 1 ms
    def no_trial(cfg, log=None):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(sim_harness, "run_swing", no_trial)
    with pytest.raises(ValueError, match="^" + says):
        run_campaign(build())


@pytest.mark.parametrize("data", [
    {}, {"tau_s": 0.02, "box_depth_m": 0.3, "expect_all_success": False}])
def test_summary_campaign_block_parses_back_to_the_campaign(data):
    # summary.json echoes every campaign key, so its block is a campaign file
    cc = parse_campaign(data)
    spec = build_trial_specs(cc)[0]
    _, result = run_swing(trial_config_for(cc, spec))
    block = json.loads(summary_json(summarize(cc, [spec], [result])))["campaign"]
    assert parse_campaign(block) == cc


def test_campaign_parallel_matches_serial():
    cc = CampaignConfig(seed=13, n_step_over=4, n_step_on=1, n_level=1)
    serial = run_campaign(cc, jobs=1)
    parallel = run_campaign(cc, jobs=2)
    assert summary_json(serial.summary) == summary_json(parallel.summary)


def test_distinct_heights_get_distinct_conditions():
    # at two decimals both heights read 0.04 and once shared one condition
    cc = CampaignConfig(seed=2024, n_step_over=6, n_step_on=0, n_level=0,
                        heights=(0.041, 0.044), expect_all_success=False)
    res = run_campaign(cc)
    drawn = {}
    for spec in res.specs:
        drawn[spec.height] = drawn.get(spec.height, 0) + 1
    assert set(drawn) == {0.041, 0.044}
    conditions = res.summary["conditions"]
    assert {key: c["n"] for key, c in conditions.items()} == {
        f"step_over_h{h!r}": n for h, n in drawn.items()}
    # heights that two decimals give exactly keep their keys
    keys = {sim_harness._condition_key(s) for s in build_trial_specs(CampaignConfig())}
    assert keys == {"level", "step_on_h0.16", "step_over_h0.04", "step_over_h0.08",
                    "step_over_h0.16"}
