"""Metamorphic relations: transformations of a trial that the simulator's
physics says must leave its result unchanged, checked without an oracle
(Chen, Cheung & Yiu, "Metamorphic testing", HKUST-CS98-01, 1998)."""
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from swingsim.config import BOX, PLANNER, ConfigError, parse_scenario
from swingsim.human_model import GaitIntent
from swingsim.leg_kinematics import DEG
from swingsim.perception import Box, CameraModel, ObstacleScene
from swingsim.sim_harness import (
    CampaignConfig,
    TrialConfig,
    build_trial_specs,
    capture_state,
    run_swing,
    trial_config_for,
)
from test_config import SCENARIOS, valid

# m; the relation was measured to hold within 1.1e-14
GROUND_SHIFTS = (-0.13, 0.2, 0.37)
SHIFT_TOL = 1e-12

# Halving the 1 ms tick moved peak flexion by <= 0.60 deg, landing x by
# <= 1.5 mm and the duration by at most a tick over the seed-2024 campaign
# (<= 0.53 deg, 0.86 mm and 0.5 ms on the test's slice).
COARSE_DT, FINE_DT = 0.001, 0.0005
PEAK_TOL = 1.0 * DEG
LANDING_TOL = 0.003  # m


def campaign_slice(per_intent: int = 4) -> list:
    """Evenly spaced trials of the seed-2024 campaign, per_intent per intent."""
    cc = CampaignConfig(seed=2024)
    by_intent = {}
    for spec in build_trial_specs(cc):
        by_intent.setdefault(spec.intent, []).append(spec)
    return [trial_config_for(cc, spec)
            for specs in by_intent.values()
            for spec in specs[::len(specs) // per_intent][:per_intent]]


@pytest.fixture(scope="module")
def flat_trials():
    return [(cfg, run_swing(cfg)[1]) for cfg in campaign_slice()]


@pytest.mark.parametrize("g", GROUND_SHIFTS)
def test_ground_shift_keeps_every_outcome(flat_trials, g):
    # raising the ground raises the hip base, the box tops and the camera
    # with it, so nothing the leg or the planner sees moves relative to it;
    # a campaign on a base at g builds its trials on that ground
    assert len(flat_trials) == 12
    cc = CampaignConfig(seed=2024, base=TrialConfig(scene=ObstacleScene(ground_height=g)))
    specs = {spec.seed: spec for spec in build_trial_specs(cc)}
    for cfg, flat in flat_trials:
        key = (cfg.intent.value, cfg.seed, g)
        shifted_cfg = trial_config_for(cc, specs[cfg.seed])
        assert shifted_cfg.scene == replace(cfg.scene, ground_height=g), key
        _, shifted = run_swing(shifted_cfg)
        assert shifted.outcome is flat.outcome, key
        assert abs(shifted.landing_x - flat.landing_x) <= SHIFT_TOL, key
        assert abs(shifted.peak_knee_flexion - flat.peak_knee_flexion) <= SHIFT_TOL, key
        assert abs(shifted.swing_duration - flat.swing_duration) <= SHIFT_TOL, key


def test_halving_the_tick_keeps_every_outcome():
    # the statement that the 1 kHz result is converged
    trials = campaign_slice(per_intent=10)
    assert len(trials) == 30
    for cfg in trials:
        assert cfg.planner.dt == COARSE_DT
        _, coarse = run_swing(cfg)
        _, fine = run_swing(replace(cfg, planner=replace(cfg.planner, dt=FINE_DT)))
        key = (cfg.intent.value, cfg.seed)
        assert fine.outcome is coarse.outcome, key
        assert abs(fine.peak_knee_flexion - coarse.peak_knee_flexion) <= PEAK_TOL, key
        assert abs(fine.landing_x - coarse.landing_x) <= LANDING_TOL, key
        assert abs(fine.swing_duration - coarse.swing_duration) <= COARSE_DT + 1e-12, key


def test_the_largest_accepted_tick_keeps_the_outcomes_that_flip_above_it():
    # on the 0.25 ms grid from 0.5 to 5 ms, seed-2024 step-overs 103 and 146
    # trip at 1.75, 2.5, 3.25, 3.5, 4.25 and 5 ms and step-over 41 from 3.75 ms;
    # config's dt_s bound must stay below the first of these ticks
    dt_max = next(f for f in PLANNER if f.attr == "dt").hi
    cc = CampaignConfig(seed=2024)
    specs = build_trial_specs(cc)
    for index in (41, 103, 146):
        cfg = trial_config_for(cc, specs[index])
        _, coarse = run_swing(replace(cfg, planner=replace(cfg.planner, dt=dt_max)))
        assert coarse.outcome is run_swing(cfg)[1].outcome, (index, dt_max)


# a box's file rows by key
BOX_ROWS = {f.key: f for f in BOX}
# one or two boxes 0-1 m ahead of the hip, where the default camera sees them
BOXES_IN_VIEW = st.lists(st.fixed_dictionaries(
    {"front_x_m": st.floats(0.0, 1.0), "height_m": valid(BOX_ROWS["height_m"])},
    optional={"depth_m": valid(BOX_ROWS["depth_m"])}), min_size=1, max_size=2)


def with_widths(cfg, widths):
    boxes = tuple(replace(b, width=w) for b, w in zip(cfg.scene.boxes, widths))
    return replace(cfg, scene=replace(cfg.scene, boxes=boxes))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(SCENARIOS, BOXES_IN_VIEW, st.data())
def test_boxes_wider_than_the_corridor_give_the_same_result(scenario, boxes, data):
    # the crop keeps points within corridor_width / 2 of y = 0, and a ray
    # reaches that band only through box faces at least that wide, so a box
    # as wide as the corridor or wider shows the same profile at any width
    scenario.setdefault("scene", {})["boxes"] = boxes
    try:
        cfg = parse_scenario(scenario)
    except ConfigError:
        return
    # a noisy capture draws noise for the rays that hit, so a ray outside
    # the corridor shifts the noise of later returns (the test below)
    cfg = replace(cfg, camera=replace(cfg.camera, depth_noise_sigma=0.0))
    width = st.floats(cfg.corridor_width, BOX_ROWS["width_m"].hi)
    one, other = ([data.draw(width) for _ in boxes] for _ in range(2))
    _, first = run_swing(with_widths(cfg, one))
    _, second = run_swing(with_widths(cfg, other))
    assert first.to_dict() == second.to_dict()


@pytest.mark.xfail(strict=True, reason="capture draws depth noise only for the rays that hit, "
                   "so a lateral ray that hits a wide box and misses a narrow one shifts the "
                   "noise of every in-corridor return after it")
def test_noisy_capture_of_boxes_wider_than_the_corridor_gives_the_same_result():
    base = TrialConfig(intent=GaitIntent.STEP_OVER, camera=CameraModel(
        max_range=0.9, depth_noise_sigma=0.003))
    toe = capture_state(base)[1].toe
    cfg = replace(base, scene=ObstacleScene(boxes=(Box(front_x=toe[0] + 0.4, height=0.16),)))
    narrow, wide = (run_swing(with_widths(cfg, [w]))[1] for w in (cfg.corridor_width, 2.0))
    assert narrow.to_dict() == wide.to_dict()
