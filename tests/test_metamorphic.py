"""Metamorphic relations: transformations of a trial that the simulator's
physics says must leave its result unchanged, checked without an oracle
(Chen, Cheung & Yiu, "Metamorphic testing", HKUST-CS98-01, 1998)."""
from dataclasses import replace

import pytest

from swingsim.sim_harness import CampaignConfig, build_trial_specs, run_swing, trial_config_for

# m; the relation was measured to hold within 1.1e-14
GROUND_SHIFTS = (-0.13, 0.2, 0.37)
SHIFT_TOL = 1e-12


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
    # with it, so nothing the leg or the planner sees moves relative to it
    assert len(flat_trials) == 12
    for cfg, flat in flat_trials:
        _, shifted = run_swing(replace(cfg, scene=replace(cfg.scene, ground_height=g)))
        key = (cfg.intent.value, cfg.seed, g)
        assert shifted.outcome is flat.outcome, key
        assert abs(shifted.landing_x - flat.landing_x) <= SHIFT_TOL, key
        assert abs(shifted.peak_knee_flexion - flat.peak_knee_flexion) <= SHIFT_TOL, key
        assert abs(shifted.swing_duration - flat.swing_duration) <= SHIFT_TOL, key
