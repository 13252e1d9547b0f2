import math
from dataclasses import replace

import numpy as np
import pytest

from swingsim.leg_kinematics import DEG
from swingsim.human_model import (
    GaitIntent,
    HipTrajectoryParams,
    aim_step_on_progression,
    hip_pose,
    preset,
)
from swingsim.sim_harness import TIMEOUT_FACTOR


def test_preset_swing_durations_match_reported_averages():
    assert preset(GaitIntent.LEVEL).swing_duration == pytest.approx(0.61)
    assert preset(GaitIntent.STEP_ON).swing_duration == pytest.approx(0.64)
    assert preset(GaitIntent.STEP_OVER).swing_duration == pytest.approx(0.81)


def test_preset_ordering_properties():
    over = preset(GaitIntent.STEP_OVER)
    on = preset(GaitIntent.STEP_ON)
    level = preset(GaitIntent.LEVEL)
    assert over.swing_duration > on.swing_duration >= level.swing_duration
    # step-on progression strictly less than step-over over the whole horizon
    horizon = 1.5 * over.swing_duration
    x_on = hip_pose(on, 1.5 * on.swing_duration).x_h
    x_over = hip_pose(over, horizon).x_h
    assert x_on < x_over


def test_start_boundary_conditions():
    for intent in GaitIntent:
        p = preset(intent)
        pose = hip_pose(p, 0.0)
        assert pose.theta_h == pytest.approx(p.theta_h_start)
        assert pose.x_h == 0.0
        assert pose.z_h == pytest.approx(p.hip_height_base)


def test_theta_h_rate_nonnegative_during_rise():
    # the rise segment ends at the earlier of rise completion and the
    # lowering/extension onset (the step-over cue starts inside the rise)
    for intent in GaitIntent:
        p = preset(intent)
        t_rise = min(p.rise_fraction, p.lowering_onset_fraction) * p.swing_duration
        for t in np.linspace(0, t_rise, 50):
            assert hip_pose(p, float(t)).theta_h_dot >= -1e-12


def test_progression_stops_for_step_on_preset():
    p = preset(GaitIntent.STEP_ON)
    t_stop = p.progression_stop_fraction * p.swing_duration
    ramp = 0.08
    x_settled = hip_pose(p, t_stop + ramp).x_h
    for t in np.linspace(t_stop + ramp, 2 * p.swing_duration, 20):
        assert hip_pose(p, float(t)).x_h == pytest.approx(x_settled, abs=1e-12)


def test_c1_continuity_at_1khz():
    # finite-difference velocity agrees with the reported rate, and velocity
    # steps between ticks stay bounded (no jumps)
    dt = 0.001
    for intent in GaitIntent:
        p = preset(intent)
        ts = np.arange(0.0, 1.9 * p.swing_duration, dt)
        poses = [hip_pose(p, float(t)) for t in ts]
        for a, b in zip(poses, poses[1:]):
            fd = (b.theta_h - a.theta_h) / dt
            assert abs(fd - 0.5 * (a.theta_h_dot + b.theta_h_dot)) < 0.02
            assert abs(b.theta_h_dot - a.theta_h_dot) < 0.05  # <= ~50 rad/s^2
            assert abs(b.x_h - a.x_h) <= p.forward_speed * dt + 1e-12
        zs = np.array([q.z_h for q in poses])
        assert np.all(np.abs(np.diff(zs)) < 0.004)


def test_hip_height_profile_lift_and_lowering():
    p = preset(GaitIntent.STEP_OVER)
    T = p.swing_duration
    peak = hip_pose(p, p.lift_peak_fraction * T).z_h
    assert peak == pytest.approx(p.hip_height_base + p.hip_lift_amplitude, abs=1e-9)
    late = hip_pose(p, 1.8 * T).z_h
    assert late == pytest.approx(p.hip_height_base - p.lowering_depth, abs=2e-3)
    # the default shape is the sin^2 arch over the nominal swing
    q = preset(GaitIntent.LEVEL)
    assert q.lift_peak_fraction == 0.5
    assert hip_pose(q, q.swing_duration / 2).z_h == pytest.approx(
        q.hip_height_base + q.hip_lift_amplitude, abs=1e-9)


def test_noise_smooth_and_seeded():
    p = HipTrajectoryParams(swing_duration=0.6, noise_sigma=1.0 * DEG)
    a = [hip_pose(p, t, seed=5).theta_h for t in np.arange(0, 0.6, 0.001)]
    b = [hip_pose(p, t, seed=5).theta_h for t in np.arange(0, 0.6, 0.001)]
    c = [hip_pose(p, t, seed=6).theta_h for t in np.arange(0, 0.6, 0.001)]
    assert a == b
    assert a != c
    diffs = np.abs(np.diff(a))
    assert diffs.max() < 0.01  # smooth, not white


def test_noise_is_two_sinusoids_drawn_from_the_seed():
    p = HipTrajectoryParams(swing_duration=0.6, noise_sigma=1.0 * DEG)
    quiet = replace(p, noise_sigma=0.0)
    for seed in (5, 6, 5):
        rng = np.random.default_rng(seed)
        a1, a2 = rng.normal(0.0, p.noise_sigma, 2)
        p1, p2 = rng.uniform(0.0, 2.0 * math.pi, 2)
        w1, w2 = 2.0 * math.pi * 2.0, 2.0 * math.pi * 4.5
        for t in (0.0, 0.123, 0.6, 1.1):
            noise = a1 * math.sin(w1 * t + p1) + a2 * math.sin(w2 * t + p2)
            assert hip_pose(p, t, seed=seed).theta_h == hip_pose(quiet, t).theta_h + noise


def test_sample_horizon():
    # hip samples stay valid poses (HipPose checks z_h > 0, |theta_h| < 90
    # deg) with finite values out to the horizon the harness runs to
    for intent in GaitIntent:
        p = preset(intent)
        for t in np.linspace(0.0, TIMEOUT_FACTOR * p.swing_duration, 200):
            pose = hip_pose(p, t)
            assert all(math.isfinite(v) for v in (pose.x_h, pose.z_h, pose.theta_h,
                                                  pose.theta_h_dot))


def test_aim_step_on_progression_targets_box():
    p = preset(GaitIntent.STEP_ON)
    near = aim_step_on_progression(p, box_front_rel_hip=0.28, box_depth=0.15, thigh=0.44)
    far = aim_step_on_progression(p, box_front_rel_hip=0.48, box_depth=0.15, thigh=0.44)
    assert near.progression_stop_fraction < far.progression_stop_fraction
    # landing heel between front and back of the box for the far case
    thigh, heel_back = 0.44, 0.032
    heel_rel = thigh * math.sin(47 * DEG) - heel_back
    x_final = hip_pose(far, 2 * p.swing_duration).x_h
    heel = x_final + heel_rel
    assert 0.48 <= heel <= 0.48 + 0.15


def test_params_validation():
    with pytest.raises(ValueError):
        HipTrajectoryParams(swing_duration=-1.0)
    with pytest.raises(ValueError):
        HipTrajectoryParams(swing_duration=0.6, theta_h_end=-20 * DEG)
    with pytest.raises(ValueError):
        HipTrajectoryParams(swing_duration=0.6, progression_stop_fraction=1.5)
    with pytest.raises(ValueError):
        HipTrajectoryParams(swing_duration=0.6, rise_fraction=0.0)
