import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracle_utils
from swingsim import human_model
from swingsim.leg_kinematics import DEG, HipPose
from swingsim.human_model import (
    TIMEOUT_FACTOR,
    GaitIntent,
    HipTrajectoryParams,
    aim_step_on_progression,
    hip_pose,
    hip_track,
    preset,
)
from swingsim.config import DEGREES, HUMAN, parse_scenario
from swingsim.sim_harness import (
    CampaignConfig,
    Outcome,
    StepLog,
    TrialConfig,
    build_trial_specs,
    run_swing,
    trial_config_for,
    trial_seeds,
)

from oracle_utils import hip_at_reference


def _at(params, t, seed=None) -> tuple:
    """(x_h, z_h, theta_h) of the hip at the one time t, as floats."""
    return tuple(float(a[0]) for a in hip_pose(params, np.array([t]), seed))


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
    x_on = _at(on, 1.5 * on.swing_duration)[0]
    x_over = _at(over, horizon)[0]
    assert x_on < x_over


def test_start_boundary_conditions():
    for intent in GaitIntent:
        p = preset(intent)
        x_h, z_h, theta_h = _at(p, 0.0)
        assert theta_h == pytest.approx(p.theta_h_start)
        assert x_h == 0.0
        assert z_h == pytest.approx(p.hip_height_base)


def test_theta_h_rate_nonnegative_during_rise():
    # the rise segment ends at the earlier of rise completion and the
    # lowering/extension onset (the step-over cue starts inside the rise);
    # the rate the planner reads is the track's, over each tick inside it
    dt = 0.001
    for intent in GaitIntent:
        p = preset(intent)
        t_rise = min(p.rise_fraction, p.lowering_onset_fraction) * p.swing_duration
        track = hip_track(p, None, dt)
        assert all(pose.theta_h_dot >= 0.0 for pose in track[:int(t_rise / dt)])


def test_progression_stops_for_step_on_preset():
    p = preset(GaitIntent.STEP_ON)
    t_stop = p.progression_stop_fraction * p.swing_duration
    ramp = 0.08
    x_settled = _at(p, t_stop + ramp)[0]
    x_h = hip_pose(p, np.linspace(t_stop + ramp, 2 * p.swing_duration, 20))[0]
    assert x_h.tolist() == pytest.approx([x_settled] * 20, abs=1e-12)


def test_c1_continuity_at_1khz():
    # rate steps between ticks stay bounded (no jumps), out to the horizon;
    # the rate itself, the difference over the coming tick, is pinned by
    # test_hip_track_equals_the_per_tick_reference_on_every_campaign_trajectory
    dt = 0.001
    for intent in GaitIntent:
        p = preset(intent)
        poses = hip_track(p, None, dt)
        for a, b in zip(poses, poses[1:]):
            assert abs(b.theta_h_dot - a.theta_h_dot) < 0.05  # <= ~50 rad/s^2
            assert abs(b.x_h - a.x_h) <= p.forward_speed * dt + 1e-12
        zs = np.array([q.z_h for q in poses])
        assert np.all(np.abs(np.diff(zs)) < 0.004)


def test_hip_height_profile_lift_and_lowering():
    p = preset(GaitIntent.STEP_OVER)
    T = p.swing_duration
    peak = _at(p, p.lift_peak_fraction * T)[1]
    assert peak == pytest.approx(p.hip_height_base + p.hip_lift_amplitude, abs=1e-9)
    late = _at(p, 1.8 * T)[1]
    assert late == pytest.approx(p.hip_height_base - p.lowering_depth, abs=2e-3)
    # the default shape is the sin^2 arch over the nominal swing
    q = preset(GaitIntent.LEVEL)
    assert q.lift_peak_fraction == 0.5
    assert _at(q, q.swing_duration / 2)[1] == pytest.approx(
        q.hip_height_base + q.hip_lift_amplitude, abs=1e-9)


def test_noise_smooth_and_seeded():
    p = HipTrajectoryParams(swing_duration=0.6, noise_sigma=1.0 * DEG)
    ts = np.arange(0, 0.6, 0.001)
    a = hip_pose(p, ts, seed=5)[2].tolist()
    b = hip_pose(p, ts, seed=5)[2].tolist()
    c = hip_pose(p, ts, seed=6)[2].tolist()
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
            assert _at(p, t, seed)[2] == _at(quiet, t)[2] + noise


def test_sample_horizon():
    # hip samples stay valid poses (HipPose checks z_h > 0, |theta_h| < 90
    # deg, all finite) out to the horizon the harness runs to, and so do the
    # track's rates
    for intent in GaitIntent:
        p = preset(intent)
        ts = np.linspace(0.0, TIMEOUT_FACTOR * p.swing_duration, 200)
        for x_h, z_h, theta_h in zip(*(a.tolist() for a in hip_pose(p, ts))):
            HipPose(x_h=x_h, z_h=z_h, theta_h=theta_h)
        assert all(math.isfinite(pose.theta_h_dot) for pose in hip_track(p, None, 0.001))


def test_aim_step_on_progression_targets_box():
    p = preset(GaitIntent.STEP_ON)
    near = aim_step_on_progression(p, box_front_rel_hip=0.28, box_depth=0.15, thigh=0.44)
    far = aim_step_on_progression(p, box_front_rel_hip=0.48, box_depth=0.15, thigh=0.44)
    assert near.progression_stop_fraction < far.progression_stop_fraction
    # landing heel between front and back of the box for the far case
    thigh, heel_back = 0.44, 0.032
    heel_rel = thigh * math.sin(47 * DEG) - heel_back
    x_final = _at(far, 2 * p.swing_duration)[0]
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


@pytest.mark.parametrize("speed", [0.0, -0.7, math.nan])
def test_params_reject_a_forward_speed_that_is_not_positive(speed):
    # 0 made an aimed step-on divide by it in aim_step_on_progression, and a
    # negative one walked the hip backwards into a failed swing
    with pytest.raises(ValueError, match="forward_speed must be positive"):
        HipTrajectoryParams(swing_duration=0.6, forward_speed=speed)


@pytest.mark.parametrize("fraction", [0.0, -0.2, 1.5, math.nan])
def test_params_reject_a_lift_peak_fraction_outside_0_1(fraction):
    # 0 made every hip sample divide by a zero lift period
    with pytest.raises(ValueError, match="lift_peak_fraction must lie in"):
        HipTrajectoryParams(swing_duration=0.6, lift_peak_fraction=fraction)


def test_a_trial_on_a_hip_of_infinite_forward_speed_is_refused_when_built():
    # its hip track held x_h NaN at t = 0 and inf after, and the swing ran to
    # a SCUFF at landing_x inf with only a RuntimeWarning
    with pytest.raises(ValueError, match="forward_speed must be positive and finite, got inf"):
        TrialConfig(human=replace(preset(GaitIntent.LEVEL), forward_speed=math.inf))


def _noisy_step_over(sigma_deg, seed):
    human = replace(preset(GaitIntent.STEP_OVER), noise_sigma=sigma_deg * DEG)
    return TrialConfig(intent=GaitIntent.STEP_OVER, human=human, seed=seed)


@pytest.mark.parametrize("sigma_deg,seed", [(20.0, 1), (40.0, 0)])
def test_a_trial_whose_noisy_hip_leaves_the_thigh_angle_is_refused_when_built(sigma_deg, seed):
    # both used to build, and run_swing then raised HipPose's error on the track
    with pytest.raises(ValueError, match=r"^HipPose.theta_h must lie in \(-pi/2, pi/2\), got "):
        _noisy_step_over(sigma_deg, seed)


def test_trials_of_a_few_degrees_of_hip_noise_still_build_and_run_on_the_checked_track(
        monkeypatch):
    # every one builds but those whose noisy toe-off foot starts in the
    # ground, which used to SCUFF at t = 1 ms
    refused = []
    for sigma_deg in (5.0, 10.0):
        for seed in range(20):
            try:
                cfg = _noisy_step_over(sigma_deg, seed)
            except ValueError as exc:
                assert str(exc).startswith("the toe-off foot already touches the scene (GROUND")
                refused.append((sigma_deg, seed))
    assert refused == [(5.0, 3), (5.0, 10), (5.0, 19), (10.0, 3), (10.0, 6), (10.0, 18),
                       (10.0, 19)]
    # the track built with the trial is the one its swing reads: the swing
    # samples no hip trajectory of its own
    sampled = []
    real = human_model.hip_pose

    def counting(params, t, seed=None):
        sampled.append(seed)
        return real(params, t, seed)

    monkeypatch.setattr(human_model, "hip_pose", counting)
    run_swing(cfg)
    assert sampled == []


def test_params_reject_a_hip_still_rising_at_the_onset_that_overshoots_the_limit():
    # 30 deg at the onset, rising at 281.25 deg/s: extension_decay stops it
    # 57.5 deg higher, though theta_h_end is 75 deg
    with pytest.raises(ValueError, match="peaks at 87.5 deg, past 80 deg"):
        HipTrajectoryParams(swing_duration=0.6, theta_h_end=75.0 * DEG, rise_fraction=1.0,
                            lowering_onset_fraction=0.5)


def _sampled_peak(params) -> float:
    """Highest oracle_utils._theta_h on a 10 us grid: a 1 ms grid past the
    latest peak the table allows (6 s after the onset), refined at 10 us
    over the two 1 ms steps around its highest sample. The profile rises,
    holds, then falls, so its peak lies between those steps."""
    t_on = params.lowering_onset_fraction * params.swing_duration
    coarse = np.arange(0.0, t_on + 6.0, 1e-3)
    best = coarse[int(np.argmax([oracle_utils._theta_h(params, t) for t in coarse]))]
    return max(oracle_utils._theta_h(params, t) for t in best + np.arange(-1e-3, 1e-3, 1e-5))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(st.fixed_dictionaries({f.attr: st.floats(f.lo, f.hi).map(
    (lambda v: v * DEG) if f.kind is DEGREES else float) for f in HUMAN}))
def test_flexion_peak_is_the_sampled_peak_of_the_profile(fields):
    assume(fields["theta_h_end"] > fields["theta_h_start"])
    sampled = _sampled_peak(SimpleNamespace(**fields))
    try:
        params = HipTrajectoryParams(**fields)
    except ValueError:   # rejected exactly when the hip flexes past the limit
        assert sampled > human_model.THETA_H_LIMIT - 1e-6
        return
    assert human_model._flexion_peak(params) == pytest.approx(sampled, abs=1e-6)


NOISY = replace(preset(GaitIntent.STEP_OVER), noise_sigma=1.0 * DEG)
TRAJECTORIES = [(preset(i), None) for i in GaitIntent] + [(NOISY, 3), (NOISY, 4)]


@pytest.mark.parametrize("dt", [0.0005, 0.001, 0.0015, 0.005])
@pytest.mark.parametrize("params,seed", TRAJECTORIES,
                         ids=[i.value for i in GaitIntent] + ["noisy-seed3", "noisy-seed4"])
def test_hip_track_equals_direct_hip_pose_construction(params, seed, dt):
    hip_track.cache_clear()
    track = hip_track(params, seed, dt)
    assert track == tuple(hip_at_reference(params, seed, dt))
    assert hip_track(params, seed, dt) is track


def _campaign_trajectories(seed):
    cc = CampaignConfig(seed=seed)
    out = set()
    for spec in build_trial_specs(cc):
        human = trial_config_for(cc, spec).resolved_human
        out.add((human, trial_seeds(spec.seed)[2] if human.noise_sigma > 0.0 else None))
    return out


def test_hip_track_equals_the_per_tick_reference_on_every_campaign_trajectory():
    # every aimed step-on has its own trajectory; the presets are shared
    trajectories = _campaign_trajectories(2024) | _campaign_trajectories(7)
    assert len(trajectories) == 62
    for dt in (0.0005, 0.001, 0.0015):
        for params, seed in trajectories:
            assert hip_track(params, seed, dt) == tuple(hip_at_reference(params, seed, dt))


def test_hip_oracle_catches_a_one_ulp_sin_or_cos_in_the_profiles(monkeypatch):
    # numpy's own SIMD sin/cos can differ from libm's by an ulp; on hosts
    # where numpy hands them to libm, a swap could go unseen. Moving
    # human_model's libm sin and cos by one ulp must move an aimed seed-2024
    # step-on's track (the lift's and the progression stop's sin) off the
    # per-tick reference, which keeps the real math module.
    cc = CampaignConfig(seed=2024)
    spec = next(s for s in build_trial_specs(cc) if s.intent is GaitIntent.STEP_ON)
    params = trial_config_for(cc, spec).resolved_human
    shim = SimpleNamespace(**vars(math))
    shim.sin = lambda x: math.nextafter(math.sin(x), math.inf)
    shim.cos = lambda x: math.nextafter(math.cos(x), math.inf)
    monkeypatch.setattr(human_model, "math", shim)
    hip_track.cache_clear()
    try:
        track, reference = hip_track(params, None, 0.001), hip_at_reference(params, None, 0.001)
    finally:
        hip_track.cache_clear()
    assert any(a.z_h != b.z_h for a, b in zip(track, reference))
    assert any(a.x_h != b.x_h for a, b in zip(track, reference))


def test_hip_tracks_of_different_noise_seeds_differ():
    a, b = hip_track(NOISY, 3, 0.001), hip_track(NOISY, 4, 0.001)
    assert a is not b
    assert a[:600] != b[:600]
    # and the noise is there at all
    assert hip_track(preset(GaitIntent.STEP_OVER), None, 0.001)[300] != a[300]


@pytest.mark.parametrize("where,field", [(0, "z_h"), (600, "theta_h"), (-2, "z_h"), (-1, "theta_h")],
                         ids=["first", "middle", "horizon", "last-rate-sample"])
def test_hip_track_checks_every_pose_when_built_and_caches_no_failure(monkeypatch, where, field):
    real = human_model.hip_pose
    calls = []

    def faulty(params, t, seed=None):
        calls.append(len(t))
        x_h, z_h, theta_h = (v.copy() for v in real(params, t, seed))
        (z_h if field == "z_h" else theta_h)[where] = 0.0 if field == "z_h" else math.pi / 2
        return x_h, z_h, theta_h

    monkeypatch.setattr(human_model, "hip_pose", faulty)
    hip_track.cache_clear()
    params = preset(GaitIntent.LEVEL)
    with pytest.raises(ValueError, match=f"HipPose.{field} must"):
        hip_track(params, None, 0.001)
    # one call, to one tick past the horizon: the last pose's rate reads it
    ref = hip_at_reference(params, None, 0.001)
    assert calls == [len(ref) + 1]
    assert hip_track.cache_info().currsize == 0
    monkeypatch.setattr(human_model, "hip_pose", real)
    assert hip_track(params, None, 0.001) == tuple(ref)


def test_hip_track_runs_no_post_init_and_a_direct_pose_still_checks(monkeypatch):
    # the track's poses are checked in one array pass, not one by one
    real, calls = HipPose.__post_init__, []

    def counting(self):
        calls.append(self)
        real(self)

    monkeypatch.setattr(HipPose, "__post_init__", counting)
    hip_track.cache_clear()
    try:
        track = hip_track(preset(GaitIntent.STEP_ON), None, 0.001)
    finally:
        hip_track.cache_clear()
    assert len(track) > 1000 and calls == []
    with pytest.raises(ValueError, match="^HipPose.z_h must be positive and finite, got -0.1$"):
        HipPose(x_h=0.0, z_h=-0.1, theta_h=0.0)
    assert len(calls) == 1


@pytest.mark.parametrize("dt", [0.0005, 0.001, 0.0015])
def test_the_horizon_keeps_the_tick_at_the_timeout_however_the_tick_sums_round(dt):
    # where TIMEOUT_FACTOR x the duration is n ticks, a swing that meets
    # nothing runs the ticks at 0, dt, ..., n dt: n + 1 ticks reading n + 2
    # poses, whether the summed tick time near n dt rounds up or down
    hip_track.cache_clear()
    for centis in range(30, 151):
        params = replace(preset(GaitIntent.LEVEL), swing_duration=centis / 100)
        n = TIMEOUT_FACTOR * params.swing_duration / dt
        if abs(n - round(n)) < 1e-9:
            assert len(hip_track(params, None, dt)) == round(n) + 2, params.swing_duration
    hip_track.cache_clear()


@pytest.mark.parametrize("dt", [0.0005, 0.001, 0.0015])
def test_a_timed_out_swing_reads_the_last_pose_of_its_track(monkeypatch, dt):
    # a 1.2 m hip keeps the foot off the ground: the swing runs to the horizon
    human = replace(preset(GaitIntent.LEVEL), hip_height_base=1.2)
    cfg = TrialConfig(intent=GaitIntent.LEVEL, human=human,
                      planner=replace(TrialConfig().planner, dt=dt), seed=3)
    hip_track.cache_clear()
    log, result = run_swing(cfg, StepLog())
    assert result.outcome is Outcome.TIMEOUT
    # tick i reads pose i + 1, so the last tick read the track's last pose
    assert len(log.rows) + 1 == len(hip_track(human, None, dt))
    # and the per-tick reference track gives the same swing, on a trial that
    # has not yet taken its track
    reference = []
    monkeypatch.setattr(human_model, "hip_track",
                        lambda p, s, d: reference.append(p) or tuple(hip_at_reference(p, s, d)))
    assert run_swing(replace(cfg))[1] == result
    assert reference == [human]


def test_the_scenario_table_extremes_build_their_hip_tracks():
    # lowest hip base on the lowest ground, deepest lowering, highest lift,
    # most hip noise: eager checking to the horizon must refuse no trajectory
    # a file can give. Here a hip height's last bits show: numpy's square in
    # place of libm's pow moves some poses.
    for intent in GaitIntent:
        cfg = parse_scenario({
            "human": {"intent": intent.value, "hip_height_base_m": 0.6, "hip_lift_m": 0.15,
                      "lowering_depth_m": 0.2, "noise_sigma_deg": 1.0},
            "scene": {"ground_height_m": -0.3},
            "geometry": {"thigh_m": 0.3, "shank_m": 0.3, "toe_m": 0.05, "heel_m": 0.02}})
        human = cfg.resolved_human
        for seed in range(20):
            track = hip_track(human, trial_seeds(seed)[2], cfg.planner.dt)
            assert min(p.z_h for p in track) > 0.0
        for dt in (0.0005, 0.001, 0.0015):
            noise_seed = trial_seeds(0)[2]
            assert hip_track(human, noise_seed, dt) == tuple(hip_at_reference(human, noise_seed, dt))
        run_swing(cfg)
