"""Parametric hip trajectories for the cooperative user.

The user is open-loop over time: each intent (level walk, step over, step
on) maps to a tuned parameter set, and hip angle, height and forward
progression follow closed-form C1 profiles. Landing is never scripted; the
profiles keep evolving past the nominal swing duration and the harness ends
the swing on foot contact. Interaction with the prosthesis emerges entirely
through the phase predicates of the planner (relative heel/hip geometry).
Since the hip never depends on the knee, the harness reads each swing's hip
from a hip_track shared by every trial on the same trajectory, sampled once
per tick time.

The late-swing cues the controller relies on are expressed as parameters:
forward progression that stops early (shortens the step), hip lowering plus
a bounded extension reversal (effects landing), and per-intent hip lift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Optional

import numpy as np

from .leg_kinematics import DEG, HipPose

# Hip height above the ground at the start of every preset swing and in the
# late-stance capture pose (sim_harness.CAPTURE_*), where it leaves the
# capture toe about 0.023 m up.
HIP_BASE_DEFAULT = 0.8875

# duration of the smooth progression stop, seconds
PROGRESSION_RAMP_S = 0.08

# aim_step_on_progression's preset-level landing estimate: the hip angle at
# landing, and the heel's x offset back from thigh * sin(that angle), in m
AIM_LANDING_THETA_H = 47.0 * DEG
AIM_HEEL_BACK = 0.032


class GaitIntent(Enum):
    LEVEL = "level"
    STEP_OVER = "step_over"
    STEP_ON = "step_on"


@dataclass(frozen=True)
class HipTrajectoryParams:
    swing_duration: float                  # s, nominal (profiles keep going past it)
    theta_h_start: float = -15.0 * DEG     # rad
    theta_h_end: float = 30.0 * DEG        # rad
    hip_height_base: float = HIP_BASE_DEFAULT  # m
    hip_lift_amplitude: float = 0.01       # m, sin^2 bump over the swing
    lift_peak_fraction: float = 0.5        # swing fraction where the lift peaks
    forward_speed: float = 0.7             # m/s
    progression_stop_fraction: float = 1.0  # in (0, 1]; 1.0 = no stop in horizon
    rise_fraction: float = 0.75            # hip flexion completes by this fraction
    lowering_onset_fraction: float = 0.9   # start of the lowering/extension cue
    lowering_depth: float = 0.02           # m, saturating late-swing hip drop
    extension_decay: float = 12.0          # rad/s^2, hip reversal after onset
    extension_rate: float = 3.0            # rad/s, terminal (constant) reversal rate
    noise_sigma: float = 0.0               # rad, smooth theta_h noise

    def __post_init__(self):
        for name in ("swing_duration", "extension_decay"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.theta_h_end > self.theta_h_start:
            raise ValueError("theta_h_end must exceed theta_h_start")
        for name in ("progression_stop_fraction", "lowering_onset_fraction",
                     "rise_fraction"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        # a hip still rising at the lowering onset overshoots until extension_decay stops it
        a0, v0 = _theta_h(self, self.lowering_onset_fraction * self.swing_duration)
        peak = a0 + max(v0, 0.0) ** 2 / (2.0 * self.extension_decay)
        if not peak <= THETA_H_LIMIT:
            raise ValueError(f"hip flexion peaks at {peak / DEG:.1f} deg, "
                             f"past {THETA_H_LIMIT / DEG:.0f} deg")


def preset(intent: GaitIntent) -> HipTrajectoryParams:
    """Tuned defaults per intent.

    Swing durations follow the measured averages (0.61 / 0.64 / 0.81 s);
    angle endpoints, lift and lowering were tuned so the simulated peak knee
    flexion and landing geometry land in the reported ranges.
    """
    if intent is GaitIntent.LEVEL:
        return HipTrajectoryParams(
            swing_duration=0.61,
            theta_h_end=36.0 * DEG,
            lowering_depth=0.10,
        )
    if intent is GaitIntent.STEP_ON:
        return HipTrajectoryParams(
            swing_duration=0.64,
            theta_h_end=53.0 * DEG,
            hip_lift_amplitude=0.04,
            progression_stop_fraction=0.6,
            rise_fraction=0.72,
            lowering_onset_fraction=0.85,
            lowering_depth=0.03,
            extension_decay=6.0,
        )
    if intent is GaitIntent.STEP_OVER:
        return HipTrajectoryParams(
            swing_duration=0.81,
            theta_h_end=54.0 * DEG,
            hip_lift_amplitude=0.04,
            lift_peak_fraction=0.68,
            rise_fraction=0.9,
            lowering_onset_fraction=0.80,
            lowering_depth=0.12,
            extension_decay=24.0,
            extension_rate=1.2,
        )
    raise ValueError(f"unknown intent {intent!r}")


def _min_jerk(s: float) -> float:
    return s * s * s * (10.0 - 15.0 * s + 6.0 * s * s)


def _min_jerk_vel(s: float) -> float:
    return 30.0 * s * s * (1.0 - s) * (1.0 - s)


@lru_cache(maxsize=64)
def _noise_coefficients(sigma: float, seed: int) -> tuple:
    """(a1, a2, p1, p2) of _noise's sinusoids, drawn once per (sigma, seed)."""
    rng = np.random.default_rng(seed)
    a1, a2 = rng.normal(0.0, sigma, 2)
    p1, p2 = rng.uniform(0.0, 2.0 * math.pi, 2)
    return float(a1), float(a2), float(p1), float(p2)


def _noise(params: HipTrajectoryParams, t: float, seed: Optional[int]):
    """Smooth low-frequency angle noise: two seeded sinusoids."""
    if params.noise_sigma <= 0.0 or seed is None:
        return 0.0, 0.0
    a1, a2, p1, p2 = _noise_coefficients(params.noise_sigma, seed)
    w1, w2 = 2.0 * math.pi * 2.0, 2.0 * math.pi * 4.5  # Hz-scale wobble
    val = a1 * math.sin(w1 * t + p1) + a2 * math.sin(w2 * t + p2)
    vel = a1 * w1 * math.cos(w1 * t + p1) + a2 * w2 * math.cos(w2 * t + p2)
    return val, vel


# Reach of the hip profile: the reversal stops at -THETA_H_LIMIT and a peak past
# +THETA_H_LIMIT is rejected, leaving room for the noise inside |theta_h| < 90 deg.
THETA_H_LIMIT = 80.0 * DEG


def _theta_h(params: HipTrajectoryParams, t: float) -> tuple:
    """Hip angle and rate.

    Min-jerk rise completed by rise_fraction of the swing, a hold at the end
    angle (the window in which the planner converges the knee), then the
    extension reversal from the lowering onset: a quadratic blend at
    extension_decay into a constant extension_rate descent. The terminal
    segment is linear so the knee's tick-integrated mirror of the hip rate
    tracks it without accumulating curvature error; the profile stays C1 and
    bounded out to the timeout horizon.
    """
    T = params.swing_duration
    T_rise = params.rise_fraction * T
    t_on = params.lowering_onset_fraction * T
    span = params.theta_h_end - params.theta_h_start

    def rise(tt):
        s = min(max(tt / T_rise, 0.0), 1.0)
        ang = params.theta_h_start + span * _min_jerk(s)
        vel = span * _min_jerk_vel(s) / T_rise if 0.0 <= tt <= T_rise else 0.0
        return ang, vel

    if t <= t_on:
        return rise(t)
    a0, v0 = rise(t_on)
    a = params.extension_decay
    rate = params.extension_rate
    u = t - t_on
    u_sat = (v0 + rate) / a
    if u <= u_sat:
        ang = a0 + v0 * u - 0.5 * a * u * u
        vel = v0 - a * u
    else:
        ang = (a0 + v0 * u_sat - 0.5 * a * u_sat * u_sat
               - rate * (u - u_sat))
        vel = -rate
    if ang < -THETA_H_LIMIT:
        return -THETA_H_LIMIT, 0.0
    return ang, vel


def _z_h(params: HipTrajectoryParams, t: float) -> float:
    """Hip height: sin^2 lift peaking at lift_peak_fraction of the swing
    (0.5 reproduces a sin^2 arch over the nominal duration; obstacle
    step-overs hold the hip up longer, as the study participants did), then
    a saturating quadratic lowering ramp from the onset."""
    T = params.swing_duration
    t_on = params.lowering_onset_fraction * T
    period = 2.0 * params.lift_peak_fraction * T
    lift = params.hip_lift_amplitude * math.sin(math.pi * min(t, period) / period) ** 2
    z = params.hip_height_base + lift
    if t > t_on:
        ramp_T = max(T - t_on, 1e-6)
        frac = min(1.0, ((t - t_on) / ramp_T) ** 2)
        z -= params.lowering_depth * frac
    return z


def _x_h(params: HipTrajectoryParams, t: float) -> float:
    """Forward progression with a smooth cosine-ramp stop.

    A stop fraction of 1.0 means the hip advances for the whole horizon
    (treadmill-like); otherwise velocity ramps from forward_speed to 0 over
    PROGRESSION_RAMP_S starting at the stop time.
    """
    v = params.forward_speed
    if params.progression_stop_fraction >= 1.0:
        return v * t
    t_stop = params.progression_stop_fraction * params.swing_duration
    w = PROGRESSION_RAMP_S
    if t <= t_stop:
        return v * t
    u = min(t - t_stop, w)
    # integral of v * (1 + cos(pi u / w)) / 2
    x = v * t_stop + v * (u / 2.0 + (w / (2.0 * math.pi)) * math.sin(math.pi * u / w))
    return x


def hip_pose(params: HipTrajectoryParams, t: float, seed: Optional[int] = None) -> HipPose:
    """Hip state at time t >= 0. Profiles are valid well past the nominal
    duration (the harness runs to 2x nominal before declaring a timeout)."""
    ang, vel = _theta_h(params, t)
    n_ang, n_vel = _noise(params, t, seed)
    return HipPose(
        x_h=_x_h(params, t),
        z_h=_z_h(params, t),
        theta_h=ang + n_ang,
        theta_h_dot=vel + n_vel,
    )


# Trajectories hip_track keeps. A campaign runs each trajectory's trials back
# to back (its 210 trials resolve to 32: one per intent preset and one per
# aimed step-on box), and a shuffled mix finds its few shared presets among
# the last 8. A track holds ~0.17 KB per tick, up to 0.27 MB at the 2x
# horizon; at ~0.2 KB, keeping all 32 of a campaign added ~4 MB (+10% RSS).
HIP_TRACK_CACHE_SIZE = 8


class HipTrack:
    """The hip poses one trajectory presents to the controller, tick by tick.

    track[i] is the pose at the i-th tick time t_i, where t_0 = 0.0 and
    t_{i+1} = t_i + dt, the float operation the harness loop repeats. Its
    rate is the exact average over the coming tick,
    (theta_h(t_{i+1}) - theta_h(t_i)) / dt. The planner's velocity command
    is held for one tick, so the hip velocity the controller should
    synchronize with is the ground-truth displacement over that tick;
    feeding the instantaneous rate instead would leak the hip's intra-tick
    curvature into the knee command and let the mirror lock drift.

    Poses are sampled on first read: track[i] samples hip_pose up to t_{i+1}
    and no further, so a swing that ends at contact samples nothing past it.
    Extending is not locked: trials that share a process must run one at a
    time, as they do (run_campaign parallelizes over processes).
    """

    __slots__ = ("params", "seed", "dt", "_poses", "_t", "_raw")

    def __init__(self, params: HipTrajectoryParams, seed: Optional[int], dt: float):
        self.params, self.seed, self.dt = params, seed, dt
        self._poses = []
        self._t, self._raw = 0.0, hip_pose(params, 0.0, seed)   # sampled, not yet in _poses

    def __getitem__(self, i: int) -> HipPose:
        poses, dt = self._poses, self.dt
        while len(poses) <= i:
            now, t = self._raw, self._t + dt
            nxt = hip_pose(self.params, t, self.seed)
            poses.append(HipPose(x_h=now.x_h, z_h=now.z_h, theta_h=now.theta_h,
                                 theta_h_dot=(nxt.theta_h - now.theta_h) / dt))
            self._raw, self._t = nxt, t   # only once the pose is in: a raise leaves no gap
        return poses[i]


# The shared HipTrack of one trajectory, hip_track(params, seed, dt). The hip
# is open loop: its poses depend only on (params, seed, dt), never on the
# knee, so every trial on the same trajectory reads the same poses.
hip_track = lru_cache(maxsize=HIP_TRACK_CACHE_SIZE)(HipTrack)


def aim_step_on_progression(params: HipTrajectoryParams, box_front_rel_hip: float,
                            box_depth: float, thigh: float) -> HipTrajectoryParams:
    """Cooperative aiming: pick the progression stop so the heel lands on the
    box top.

    Mirrors what the study participants did by eye: shorten the step so the
    foot comes down on the obstacle. The landing hip angle is a preset-level
    estimate; the harness only needs the stop fraction to put the heel inside
    the box span with margin.
    """
    inset = min(0.06, 0.4 * box_depth)
    heel_rel_hip = thigh * math.sin(AIM_LANDING_THETA_H) - AIM_HEEL_BACK
    progression = max(0.0, box_front_rel_hip + inset - heel_rel_hip)
    # the smooth stop adds speed * ramp/2 of travel past the stop time
    t_stop = max(0.0, progression / params.forward_speed - PROGRESSION_RAMP_S / 2.0)
    frac = min(max(t_stop / params.swing_duration, 1e-3), 1.0)
    return replace(params, progression_stop_fraction=frac)
