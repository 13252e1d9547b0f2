"""Parametric hip trajectories for the cooperative user.

The user is open-loop over time: each intent (level walk, step over, step
on) maps to a tuned parameter set, and hip angle, height and forward
progression follow closed-form C1 profiles. Landing is never scripted; the
profiles keep evolving past the nominal swing duration and the harness ends
the swing on foot contact. Interaction with the prosthesis emerges entirely
through the phase predicates of the planner (relative heel/hip geometry).
Since the hip never depends on the knee, the harness reads each swing's hip
from a hip_track shared by every trial on the same trajectory, built in one
vectorized pass to the timeout horizon.

The late-swing cues the controller relies on are expressed as parameters:
forward progression that stops early (shortens the step), hip lowering plus
a bounded extension reversal (effects landing), and per-intent hip lift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import repeat
from typing import Optional

import numpy as np

from .leg_kinematics import (DEG, FRACTION, NON_NEGATIVE, POSITIVE, HipPose, Rule, _each,
                             check_rules, declare, hip_poses)

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


# a thigh angle from vertical: HipPose's bound
THIGH_ANGLE = Rule(-math.nextafter(math.pi / 2, 0.0), math.nextafter(math.pi / 2, 0.0),
                   "lie in (-pi/2, pi/2)")


class GaitIntent(Enum):
    LEVEL = "level"
    STEP_OVER = "step_over"
    STEP_ON = "step_on"


@dataclass(frozen=True)
class HipTrajectoryParams:
    # s, nominal (profiles keep going past it)
    swing_duration: float = declare(POSITIVE, "swing_duration_s", 0.3, 1.5)
    theta_h_start: float = declare(THIGH_ANGLE, "theta_h_start_deg", -45.0, 10.0,
                                   default=-15.0 * DEG)  # rad
    theta_h_end: float = declare(THIGH_ANGLE, "theta_h_end_deg", 5.0, 75.0, default=30.0 * DEG)
    hip_height_base: float = declare(POSITIVE, "hip_height_base_m", 0.6, 1.2,
                                     default=HIP_BASE_DEFAULT)  # m
    # m, sin^2 bump over the swing, peaking at lift_peak_fraction of it
    hip_lift_amplitude: float = declare(NON_NEGATIVE, "hip_lift_m", 0.0, 0.15, default=0.01)
    lift_peak_fraction: float = declare(FRACTION, "lift_peak_fraction", 0.1, 1.0, default=0.5)
    forward_speed: float = declare(POSITIVE, "forward_speed_mps", 0.1, 2.5, default=0.7)  # m/s
    # 1.0 = no stop in horizon
    progression_stop_fraction: float = declare(FRACTION, "progression_stop_fraction", 0.01, 1.0,
                                               default=1.0)
    # hip flexion completes by this fraction
    rise_fraction: float = declare(FRACTION, "rise_fraction", 0.2, 1.0, default=0.75)
    # start of the lowering/extension cue
    lowering_onset_fraction: float = declare(FRACTION, "lowering_onset_fraction", 0.2, 1.0,
                                             default=0.9)
    # m, saturating late-swing hip drop
    lowering_depth: float = declare(NON_NEGATIVE, "lowering_depth_m", 0.0, 0.2, default=0.02)
    # rad/s^2, hip reversal after onset
    extension_decay: float = declare(POSITIVE, "extension_decay_rps2", 0.5, 100.0, default=12.0)
    # rad/s, terminal (constant) reversal rate; at 100 rad/s a thigh would
    # sweep its +-80 deg reach in 28 ms, past any human hip
    extension_rate: float = declare(Rule(0.0, 100.0, "lie in [0, 100] rad/s"),
                                    "extension_rate_rps", 0.0, 10.0, default=3.0)
    # rad, smooth theta_h noise, a spread of thigh angles; a file's sigma of
    # at most 1 deg keeps the noisy hip angle inside HipPose's bound around
    # the profile's +-80 deg reach (THETA_H_LIMIT)
    noise_sigma: float = declare(Rule(0.0, math.nextafter(math.pi / 2, 0.0), "lie in [0, pi/2)"),
                                 "noise_sigma_deg", 0.0, 1.0, default=0.0)

    def __post_init__(self):
        check_rules(self)
        if not self.theta_h_end > self.theta_h_start:
            raise ValueError("theta_h_end must exceed theta_h_start")
        peak = _flexion_peak(self)
        if not peak <= THETA_H_LIMIT:
            raise ValueError(f"hip flexion peaks at {peak / DEG:.1f} deg, "
                             f"past {THETA_H_LIMIT / DEG:.0f} deg")


def _noise(params: HipTrajectoryParams, t: np.ndarray, seed: Optional[int]):
    """Smooth low-frequency angle noise: two seeded sinusoids."""
    if params.noise_sigma <= 0.0 or seed is None:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    a1, a2 = rng.normal(0.0, params.noise_sigma, 2)
    p1, p2 = rng.uniform(0.0, 2.0 * math.pi, 2)
    w1, w2 = 2.0 * math.pi * 2.0, 2.0 * math.pi * 4.5  # Hz-scale wobble
    ph1, ph2 = w1 * t + p1, w2 * t + p2
    val = a1 * _each(math.sin, ph1) + a2 * _each(math.sin, ph2)
    vel = a1 * w1 * _each(math.cos, ph1) + a2 * w2 * _each(math.cos, ph2)
    return val, vel


def _flexion_peak(params: HipTrajectoryParams) -> float:
    """Highest flexion of the noise-free hip: one still rising at the lowering
    onset overshoots until extension_decay stops it."""
    a0, v0 = map(float, _rise(params, params.lowering_onset_fraction * params.swing_duration))
    return a0 + max(v0, 0.0) ** 2 / (2.0 * params.extension_decay)


# Reach of the hip profile: the reversal stops at -THETA_H_LIMIT and a peak past
# +THETA_H_LIMIT is rejected, leaving room for the noise inside |theta_h| < 90 deg.
THETA_H_LIMIT = 80.0 * DEG


def _rise(params: HipTrajectoryParams, t):
    """Min-jerk hip angle and rate from theta_h_start to theta_h_end, done by
    rise_fraction of the swing; t an array or a float (np.clip costs a float
    ~3 us more than np.minimum and np.maximum)."""
    T_rise = params.rise_fraction * params.swing_duration
    span = params.theta_h_end - params.theta_h_start
    s = np.minimum(np.maximum(t / T_rise, 0.0), 1.0)
    ang = params.theta_h_start + span * (s * s * s * (10.0 - 15.0 * s + 6.0 * s * s))
    vel = span * (30.0 * s * s * (1.0 - s) * (1.0 - s)) / T_rise
    return ang, np.where((0.0 <= t) & (t <= T_rise), vel, 0.0)


def _theta_h(params: HipTrajectoryParams, t: np.ndarray) -> tuple:
    """Hip angle and rate.

    Min-jerk rise completed by rise_fraction of the swing, a hold at the end
    angle (the window in which the planner converges the knee), then the
    extension reversal from the lowering onset: a quadratic blend at
    extension_decay into a constant extension_rate descent. The terminal
    segment is linear so the knee's tick-integrated mirror of the hip rate
    tracks it without accumulating curvature error; the profile stays C1 and
    bounded out to the timeout horizon.
    """
    t_on = params.lowering_onset_fraction * params.swing_duration
    ang, vel = _rise(params, t)
    a0, v0 = map(float, _rise(params, t_on))
    a = params.extension_decay
    rate = params.extension_rate
    u = t - t_on
    u_sat = (v0 + rate) / a
    blend = u <= u_sat
    late_ang = np.where(blend, a0 + v0 * u - 0.5 * a * u * u,
                        a0 + v0 * u_sat - 0.5 * a * u_sat * u_sat - rate * (u - u_sat))
    late_vel = np.where(blend, v0 - a * u, -rate)
    stopped = late_ang < -THETA_H_LIMIT
    late = t > t_on
    return (np.where(late, np.where(stopped, -THETA_H_LIMIT, late_ang), ang),
            np.where(late, np.where(stopped, 0.0, late_vel), vel))


# Tuned defaults per intent, built once. Swing durations follow the measured
# averages (0.61 / 0.64 / 0.81 s); angle endpoints, lift and lowering were
# tuned so the simulated peak knee flexion and landing geometry land in the
# reported ranges. Here, below _rise: __post_init__ calls it.
PRESETS = {
    GaitIntent.LEVEL: HipTrajectoryParams(
        swing_duration=0.61, theta_h_end=36.0 * DEG, lowering_depth=0.10),
    GaitIntent.STEP_ON: HipTrajectoryParams(
        swing_duration=0.64, theta_h_end=53.0 * DEG, hip_lift_amplitude=0.04,
        progression_stop_fraction=0.6, rise_fraction=0.72, lowering_onset_fraction=0.85,
        lowering_depth=0.03, extension_decay=6.0),
    GaitIntent.STEP_OVER: HipTrajectoryParams(
        swing_duration=0.81, theta_h_end=54.0 * DEG, hip_lift_amplitude=0.04,
        lift_peak_fraction=0.68, rise_fraction=0.9, lowering_onset_fraction=0.80,
        lowering_depth=0.12, extension_decay=24.0, extension_rate=1.2),
}


def preset(intent: GaitIntent) -> HipTrajectoryParams:
    """The intent's tuned defaults, one frozen instance per intent (PRESETS)."""
    return PRESETS[intent]


def _z_h(params: HipTrajectoryParams, t: np.ndarray) -> np.ndarray:
    """Hip height: sin^2 lift peaking at lift_peak_fraction of the swing
    (0.5 reproduces a sin^2 arch over the nominal duration; obstacle
    step-overs hold the hip up longer, as the study participants did), then
    a saturating quadratic lowering ramp from the onset."""
    T = params.swing_duration
    t_on = params.lowering_onset_fraction * T
    period = 2.0 * params.lift_peak_fraction * T
    sin = _each(math.sin, math.pi * np.minimum(t, period) / period)
    z = params.hip_height_base + params.hip_lift_amplitude * _each(pow, sin, repeat(2))
    ramp_T = max(T - t_on, 1e-6)
    frac = np.minimum(1.0, _each(pow, (t - t_on) / ramp_T, repeat(2)))
    return np.where(t > t_on, z - params.lowering_depth * frac, z)


def _x_h(params: HipTrajectoryParams, t: np.ndarray) -> np.ndarray:
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
    u = np.minimum(t - t_stop, w)
    # integral of v * (1 + cos(pi u / w)) / 2
    x = v * t_stop + v * (u / 2.0 + (w / (2.0 * math.pi)) * _each(math.sin, math.pi * u / w))
    return np.where(t <= t_stop, v * t, x)


def hip_pose(params: HipTrajectoryParams, t: float | np.ndarray, seed: Optional[int] = None):
    """Hip state at time t >= 0, valid well past the nominal duration
    (hip_track samples it to the timeout horizon). A float t gives its HipPose;
    an array of times gives the unchecked arrays (x_h, z_h, theta_h,
    theta_h_dot), each element the float a lone sample of it gives."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    ang, vel = _theta_h(params, ts)
    n_ang, n_vel = _noise(params, ts, seed)
    x_h, z_h, theta_h, theta_h_dot = _x_h(params, ts), _z_h(params, ts), ang + n_ang, vel + n_vel
    if np.ndim(t):
        return x_h, z_h, theta_h, theta_h_dot
    return HipPose(x_h=float(x_h[0]), z_h=float(z_h[0]), theta_h=float(theta_h[0]),
                   theta_h_dot=float(theta_h_dot[0]))


# A swing that meets nothing ends at TIMEOUT_FACTOR x the nominal duration.
TIMEOUT_FACTOR = 2.0

# Most ticks a swing may take to the timeout horizon: 20 s at 1 kHz, ~3.4 MB
# of hip track, where a file's longest swing at its finest tick takes 6,001.
MAX_HORIZON_TICKS = 20_000


def horizon(params: HipTrajectoryParams, dt: float) -> float:
    """The timeout horizon in s, TIMEOUT_FACTOR x the nominal duration plus
    half a tick; a ValueError unless it spans 1 to MAX_HORIZON_TICKS ticks,
    so no track asks numpy for more."""
    end = TIMEOUT_FACTOR * params.swing_duration + dt / 2
    if not 1.0 <= end / dt <= MAX_HORIZON_TICKS:
        raise ValueError(f"the timeout horizon, {TIMEOUT_FACTOR:g} x a {params.swing_duration} s "
                         f"swing, must span 1 to {MAX_HORIZON_TICKS} ticks of {dt} s")
    return end


# Trajectories hip_track keeps. A campaign runs each trajectory's trials back
# to back (its 210 trials resolve to 32: one per intent preset and one per
# aimed step-on box): 178 hits and 32 misses at any size. 120 shuffled run
# scenarios read 101/19 hits/misses at 8, 98-99/21-22 at 4, 93-94/26-27 at 3.
# A track holds one HipPose per tick to the horizon, ~0.17 KB each: ~0.27 MB
# for the step-over preset at 1 kHz, so 8 hold at most ~2.2 MB; 3 would save ~1.2 MB.
HIP_TRACK_CACHE_SIZE = 8


@lru_cache(maxsize=HIP_TRACK_CACHE_SIZE)
def hip_track(params: HipTrajectoryParams, seed: Optional[int], dt: float) -> tuple:
    """The tuple of hip poses one trajectory presents to the controller, shared
    by every trial on it: the hip is open loop, so its poses depend only on
    (params, seed, dt), never on the knee.

    track[i] is the pose at tick time t_i (t_0 = 0.0, t_{i+1} = t_i + dt,
    summed in order as run_swing sums its clock). The track, and with it
    every swing, ends at the timeout horizon: the first tick at or past
    horizon(params, dt), a bound the sums' rounding cannot move by a tick.
    Its rate is the average over the coming tick,
    (theta_h(t_{i+1}) - theta_h(t_i)) / dt: the planner holds its
    command for one tick, and the instantaneous rate would leak the hip's
    intra-tick curvature into the knee command and drift the mirror.

    One pass, eager to the horizon: np.add.accumulate sums the tick times,
    one hip_pose call samples them all, and hip_poses checks every sample
    (t_{last+1} too) in one array pass and builds the poses, so an invalid
    one raises here and nothing is cached. An aimed step-on's track, 1,282
    poses of which its swing reads ~626, takes ~1.7 ms (2-core Xeon, CPython
    3.11): ~0.8 ms sampling and ~0.7 ms building, where one HipPose
    constructed per pose took ~2 ms. libm, element by element, keeps every
    pose bit-equal to a lone sample's.
    """
    end = horizon(params, dt)
    steps = np.full(int(end / dt) + 4, dt)   # the sums stray from i * dt by far less than a tick
    steps[0] = 0.0
    t = np.add.accumulate(steps)
    last = int(np.searchsorted(t, end))          # the first tick at or past the horizon
    x_h, z_h, theta_h, _ = hip_pose(params, t[:last + 2], seed)
    return hip_poses(x_h, z_h, theta_h, np.diff(theta_h) / dt)


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
