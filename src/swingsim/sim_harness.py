"""Closed-loop swing trials at 1 kHz and randomized trial campaigns.

One trial is a single swing: a late-stance perception capture fixes the
control target, the swing starts at toe-off, and each tick reads the
human hip from the trial's hip_track (the hip is open loop),
runs the planner, integrates the commanded knee velocity (ideally or
through a first-order lag), and checks for contact. Geometric
contact stands in for the hardware's ground-reaction threshold:
contact_check finds the touch, and _classify alone rules on it. A touch
lands only in the mirror sub-mode with the foot moving down; any other
touch is a trip (obstacle) or scuff (ground).
"""
from __future__ import annotations

import json
import math
import struct
from collections import Counter, namedtuple
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .leg_kinematics import (DEG, FINITE, NON_NEGATIVE, POSITIVE, FootPoints, HipPose, JointState,
                             LegGeometry, Rule, at_least, check_rules, declare, fields_state,
                             forward_points)
from .perception import (HEIGHT_RANGE_M, SIZE_RANGE_M, Box, CameraModel, ControlTarget,
                         ObstacleEstimate, ObstacleScene, camera_pose_from_thigh, capture,
                         control_modify, crop_and_project, elevation_keypoints, extract_estimate)
from .swing_planner import THREE_MIRROR, Phase, PhaseState, PlannerParams, planner_step
from . import human_model
from .human_model import GaitIntent, HipTrajectoryParams

# Late-stance capture pose: thigh extended, knee flexed into pre-swing with
# the heel off the ground, which leaves the capture toe a couple of
# centimeters up (that toe height is the z_t entering the safety floor).
CAPTURE_THETA_H = -10.0 * DEG
CAPTURE_THETA_K = 28.0 * DEG

# Toe-off initial prosthesis configuration.
TOE_OFF_THETA_K = 10.0 * DEG

# Profile window handed to the pruning stage, from the capture toe on:
# keypoints behind the capture toe carry no obstacle information, and past
# the nominal 1 m ground look-ahead the profile is frustum-edge noise;
# trimming both keeps the cluster budget on the stretch that matters.
PROFILE_AHEAD_CAP = 0.90  # m ahead of the capture toe
# perceive clusters no profile whose highest point lies more than this below
# the capture toe: its keypoints, means of its points unscaled from z_weight
# and merged by _dedupe, then lie below the toe too and give the level target.
# In floats a mean of n points can land ~n ulps above their max (~2e-12 m for
# 500 x 21 rays at |z| <= 1.5 m). With no margin, 135 of 3,000 adversarial
# profiles got another target; at 1e-9 m, none did.
LEVEL_PROFILE_MARGIN = 1e-9  # m


class Outcome(Enum):
    SUCCESS_STEP_OVER = "SUCCESS_STEP_OVER"
    SUCCESS_STEP_ON = "SUCCESS_STEP_ON"
    SUCCESS_LEVEL = "SUCCESS_LEVEL"
    TRIP = "TRIP"
    SCUFF = "SCUFF"
    TIMEOUT = "TIMEOUT"


SUCCESSES = {Outcome.SUCCESS_STEP_OVER, Outcome.SUCCESS_STEP_ON, Outcome.SUCCESS_LEVEL}


class Surface(Enum):
    GROUND = "GROUND"
    OBSTACLE_TOP = "OBSTACLE_TOP"


@dataclass(frozen=True)
class TrialConfig:
    scene: ObstacleScene = ObstacleScene()
    intent: GaitIntent = declare(None, "intent", default=GaitIntent.LEVEL)  # a file's human.intent
    geometry: LegGeometry = LegGeometry()
    planner: PlannerParams = PlannerParams()
    human: Optional[HipTrajectoryParams] = None   # None -> preset(intent)
    camera: CameraModel = CameraModel()
    seed: int = declare(at_least(0), "seed", 0, 2**64 - 1, default=0)
    # s; 0 = ideal velocity tracking
    tracking_lag_tau: float = declare(NON_NEGATIVE, "tau_s", 0.0, 0.5, default=0.0)
    kmeans_k: int = declare(at_least(1), "kmeans_k", 1, 100, default=50)
    kmeans_restarts: int = declare(at_least(1), "kmeans_restarts", 1, 20, default=8)
    corridor_width: float = declare(POSITIVE, "corridor_width_m", 0.01, 1.0, default=0.15)
    # k-means weighs height against distance ahead by this; 1,000 bounds it
    # far below the ~1e150 at which its squared distances overflow
    z_weight: float = declare(Rule(math.ulp(0.0), 1000.0, "lie in (0, 1000]"), "z_weight",
                              0.1, 50.0, default=6.0)
    edge_threshold: float = declare(POSITIVE, "edge_threshold_m", 0.001, 0.2, default=0.02)

    def __post_init__(self):
        check_rules(self)
        # the tick-wise lag update v += (dt / tau)(cmd - v) overshoots below one tick
        if not (self.tracking_lag_tau == 0.0 or self.tracking_lag_tau >= self.planner.dt):
            raise ValueError("tracking_lag_tau must be 0 (ideal tracking) or at least the "
                             f"planner tick {self.planner.dt} s, got {self.tracking_lag_tau}")
        human = self.human if self.human is not None else human_model.preset(self.intent)
        # resolved_human raises the hip onto the ground; HipPose needs it above z = 0
        low = human.hip_height_base + self.scene.ground_height - human.lowering_depth
        if not low > 0.0:
            raise ValueError("the hip's lowest point, hip_height_base + scene.ground_height - "
                             f"lowering_depth, must lie above z = 0, got {low} m")
        # a swing starting in contact ends at its first tick. Building toe_off's track, the one
        # run_swing reads, caps the horizon and refuses a noisy hip that leaves HipPose's rule
        contact = contact_check(self.toe_off, self.scene)[0]
        if contact is not None:
            raise ToeOffContact(f"the toe-off foot already touches the scene ({contact})", contact)

    # run_campaign(jobs > 1) pickles cc.base into every pool chunk; what a
    # trial works out (its hip, its track, its toe-off foot) is rebuilt
    __getstate__ = fields_state

    @property
    def _aimed(self) -> bool:
        """A step-on at one box: its hip aims the step at that box."""
        return self.intent is GaitIntent.STEP_ON and len(self.scene.boxes) == 1

    @cached_property
    def resolved_human(self) -> HipTrajectoryParams:
        """The trial's hip, worked out once: the preset or human, its base
        raised onto the scene's ground, and the cooperative step-on aiming."""
        params = self.human if self.human is not None else human_model.preset(self.intent)
        params = replace(params, hip_height_base=params.hip_height_base + self.scene.ground_height)
        if self._aimed:
            box = self.scene.boxes[0]
            params = human_model.aim_step_on_progression(
                params, box.front_x, box.depth, thigh=self.geometry.thigh_m)
        return params

    @cached_property
    def hip_track(self) -> tuple:
        """The hip poses this trial's swing reads, to the timeout horizon. A
        hip no other trial can share, one aimed at this trial's box or one
        drawn from its noise seed, is built for it and kept by it alone; any
        other comes from human_model.hip_track's cache."""
        human, dt = self.resolved_human, self.planner.dt
        noisy = human.noise_sigma > 0.0
        if not (noisy or self._aimed):
            return human_model.hip_track(human, None, dt)
        return human_model.build_hip_track(human, trial_seeds(self.seed)[2] if noisy else None, dt)

    @cached_property
    def toe_off(self) -> FootPoints:
        """The foot the swing starts from: the knee at TOE_OFF_THETA_K on the
        first pose of hip_track, its noise included."""
        return forward_points(self.geometry, self.hip_track[0], TOE_OFF_THETA_K)


LOG_COLUMNS = (
    "t_s", "phase", "theta_h_rad", "theta_h_dot_rads", "theta_k_rad",
    "theta_k_dot_cmd_rads", "theta_k_dot_actual_rads", "x_h_m", "z_h_m",
    "x_t_m", "z_t_m", "x_l_m", "z_l_m", "z_m_m", "x_c_m", "k_slope", "c_t",
    "gamma_1",
)
# one tick of the step log, named by its CSV columns; zip(*rows) gives columns
LogRow = namedtuple("LogRow", LOG_COLUMNS)
# "%.6f" % v is the text of f"{v:.6f}" for every float, nan and inf included
ROW_FORMAT = "%.6f,%s," + ",".join(["%.6f"] * (len(LOG_COLUMNS) - 2)) + "\n"

# 4-byte words by value: sign+integer right-aligned, '.ddd', 'ddd,'|'ddd\n'; NaN's after each 1000
_INT = np.frombuffer(b"".join([b"%4s" % (s + b"%d" % i) for s in (b"", b"-") for i in range(1000)]
                              + [b"    "]), np.uint32)
_FRAC = np.frombuffer(b"".join([b".%03d" % i for i in range(1000)] + [b" nan"]), np.uint32)
_SEP = np.frombuffer(b"".join([b"%03d," % i for i in range(1000)] + [b"   ,"]
                              + [b"%03d\n" % i for i in range(1000)] + [b"   \n"]), np.uint32)
# a row as native doubles, as np.frombuffer reads them (native packing takes ~0.2 us a row
# less than "="'s): t, its phase's index in Phase, 8 zero bytes, then its other columns
_ROW = struct.Struct(f"dd8x{len(LOG_COLUMNS) - 2}d")
_PHASE_TEXT = tuple(p.value for p in Phase)
_PHASE_INDEX = {text: i for i, text in enumerate(_PHASE_TEXT)}
# each phase's text and ',' right-aligned in 6 words, the output's columns 1-2
_PHASE_WORDS = np.frombuffer(b"".join([(text + ",").encode().rjust(24) for text in _PHASE_TEXT]),
                             np.uint32).reshape(-1, 2, 3)


def _log_rows(v) -> list:
    """The LogRows of v, n rows of doubles in _ROW's layout."""
    phases = map(_PHASE_TEXT.__getitem__, v[:, 1].astype(np.intp).tolist())
    return list(map(LogRow, v[:, 0].tolist(), phases, *v[:, 3:].T.tolist()))


def _format_rows(v) -> bytes:
    """"".join(ROW_FORMAT % row for row in _log_rows(v)).encode() in one numpy pass;
    ROW_FORMAT writes rows with +-inf or a |v| that rounds to 1000."""
    nan, neg = np.isnan(v), np.signbit(v)
    a = np.fmin(np.fmax(np.abs(v), 0.0), 1000.0)  # NaN as 0
    x = a * 1e6  # off by < 2**-53 x < 2**-23, so N is "%.6f"'s unless x is within 2**-22 of a tie
    N = np.rint(x)
    near = np.abs(np.subtract(x, N, out=x), out=x) >= 0.5 - 2.0 ** -22
    N[near] = [float(("%.6f" % f).replace(".", "")) for f in a[near]]
    if not (N < 1e9).all():
        return "".join([ROW_FORMAT % row for row in _log_rows(v)]).encode()
    N = (N + np.multiply(neg, 1e9, out=x)).astype(np.intp)  # a minus sign: _INT's second half
    I, F = N // 1000000, N // 1000
    N -= F * 1000
    F -= I * 1000
    N[:, -1] += 1001  # a row ends in '\n'
    I[nan], F[nan], N[nan] = 2000, 1000, N[nan] + 1000
    out = np.empty((*v.shape, 3), np.uint32)  # 3 words a value; the phase's 6 fill columns 1-2
    out[..., 0], out[..., 1], out[..., 2] = _INT[I], _FRAC[F], _SEP[N]
    out[:, 1:3] = _PHASE_WORDS[v[:, 1].astype(np.intp)]
    return out.tobytes().translate(None, b" ")


class StepLog:
    """The ticks of a swing, each appended to buf as one _ROW as run_swing
    logs it; rows builds the LogRows on each read."""

    def __init__(self):
        self.buf = bytearray()

    @property
    def rows(self) -> list:
        return _log_rows(np.frombuffer(self.buf).reshape(-1, _ROW.size // 8))

    def write_csv(self, path) -> None:
        v = np.frombuffer(self.buf).reshape(-1, _ROW.size // 8)
        with open(path, "wb") as fh:
            fh.write((",".join(LOG_COLUMNS) + "\n").encode())
            # 256 rows a pass keep its arrays in warm memory: a few page faults a log, not ~300
            for i in range(0, len(v), 256):
                fh.write(_format_rows(v[i:i + 256]))


@dataclass
class TrialResult:
    outcome: Outcome
    swing_duration: float                 # s, toe-off to contact (or timeout horizon)
    peak_knee_flexion: float              # rad
    min_clearance: Optional[float]        # m over a box top; None if never crossed one
    landing_x: Optional[float]            # m, world x of the contact point
    landing_surface: Optional[Surface]
    target: ControlTarget                 # planner target, x_c absolute world x

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "swing_duration_s": round(self.swing_duration, 6),
            "peak_knee_flexion_rad": round(self.peak_knee_flexion, 6),
            "peak_knee_flexion_deg": round(self.peak_knee_flexion / DEG, 3),
            "min_clearance_m": None if self.min_clearance is None else round(self.min_clearance, 6),
            "landing_x_m": None if self.landing_x is None else round(self.landing_x, 6),
            "landing_surface": None if self.landing_surface is None else self.landing_surface.value,
            "target_z_m_m": round(self.target.z_m, 6),
            "target_x_c_world_m": round(self.target.x_c, 6),
        }


@dataclass(frozen=True)
class Contact:
    surface: Optional[Surface]   # None: a vertical box face
    x: float
    z: float

    def __str__(self) -> str:
        where = "a box face" if self.surface is None else self.surface.value
        return f"{where} at x = {self.x:.4f} m, z = {self.z:.4f} m"


class ToeOffContact(ValueError):
    """A swing that would start in contact; field names a campaign range whose first box does."""

    def __init__(self, says: str, contact: Contact, field: Optional[str] = None):
        super().__init__(says)
        self.contact, self.field = contact, field


def capture_state(cfg: TrialConfig) -> tuple:
    """Late-stance camera/toe state used for perception and box placement.

    The hip stands at cfg.resolved_human's base, already on the scene's ground.
    """
    hip = HipPose(x_h=0.0, z_h=cfg.resolved_human.hip_height_base, theta_h=CAPTURE_THETA_H)
    pts = forward_points(cfg.geometry, hip, CAPTURE_THETA_K)
    return hip, pts


def perceive(cfg: TrialConfig, seed_capture: int, seed_kmeans: int):
    """Run the full perception pipeline for one trial.

    Returns (target with x_c as a distance, keypoints-or-None, profile,
    capture toe). A profile that is empty, or whose highest point lies more
    than LEVEL_PROFILE_MARGIN below the toe, gives the level-ground target
    (z_t + delta, DEFAULT_X_C) unclustered, with keypoints None.
    """
    hip, pts = capture_state(cfg)
    toe = pts.toe
    pose = camera_pose_from_thigh(hip.x_h, hip.z_h, hip.theta_h, cfg.camera)
    cloud = capture(cfg.scene, pose, cfg.camera, seed_capture)
    flat = crop_and_project(cloud, corridor_width=cfg.corridor_width)
    flat = flat[(flat[:, 0] >= toe[0])
                & (flat[:, 0] <= toe[0] + PROFILE_AHEAD_CAP)]

    if flat.shape[0] == 0 or flat[:, 1].max() < toe[1] - LEVEL_PROFILE_MARGIN:
        kps, est = None, ObstacleEstimate(z_m_prime=toe[1])  # level ground at the toe
    else:
        kps = elevation_keypoints(flat, k=cfg.kmeans_k, seed=seed_kmeans,
                                  restarts=cfg.kmeans_restarts, z_weight=cfg.z_weight)
        est = extract_estimate(kps, toe, edge_threshold=cfg.edge_threshold)
    return control_modify(est, z_t=toe[1], delta=cfg.planner.delta), kps, flat, toe


def _segment_lowest_over_span(p0, p1, x_lo, x_hi):
    """Lowest z of segment p0->p1 restricted to x in [x_lo, x_hi].

    Returns (z, x) or None when the segment does not overlap the span.
    """
    (x0, z0), (x1, z1) = p0, p1
    if x1 < x0:
        x0, z0, x1, z1 = x1, z1, x0, z0
    # max(x0, x_lo) and min(x1, x_hi), spelled as the builtins' conditionals
    lo = x_lo if x_lo > x0 else x0
    hi = x_hi if x_hi < x1 else x1
    if lo > hi:
        return None
    if x1 - x0 < 1e-12:
        return (z1 if z1 < z0 else z0), x0
    zl = z0 + (z1 - z0) * (lo - x0) / (x1 - x0)
    zh = z0 + (z1 - z0) * (hi - x0) / (x1 - x0)
    return (zl, lo) if zl <= zh else (zh, hi)


def contact_check(pts: FootPoints, scene: ObstacleScene) -> tuple:
    """(contact, clearance) of the foot and shank against the scene: the
    tick's one scene query.

    contact is the first touch, or None: a vertical box face (surface None),
    the heel-toe or knee-ankle segment crossing it strictly between the
    ground and the box top; then the box top, the heel-toe segment reaching
    it over the box's span; then the ground outside every span. Whether a
    touch is a landing, trip or scuff is _classify's ruling.
    clearance is the least low - top over the boxes the heel-toe segment
    overlaps, low being its lowest z over the span, or None where it
    overlaps none; it counts every box, the one a contact is found on too.
    Heel and toe strictly above the ground, all four points strictly short of
    the first box or past the last (~3 ticks in 4): (None, None) unscanned, as
    sorted disjoint boxes put every face and span out of the scan's reach;
    a campaign without that early return took 1.033x at seed 2024 and
    1.036x at seed 7. The face scan compares signs: a product of the two offsets underflows to
    0 beside a face at x = 0 and would read a touch there.
    """
    g, spans = scene.ground_height, scene.spans
    knee, ankle, toe, heel = pts
    if heel[1] > g and toe[1] > g:
        front, back = scene.x_extent
        kx, ax, tx, hx = knee[0], ankle[0], toe[0], heel[0]
        if (kx < front and ax < front and tx < front and hx < front
                or kx > back and ax > back and tx > back and hx > back):
            return None, None
    segments = (heel + toe, knee + ankle)
    contact = clear = None
    for front_x, back_x, top in spans:
        hit = _segment_lowest_over_span(heel, toe, front_x, back_x)
        if hit is not None:
            gap = hit[0] - top
            if clear is None or gap < clear:
                clear = gap
        if contact is not None:
            continue
        for x0, z0, x1, z1 in segments:
            for face_x in (front_x, back_x):
                if (x0 < face_x and x1 < face_x or x0 > face_x and x1 > face_x
                        or abs(x1 - x0) < 1e-12):
                    continue
                z = z0 + (z1 - z0) * (face_x - x0) / (x1 - x0)
                if g < z < top - 1e-9:
                    contact = Contact(None, face_x, z)
                    break
            if contact is not None:
                break
        if contact is None and hit is not None and hit[0] <= top:
            contact = Contact(Surface.OBSTACLE_TOP, hit[1], hit[0])
    if contact is None:  # the ground, where no box was touched
        low, low_x = (heel[1], heel[0]) if heel[1] <= toe[1] else (toe[1], toe[0])
        if low <= g and not any(front_x <= low_x <= back_x
                                for front_x, back_x, _ in spans):
            contact = Contact(Surface.GROUND, low_x, low)
    return contact, clear


def _classify(contact: Optional[Contact], landing: bool, cfg: TrialConfig) -> tuple:
    """(outcome, landing x, surface) of the swing's last touch under the
    trial's intent, TIMEOUT without one. A landing on the intent's surface
    succeeds, a step-over's only past every box; any other touch, a face's
    too, trips on a box and scuffs on the ground."""
    if contact is None:
        return Outcome.TIMEOUT, None, None
    surface, x, intent = contact.surface, contact.x, cfg.intent
    if landing and surface is Surface.OBSTACLE_TOP and intent is GaitIntent.STEP_ON:
        return Outcome.SUCCESS_STEP_ON, x, surface
    if landing and surface is Surface.GROUND and intent is GaitIntent.LEVEL:
        return Outcome.SUCCESS_LEVEL, x, surface
    if (landing and surface is Surface.GROUND and intent is GaitIntent.STEP_OVER
            and x > cfg.scene.x_extent[1]):
        return Outcome.SUCCESS_STEP_OVER, x, surface
    return (Outcome.SCUFF if surface is Surface.GROUND else Outcome.TRIP), x, surface


def trial_seeds(seed: int) -> tuple:
    """(capture, kmeans, noise) seeds of one trial, spawned from its seed."""
    return tuple(int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(3))


def run_swing(cfg: TrialConfig, log: Optional[StepLog] = None) -> tuple:
    """Simulate one swing; returns (log, TrialResult).

    Rows are written only on request: run_swing(cfg, StepLog()) appends one
    row per tick to the log, and run_swing(cfg), as a campaign calls it,
    logs none and returns (None, result). The log only observes; the result
    is the same.
    """
    s_capture, s_kmeans, _ = trial_seeds(cfg.seed)

    target_rel, _, _, cap_toe = perceive(cfg, s_capture, s_kmeans)
    target = ControlTarget(z_m=target_rel.z_m, x_c=cap_toe[0] + target_rel.x_c)

    params = cfg.planner
    dt = params.dt
    t = 0.0
    track = cfg.hip_track   # to the timeout horizon
    hip = track[0]
    joint = JointState(theta_k=TOE_OFF_THETA_K, theta_k_dot=0.0, theta_k_ddot=0.0)
    state = PhaseState()

    peak_flex = joint.theta_k
    min_clear: Optional[float] = None
    contact: Optional[Contact] = None

    geom, scene, tau, knee_limit = cfg.geometry, cfg.scene, cfg.tracking_lag_tau, params.knee_limit
    if log is not None:  # each tick appends its row, as the planner saw and commanded it
        buf, index, pack = log.buf, _PHASE_INDEX, _ROW.pack
    # min/max below are the conditionals that return the builtins' operand
    # (see swing_planner)
    pts = cfg.toe_off
    for i in range(1, len(track)):
        # pts is the foot at this tick's hip and knee, shared with the planner
        cmd = planner_step(geom, hip, joint, pts, target, state, params)
        if log is not None:
            _, _, toe, heel = pts
            buf += pack(t, index[state.phase._value_], hip.theta_h, hip.theta_h_dot,
                        joint.theta_k, cmd.knee_vel_cmd, joint.theta_k_dot, hip.x_h, hip.z_h,
                        toe[0], toe[1], heel[0], heel[1], target.z_m, target.x_c, cmd.slope,
                        cmd.c_t, cmd.gamma_1)

        # integrate the velocity command over [t, t + dt), updating joint in place
        theta_k, v_prev = joint.theta_k, joint.theta_k_dot
        if tau > 0.0:
            v_new = v_prev + (dt / tau) * (cmd.knee_vel_cmd - v_prev)
        else:
            v_new = cmd.knee_vel_cmd
        theta_k_new = theta_k + v_new * dt
        theta_k_new = 0.0 if 0.0 > theta_k_new else theta_k_new
        theta_k_new = knee_limit if knee_limit < theta_k_new else theta_k_new
        v_actual = (theta_k_new - theta_k) / dt
        joint.theta_k, joint.theta_k_dot = theta_k_new, v_actual
        joint.theta_k_ddot = (v_actual - v_prev) / dt

        t += dt
        hip = track[i]
        prev, pts = pts, forward_points(geom, hip, theta_k_new)
        peak_flex = theta_k_new if theta_k_new > peak_flex else peak_flex
        contact, clear = contact_check(pts, scene)
        if clear is not None and (min_clear is None or clear < min_clear):
            min_clear = clear
        if contact is not None:
            break

    # a touch lands in the mirror sub-mode with the foot's low point below
    # the previous tick's; the first tick is never a landing
    landing = (state.phase is THREE_MIRROR and i > 1
               and min(pts.toe[1], pts.heel[1]) < min(prev.toe[1], prev.heel[1]))
    outcome, landing_x, surface = _classify(contact, landing, cfg)
    return log, TrialResult(
        outcome=outcome, swing_duration=t, peak_knee_flexion=peak_flex, min_clearance=min_clear,
        landing_x=landing_x, landing_surface=surface, target=target)


# ---------------------------------------------------------------------------
# campaigns


POSITIVES = POSITIVE._replace(says="be a non-empty tuple of positive, finite numbers", shape="list")
ORDERED_PAIR = FINITE._replace(says="be an ordered pair of finite numbers", shape="pair")


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = declare(at_least(0), "seed", 0, 2**64 - 1, default=2024)
    n_step_over: int = declare(at_least(0), "n_step_over", 0, 100_000, default=150)
    n_step_on: int = declare(at_least(0), "n_step_on", 0, 100_000, default=30)
    n_level: int = declare(at_least(0), "n_level", 0, 100_000, default=30)
    heights: tuple = declare(POSITIVES, "heights_m", *HEIGHT_RANGE_M, default=(0.04, 0.08, 0.16))
    step_on_height: float = declare(POSITIVE, "step_on_height_m", *HEIGHT_RANGE_M, default=0.16)
    # m ahead of the capture toe; the step-on range is the steppable window
    distance_range: tuple = declare(ORDERED_PAIR, "distance_range_m", 0.0, 3.0,
                                    default=(0.15, 0.70))
    step_on_distance_range: tuple = declare(ORDERED_PAIR, "step_on_distance_range_m", 0.0, 3.0,
                                            default=(0.50, 0.70))
    box_depth: float = declare(POSITIVE, "box_depth_m", *SIZE_RANGE_M, default=Box.depth)
    box_width: float = declare(POSITIVE, "box_width_m", *SIZE_RANGE_M, default=Box.width)
    base: TrialConfig = TrialConfig()   # its tracking_lag_tau is the file's tau_s
    expect_all_success: bool = declare(None, "expect_all_success", default=True)

    def __post_init__(self):
        check_rules(self)
        if self.n_step_over + self.n_step_on + self.n_level == 0:
            raise ValueError("n_step_over, n_step_on and n_level are all 0; "
                             "a campaign needs at least one trial")
        # before any trial runs, TrialConfig refuses each range's first box and every noisy trial.
        # At one seed every preset and aim starts from the base's foot: the base trial decides
        firsts = [("distance_range", h) for h in self.heights if self.n_step_over]
        if self.n_step_on:
            firsts.append(("step_on_distance_range", self.step_on_height))
        for field, height in firsts:
            low = getattr(self, field)[0]
            try:
                trial_config_for(self, TrialSpec(0, self.base.intent, height, low, self.base.seed))
            except ToeOffContact as exc:
                raise ToeOffContact(f"a {height:g} m box at {low:g} m touches the toe-off foot "
                                    f"({exc.contact}); start the range past the foot",
                                    exc.contact, field) from exc
        for spec in build_trial_specs(self) if self.base.resolved_human.noise_sigma > 0.0 else ():
            try:
                trial_config_for(self, spec)
            except ToeOffContact as exc:
                raise ToeOffContact(f"trial {spec.index}: {exc}", exc.contact) from exc

    @staticmethod
    def reproduction_profile(seed: int = 2024) -> "CampaignConfig":
        return CampaignConfig(seed=seed)


@dataclass(frozen=True)
class TrialSpec:
    index: int
    intent: GaitIntent
    height: Optional[float]
    distance: Optional[float]
    seed: int


@dataclass
class CampaignResult:
    specs: list
    results: list
    summary: dict


def build_trial_specs(cc: CampaignConfig) -> list:
    """Deterministic (box, distance, seed) draws for every trial."""
    master = np.random.SeedSequence(cc.seed)
    children = master.spawn(1 + cc.n_step_over + cc.n_step_on + cc.n_level)
    rng = np.random.default_rng(children[0])
    draws = [(GaitIntent.STEP_OVER, float(rng.choice(cc.heights)),
              float(rng.uniform(*cc.distance_range))) for _ in range(cc.n_step_over)]
    draws += [(GaitIntent.STEP_ON, cc.step_on_height,
               float(rng.uniform(*cc.step_on_distance_range))) for _ in range(cc.n_step_on)]
    draws += [(GaitIntent.LEVEL, None, None)] * cc.n_level
    return [TrialSpec(idx, intent, h, d, int(children[1 + idx].generate_state(1)[0]))
            for idx, (intent, h, d) in enumerate(draws)]


def trial_config_for(cc: CampaignConfig, spec: TrialSpec) -> TrialConfig:
    """The base trial with the spec's intent and seed, and its box, if any, spec.distance
    ahead of the base's capture toe, whose x no intent or hip moves, on the base's ground."""
    boxes = () if spec.height is None else (Box(
        front_x=capture_state(cc.base)[1].toe[0] + spec.distance, height=spec.height,
        depth=cc.box_depth, width=cc.box_width),)
    return replace(cc.base, scene=replace(cc.base.scene, boxes=boxes), intent=spec.intent,
                   seed=spec.seed)


def _run_one(args) -> TrialResult:
    cc, spec = args
    return run_swing(trial_config_for(cc, spec))[1]


def run_campaign(cc: CampaignConfig, jobs: int = 1) -> CampaignResult:
    """Run every trial (optionally in parallel; each trial owns its RNG
    stream) and aggregate per-condition statistics."""
    specs = build_trial_specs(cc)
    work = [(cc, s) for s in specs]
    if jobs > 1:
        import multiprocessing as mp
        with mp.Pool(jobs) as pool:
            results = pool.map(_run_one, work, chunksize=4)  # 8 default chunks idled a worker
    else:
        results = [_run_one(w) for w in work]
    return CampaignResult(specs=specs, results=results, summary=summarize(cc, specs, results))


def _condition_key(spec: TrialSpec) -> str:
    """level, or intent_h<height>: two decimals where they give the height
    exactly (h0.04), its repr otherwise (h0.041), so distinct heights never
    share a condition."""
    if spec.intent is GaitIntent.LEVEL:
        return "level"
    h = f"{spec.height:.2f}"
    return f"{spec.intent.value}_h{h if float(h) == spec.height else repr(spec.height)}"


def _stats(values) -> dict:
    vals = list(values)
    if not vals:
        return {"n": 0}
    return {
        "n": len(vals),
        "mean": round(sum(vals) / len(vals), 6),
        "min": round(min(vals), 6),
        "max": round(max(vals), 6),
    }


def summarize(cc: CampaignConfig, specs, results) -> dict:
    conditions = {}
    for spec, res in zip(specs, results):
        conditions.setdefault(_condition_key(spec), []).append(res)

    cond_summaries = {}
    for key, rs in sorted(conditions.items()):
        n_ok = sum(r.outcome in SUCCESSES for r in rs)
        cond_summaries[key] = {
            "n": len(rs),
            "n_success": n_ok,
            "success_rate": round(n_ok / len(rs), 6),
            "outcomes": dict(sorted(Counter(r.outcome.value for r in rs).items())),
            "swing_duration_s": _stats(r.swing_duration for r in rs),
            "peak_knee_flexion_deg": _stats(r.peak_knee_flexion / DEG for r in rs),
            "min_clearance_m": _stats(r.min_clearance for r in rs if r.min_clearance is not None),
        }

    from .config import dump_campaign  # config imports this module

    n = len(results)
    n_ok = sum(r.outcome in SUCCESSES for r in results)
    return {
        "campaign": dump_campaign(cc),
        "conditions": cond_summaries,
        "overall": {"n": n, "n_success": n_ok,
                    "success_rate": round(n_ok / n, 6)},
    }


def summary_json(obj: dict) -> str:
    """The text of every JSON file swingsim writes, less its final newline."""
    return json.dumps(obj, indent=2, sort_keys=True)


def write_trial_index_csv(path, specs, results) -> None:
    with open(path, "w") as fh:
        fh.write("trial,intent,height_m,distance_m,seed,outcome,duration_s,"
                 "peak_flexion_deg,min_clearance_m,landing_x_m\n")
        for spec, res in zip(specs, results):
            h = "" if spec.height is None else f"{spec.height:.6f}"
            d = "" if spec.distance is None else f"{spec.distance:.6f}"
            mc = "" if res.min_clearance is None else f"{res.min_clearance:.6f}"
            lx = "" if res.landing_x is None else f"{res.landing_x:.6f}"
            fh.write(f"{spec.index},{spec.intent.value},{h},{d},{spec.seed},"
                     f"{res.outcome.value},{res.swing_duration:.6f},"
                     f"{res.peak_knee_flexion / DEG:.6f},{mc},{lx}\n")
