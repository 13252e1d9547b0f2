"""Closed-loop swing trials at 1 kHz and randomized trial campaigns.

One trial is a single swing: a late-stance perception capture fixes the
control target, the swing starts at toe-off, and each tick reads the
human hip from the trajectory's shared hip_track (the hip is open loop),
runs the planner, integrates the commanded knee velocity (ideally or
through a first-order lag), and checks for contact. Geometric
contact stands in for the hardware's ground-reaction threshold: landing is
only recognized in the mirror sub-mode with the foot moving down; any other
surface intersection is a trip (obstacle) or scuff (ground).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .leg_kinematics import DEG, LegGeometry, HipPose, JointState, FootPoints, forward_points
from .perception import (
    Box,
    CameraModel,
    ControlTarget,
    ObstacleEstimate,
    ObstacleScene,
    camera_pose_from_thigh,
    capture,
    control_modify,
    crop_and_project,
    elevation_keypoints,
    extract_estimate,
)
from .swing_planner import Phase, PhaseState, PlannerParams, planner_step
from . import human_model
from .human_model import GaitIntent, HipTrajectoryParams

# Late-stance capture pose: thigh extended, knee flexed into pre-swing with
# the heel off the ground, which leaves the capture toe a couple of
# centimeters up (that toe height is the z_t entering the safety floor).
CAPTURE_THETA_H = -10.0 * DEG
CAPTURE_THETA_K = 28.0 * DEG

# Toe-off initial prosthesis configuration.
TOE_OFF_THETA_K = 10.0 * DEG

TIMEOUT_FACTOR = 2.0
# Profile window handed to the pruning stage, from the capture toe on:
# keypoints behind the capture toe carry no obstacle information, and past
# the nominal 1 m ground look-ahead the profile is frustum-edge noise;
# trimming both keeps the cluster budget on the stretch that matters.
PROFILE_AHEAD_CAP = 0.90  # m ahead of the capture toe


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
    intent: GaitIntent = GaitIntent.LEVEL
    geometry: LegGeometry = LegGeometry()
    planner: PlannerParams = PlannerParams()
    human: Optional[HipTrajectoryParams] = None   # None -> preset(intent)
    camera: CameraModel = CameraModel()
    seed: int = 0
    tracking_lag_tau: float = 0.0   # s; 0 = ideal velocity tracking
    aim_landing: bool = True        # cooperative step-on progression aiming
    kmeans_k: int = 50
    kmeans_restarts: int = 8
    corridor_width: float = 0.15
    z_weight: float = 6.0
    edge_threshold: float = 0.02

    def __post_init__(self):
        # the tick-wise lag update v += (dt / tau)(cmd - v) overshoots below one tick
        if not (self.tracking_lag_tau == 0.0 or self.tracking_lag_tau >= self.planner.dt):
            raise ValueError("tracking_lag_tau must be 0 (ideal tracking) or at least the "
                             f"planner tick {self.planner.dt} s, got {self.tracking_lag_tau}")


class LogRow(NamedTuple):
    """One tick of the step log, in LOG_COLUMNS order; zip(*rows) gives columns."""

    t: float
    phase: str
    theta_h: float
    theta_h_dot: float
    theta_k: float
    theta_k_dot_cmd: float
    theta_k_dot_actual: float
    x_h: float
    z_h: float
    x_t: float
    z_t: float
    x_l: float
    z_l: float
    z_m: float
    x_c: float
    k_slope: float
    c_t: float
    gamma_1: float


LOG_COLUMNS = (
    "t_s", "phase", "theta_h_rad", "theta_h_dot_rads", "theta_k_rad",
    "theta_k_dot_cmd_rads", "theta_k_dot_actual_rads", "x_h_m", "z_h_m",
    "x_t_m", "z_t_m", "x_l_m", "z_l_m", "z_m_m", "x_c_m", "k_slope", "c_t",
    "gamma_1",
)
# "%.6f" % v is the text of f"{v:.6f}" for every float, nan and inf included
ROW_FORMAT = "%.6f,%s," + ",".join(["%.6f"] * (len(LOG_COLUMNS) - 2)) + "\n"


@dataclass
class StepLog:
    """One LogRow per tick of a swing."""
    rows: list = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(LOG_COLUMNS) + "\n"
                     + "".join([ROW_FORMAT % row for row in self.rows]))


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
    kind: str              # "landing" | "trip" | "scuff"
    surface: Optional[Surface]
    x: float
    z: float


def capture_state(cfg: TrialConfig) -> tuple:
    """Late-stance camera/toe state used for perception and box placement.

    The hip stands at resolve_human's base, raised onto the scene's ground.
    """
    hip = HipPose(x_h=0.0, z_h=resolve_human(cfg).hip_height_base, theta_h=CAPTURE_THETA_H)
    pts = forward_points(cfg.geometry, hip, CAPTURE_THETA_K)
    return hip, pts


def perceive(cfg: TrialConfig, seed_capture: int, seed_kmeans: int):
    """Run the full perception pipeline for one trial.

    Returns (target with x_c as a distance, keypoints-or-None, profile,
    capture toe). An empty capture or crop degrades to the level-ground
    target rather than failing.
    """
    hip, pts = capture_state(cfg)
    toe = pts.toe
    pose = camera_pose_from_thigh(hip.x_h, hip.z_h, hip.theta_h, cfg.camera)
    cloud = capture(cfg.scene, pose, cfg.camera, seed_capture)
    flat = crop_and_project(cloud, corridor_width=cfg.corridor_width)
    flat = flat[(flat[:, 0] >= toe[0])
                & (flat[:, 0] <= toe[0] + PROFILE_AHEAD_CAP)]

    if flat.shape[0] == 0:
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
    lo, hi = max(x0, x_lo), min(x1, x_hi)
    if lo > hi:
        return None
    if x1 - x0 < 1e-12:
        z = min(z0, z1)
        return z, x0
    zl = z0 + (z1 - z0) * (lo - x0) / (x1 - x0)
    zh = z0 + (z1 - z0) * (hi - x0) / (x1 - x0)
    return (zl, lo) if zl <= zh else (zh, hi)


def _crosses_face(p0, p1, face_x, z_lo, z_hi):
    """z at which segment p0->p1 crosses the vertical line x = face_x, if the
    crossing lies inside (z_lo, z_hi)."""
    (x0, z0), (x1, z1) = p0, p1
    if (x0 - face_x) * (x1 - face_x) > 0.0 or abs(x1 - x0) < 1e-12:
        return None
    z = z0 + (z1 - z0) * (face_x - x0) / (x1 - x0)
    if z_lo < z < z_hi:
        return z
    return None


def span_lows(pts: FootPoints, scene: ObstacleScene) -> list:
    """(front_x, back_x, top, low) of each box span of the scene, where low is
    the lowest (z, x) of the heel-toe segment over the span, None where it
    does not overlap; computed once per tick for contact_check and the
    clearance scan."""
    heel, toe = pts.heel, pts.toe
    rows = []  # a loop, not a comprehension: cheaper per tick on Python 3.11
    for front_x, back_x, top in scene.spans:
        rows.append((front_x, back_x, top, _segment_lowest_over_span(heel, toe, front_x, back_x)))
    return rows


def contact_check(pts: FootPoints, scene: ObstacleScene, lows: list, in_mirror: bool,
                  downward: bool) -> Optional[Contact]:
    """Classify foot/shank contact with the scene, if any.

    lows must be span_lows(pts, scene). Vertical box faces always trip.
    Surface touches land only in the mirror sub-mode with downward foot
    velocity; otherwise they are trips (box top) or scuffs (ground).
    """
    g = scene.ground_height
    heel, toe = pts.heel, pts.toe
    segments = ((heel, toe), (pts.knee, pts.ankle))

    for front_x, back_x, top, hit in lows:
        for p0, p1 in segments:
            for face_x in (front_x, back_x):
                z = _crosses_face(p0, p1, face_x, g, top - 1e-9)
                if z is not None:
                    return Contact("trip", None, face_x, z)
        if hit is not None and hit[0] <= top:
            z, x = hit
            if in_mirror and downward:
                return Contact("landing", Surface.OBSTACLE_TOP, x, z)
            return Contact("trip", Surface.OBSTACLE_TOP, x, z)

    low, low_x = (heel[1], heel[0]) if heel[1] <= toe[1] else (toe[1], toe[0])
    if low <= g:
        covered = any(front_x <= low_x <= back_x for front_x, back_x, _ in scene.spans)
        if not covered:
            if in_mirror and downward:
                return Contact("landing", Surface.GROUND, low_x, low)
            return Contact("scuff", Surface.GROUND, low_x, low)
    return None


def toe_off_contact(cfg: TrialConfig) -> Optional[Contact]:
    """Contact of the noise-free toe-off foot with the scene, if any: a leg,
    hip base and scene that put the foot into the ground or a box before
    the swing starts."""
    hip = human_model.hip_pose(resolve_human(cfg), 0.0)
    pts = forward_points(cfg.geometry, hip, TOE_OFF_THETA_K)
    return contact_check(pts, cfg.scene, span_lows(pts, cfg.scene), False, False)


def _classify(contact: Optional[Contact], cfg: TrialConfig) -> tuple:
    """Map a contact event to a trial outcome under the trial's intent."""
    if contact is None:
        return Outcome.TIMEOUT, None, None
    if contact.kind == "trip":
        return Outcome.TRIP, contact.x, contact.surface
    if contact.kind == "scuff":
        return Outcome.SCUFF, contact.x, contact.surface

    surface = contact.surface
    if cfg.intent is GaitIntent.LEVEL:
        out = Outcome.SUCCESS_LEVEL if surface is Surface.GROUND else Outcome.TRIP
    elif cfg.intent is GaitIntent.STEP_ON:
        out = Outcome.SUCCESS_STEP_ON if surface is Surface.OBSTACLE_TOP else Outcome.SCUFF
    elif surface is not Surface.GROUND:  # STEP_OVER onto a box top
        out = Outcome.TRIP
    else:  # STEP_OVER clears its boxes only by landing past every one of them
        clear = all(contact.x > back_x for _, back_x, _ in cfg.scene.spans)
        out = Outcome.SUCCESS_STEP_OVER if clear else Outcome.SCUFF
    return out, contact.x, surface


def resolve_human(cfg: TrialConfig) -> HipTrajectoryParams:
    """Preset resolution, the hip base raised onto the scene's ground, and
    the cooperative step-on aiming."""
    params = cfg.human if cfg.human is not None else human_model.preset(cfg.intent)
    params = replace(params, hip_height_base=params.hip_height_base + cfg.scene.ground_height)
    if (cfg.aim_landing and cfg.intent is GaitIntent.STEP_ON
            and len(cfg.scene.boxes) == 1):
        box = cfg.scene.boxes[0]
        params = human_model.aim_step_on_progression(
            params, box.front_x, box.depth, thigh=cfg.geometry.thigh_m)
    return params


def trial_seeds(seed: int) -> tuple:
    """(capture, kmeans, noise) seeds of one trial, spawned from its seed."""
    return tuple(int(c.generate_state(1)[0]) for c in np.random.SeedSequence(seed).spawn(3))


def run_swing(cfg: TrialConfig) -> tuple:
    """Simulate one swing; returns (StepLog, TrialResult)."""
    s_capture, s_kmeans, s_noise = trial_seeds(cfg.seed)

    human = resolve_human(cfg)
    target_rel, _, _, cap_toe = perceive(cfg, s_capture, s_kmeans)
    target = ControlTarget(z_m=target_rel.z_m, x_c=cap_toe[0] + target_rel.x_c)

    params = cfg.planner
    dt = params.dt
    t = 0.0
    noise_seed = s_noise if human.noise_sigma > 0.0 else None
    track = human_model.hip_track(human, noise_seed, dt)
    i = 0
    hip = track[0]
    joint = JointState(theta_k=TOE_OFF_THETA_K, theta_k_dot=0.0, theta_k_ddot=0.0)
    state = PhaseState()
    log = StepLog()

    horizon = TIMEOUT_FACTOR * human.swing_duration
    peak_flex = joint.theta_k
    min_clear: Optional[float] = None
    contact: Optional[Contact] = None
    prev_low = None

    geom, scene, tau = cfg.geometry, cfg.scene, cfg.tracking_lag_tau
    rows = log.rows
    pts = forward_points(geom, hip, joint.theta_k)
    heel, toe = pts.heel, pts.toe
    while t < horizon + dt / 2:
        # pts is the foot at this tick's hip and knee, shared with the planner
        cmd = planner_step(geom, hip, joint, pts, target, state, params)
        rows.append(LogRow(
            t, state.phase.value, hip.theta_h, hip.theta_h_dot, joint.theta_k,
            cmd.knee_vel_cmd, joint.theta_k_dot, hip.x_h, hip.z_h, toe[0], toe[1],
            heel[0], heel[1], target.z_m, target.x_c, cmd.slope, cmd.c_t, cmd.gamma_1))

        # integrate the velocity command over [t, t + dt), updating joint in place
        theta_k, v_prev = joint.theta_k, joint.theta_k_dot
        if tau > 0.0:
            v_new = v_prev + (dt / tau) * (cmd.knee_vel_cmd - v_prev)
        else:
            v_new = cmd.knee_vel_cmd
        theta_k_new = min(max(theta_k + v_new * dt, 0.0), params.knee_limit)
        v_actual = (theta_k_new - theta_k) / dt
        joint.theta_k, joint.theta_k_dot = theta_k_new, v_actual
        joint.theta_k_ddot = (v_actual - v_prev) / dt

        t += dt
        i += 1
        hip = track[i]
        pts = forward_points(geom, hip, joint.theta_k)
        heel, toe = pts.heel, pts.toe
        peak_flex = max(peak_flex, joint.theta_k)

        lows = span_lows(pts, scene)
        for _, _, top, hit in lows:
            if hit is not None:
                clear = hit[0] - top
                min_clear = clear if min_clear is None else min(min_clear, clear)

        low_now = min(heel[1], toe[1])
        downward = prev_low is not None and low_now < prev_low
        prev_low = low_now
        contact = contact_check(pts, scene, lows, state.phase is Phase.THREE_MIRROR, downward)
        if contact is not None:
            break

    outcome, landing_x, surface = _classify(contact, cfg)
    return log, TrialResult(
        outcome=outcome, swing_duration=t, peak_knee_flexion=peak_flex, min_clearance=min_clear,
        landing_x=landing_x, landing_surface=surface, target=target)


# ---------------------------------------------------------------------------
# campaigns


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 2024
    n_step_over: int = 150
    n_step_on: int = 30
    n_level: int = 30
    heights: tuple = (0.04, 0.08, 0.16)
    step_on_height: float = 0.16
    distance_range: tuple = (0.15, 0.70)
    step_on_distance_range: tuple = (0.50, 0.70)   # steppable window; see notes
    box_depth: float = Box.depth
    box_width: float = Box.width
    base: TrialConfig = TrialConfig()
    expect_all_success: bool = True

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
    specs = []
    idx = 0
    for _ in range(cc.n_step_over):
        h = float(rng.choice(cc.heights))
        d = float(rng.uniform(*cc.distance_range))
        specs.append(TrialSpec(idx, GaitIntent.STEP_OVER, h, d,
                               int(children[1 + idx].generate_state(1)[0])))
        idx += 1
    for _ in range(cc.n_step_on):
        d = float(rng.uniform(*cc.step_on_distance_range))
        specs.append(TrialSpec(idx, GaitIntent.STEP_ON, cc.step_on_height, d,
                               int(children[1 + idx].generate_state(1)[0])))
        idx += 1
    for _ in range(cc.n_level):
        specs.append(TrialSpec(idx, GaitIntent.LEVEL, None, None,
                               int(children[1 + idx].generate_state(1)[0])))
        idx += 1
    return specs


def trial_config_for(cc: CampaignConfig, spec: TrialSpec) -> TrialConfig:
    base = cc.base
    if spec.height is None:
        scene = ObstacleScene(boxes=())
    else:
        _, cap_pts = capture_state(replace(base, intent=spec.intent))
        front = cap_pts.toe[0] + spec.distance
        scene = ObstacleScene(boxes=(
            Box(front_x=front, height=spec.height, depth=cc.box_depth,
                width=cc.box_width),))
    return replace(base, scene=scene, intent=spec.intent, seed=spec.seed)


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
            results = pool.map(_run_one, work)
    else:
        results = [_run_one(w) for w in work]
    return CampaignResult(specs=specs, results=results, summary=summarize(cc, specs, results))


def _condition_key(spec: TrialSpec) -> str:
    if spec.intent is GaitIntent.LEVEL:
        return "level"
    return f"{spec.intent.value}_h{spec.height:.2f}"


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
        key = _condition_key(spec)
        conditions.setdefault(key, []).append((spec, res))

    cond_summaries = {}
    for key in sorted(conditions):
        entries = conditions[key]
        ok = [r for _, r in entries if r.outcome in SUCCESSES]
        clear = [r.min_clearance for _, r in entries if r.min_clearance is not None]
        outcome_counts = {}
        for _, r in entries:
            outcome_counts[r.outcome.value] = outcome_counts.get(r.outcome.value, 0) + 1
        cond_summaries[key] = {
            "n": len(entries),
            "n_success": len(ok),
            "success_rate": round(len(ok) / len(entries), 6),
            "outcomes": dict(sorted(outcome_counts.items())),
            "swing_duration_s": _stats(r.swing_duration for _, r in entries),
            "peak_knee_flexion_deg": _stats(r.peak_knee_flexion / DEG for _, r in entries),
            "min_clearance_m": _stats(clear),
        }

    from .config import dump_campaign  # config imports this module

    n = len(results)
    n_ok = sum(1 for r in results if r.outcome in SUCCESSES)
    return {
        "campaign": dump_campaign(cc),
        "conditions": cond_summaries,
        "overall": {"n": n, "n_success": n_ok,
                    "success_rate": round(n_ok / n, 6) if n else 0.0},
    }


def summary_json(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True)


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
