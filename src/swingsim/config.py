"""Scenario and campaign files: strict JSON with unit-suffixed keys.

A scenario has the sections geometry, camera, planner, human, scene and
trial; a campaign file is one flat object. Each key is declared once, as a
row of a table below: file key, dataclass attribute, kind, and inclusive
valid range in file units (for a list, of each element). Parsing, dumping
and validation read only these tables; a missing key keeps the dataclass
default, or for human the intent's preset. An unknown key, a wrong type, or
a non-finite or out-of-range value raises ConfigError naming the key path,
e.g. `scene.boxes[0].height_m`; a `__post_init__` check that joins several
fields names the section.
"""
from __future__ import annotations

import json
import math
from dataclasses import replace
from typing import NamedTuple

from .leg_kinematics import DEG, LegGeometry
from .perception import Box, CameraModel, ObstacleScene
from .swing_planner import PlannerParams
from .human_model import GaitIntent, preset
from .sim_harness import CampaignConfig, TrialConfig, TrialSpec, toe_off_contact, trial_config_for


class ConfigError(ValueError):
    """A scenario or campaign file failed validation; the message carries the key path."""


# kinds besides float, int, bool and GaitIntent
DEGREES = "degrees"  # a float in degrees, held in radians
FLOATS = "a non-empty list of numbers"
PAIR = "a [low, high] pair"
BOXES = "a list of boxes"


class Field(NamedTuple):
    key: str
    attr: str
    kind: object
    lo: float = -math.inf
    hi: float = math.inf
    required: bool = False


GEOMETRY = (
    Field("thigh_m", "thigh_m", float, 0.3, 0.6),
    Field("shank_m", "shank_m", float, 0.3, 0.6),
    Field("toe_m", "toe_m", float, 0.05, 0.3),
    Field("heel_m", "heel_m", float, 0.02, 0.15),
)
CAMERA = (
    Field("fov_deg", "fov", DEGREES, 10.0, 170.0),
    Field("max_range_m", "max_range", float, 0.1, 10.0),
    Field("rays_vertical", "rays_vertical", int, 2, 500),
    Field("rays_lateral", "rays_lateral", int, 2, 21),
    Field("mount_along_thigh_m", "mount_along_thigh", float, 0.0, 0.5),
    Field("mount_perp_m", "mount_perp", float, -0.2, 0.2),
    Field("mount_pitch_deg", "mount_pitch", DEGREES, -90.0, 90.0),
    Field("noise_sigma_m", "depth_noise_sigma", float, 0.0, 0.05),
)
PLANNER = (
    Field("delta_m", "delta", float, 0.001, 0.1),
    Field("theta0_deg", "theta_0", DEGREES, 0.5, 30.0),
    Field("kmax", "k_max", float, 0.5, 50.0),
    Field("alpha1", "alpha_1", float, 0.001, 1.0),
    Field("alpha2", "alpha_2", float, 0.001, 1.0),
    # outcomes are not monotone in the tick: over the 0.25 ms grid from 0.5 to 5 ms,
    # seed-2024 step-overs first turn into trips at 1.75 ms, so 1.5 ms is the last
    # tick at and below which every campaign outcome holds
    Field("dt_s", "dt", float, 0.0005, 0.0015),
    Field("conv_tol_deg", "conv_tol", DEGREES, 0.05, 10.0),
    Field("knee_limit_deg", "knee_limit", DEGREES, 30.0, 150.0),
)
INTENT = Field("intent", "intent", GaitIntent)
HUMAN = (
    Field("swing_duration_s", "swing_duration", float, 0.3, 1.5),
    Field("theta_h_start_deg", "theta_h_start", DEGREES, -45.0, 10.0),
    Field("theta_h_end_deg", "theta_h_end", DEGREES, 5.0, 75.0),
    Field("hip_height_base_m", "hip_height_base", float, 0.6, 1.2),
    Field("hip_lift_m", "hip_lift_amplitude", float, 0.0, 0.15),
    Field("lift_peak_fraction", "lift_peak_fraction", float, 0.1, 1.0),
    Field("forward_speed_mps", "forward_speed", float, 0.1, 2.5),
    Field("progression_stop_fraction", "progression_stop_fraction", float, 0.01, 1.0),
    Field("rise_fraction", "rise_fraction", float, 0.2, 1.0),
    Field("lowering_onset_fraction", "lowering_onset_fraction", float, 0.2, 1.0),
    Field("lowering_depth_m", "lowering_depth", float, 0.0, 0.2),
    Field("extension_decay_rps2", "extension_decay", float, 0.5, 100.0),
    Field("extension_rate_rps", "extension_rate", float, 0.0, 10.0),
    # a sigma of 1 deg keeps the noisy hip angle inside HipPose's bound
    # around the profile's +-80 deg reach (human_model.THETA_H_LIMIT)
    Field("noise_sigma_deg", "noise_sigma", DEGREES, 0.0, 1.0),
)
HEIGHT = Field("height_m", "height", float, 0.005, 0.5, required=True)
DEPTH = Field("depth_m", "depth", float, 0.01, 2.0)
WIDTH = Field("width_m", "width", float, 0.01, 2.0)
BOX = (Field("front_x_m", "front_x", float, -2.0, 5.0, required=True), HEIGHT, DEPTH, WIDTH)
SCENE = (
    Field("ground_height_m", "ground_height", float, -0.3, 0.5),
    Field("boxes", "boxes", BOXES),
)
SEED = Field("seed", "seed", int, 0, 2**64 - 1)
TAU = Field("tau_s", "tracking_lag_tau", float, 0.0, 0.5)
TRIAL = (
    SEED,
    TAU,
    Field("kmeans_k", "kmeans_k", int, 1, 100),
    Field("kmeans_restarts", "kmeans_restarts", int, 1, 20),
    Field("corridor_width_m", "corridor_width", float, 0.01, 1.0),
    Field("z_weight", "z_weight", float, 0.1, 50.0),
    Field("edge_threshold_m", "edge_threshold", float, 0.001, 0.2),
)
SECTIONS = {"geometry": GEOMETRY, "camera": CAMERA, "planner": PLANNER,
            "human": (INTENT, *HUMAN), "scene": SCENE, "trial": TRIAL}

DISTANCES = Field("distance_range_m", "distance_range", PAIR, 0.0, 3.0)
STEP_ON_DISTANCES = Field("step_on_distance_range_m", "step_on_distance_range", PAIR, 0.0, 3.0)
# tau_s sets the lag of every trial (CampaignConfig.base)
CAMPAIGN = (
    SEED,
    Field("n_step_over", "n_step_over", int, 0, 100_000),
    Field("n_step_on", "n_step_on", int, 0, 100_000),
    Field("n_level", "n_level", int, 0, 100_000),
    Field("heights_m", "heights", FLOATS, HEIGHT.lo, HEIGHT.hi),
    Field("step_on_height_m", "step_on_height", float, HEIGHT.lo, HEIGHT.hi),
    DISTANCES,
    STEP_ON_DISTANCES,
    Field("box_depth_m", "box_depth", float, DEPTH.lo, DEPTH.hi),
    Field("box_width_m", "box_width", float, WIDTH.lo, WIDTH.hi),
    Field("expect_all_success", "expect_all_success", bool),
    TAU,
)


def _number(path: str, f: Field, v):
    if isinstance(v, bool) or not isinstance(v, int if f.kind is int else (int, float)):
        raise ConfigError(f"{path}: expected {'int' if f.kind is int else 'float'}, "
                          f"got {type(v).__name__}")
    if not f.lo <= v <= f.hi:  # NaN fails too
        raise ConfigError(f"{path}: {v!r} is outside [{f.lo}, {f.hi}]")
    return v if f.kind is int else float(v)


def check(path: str, f: Field, v):
    """File value `v` of row `f`, validated and converted to dataclass units."""
    if f.kind is GaitIntent:
        names = [i.value for i in GaitIntent]
        if v not in names:
            raise ConfigError(f"{path}: {v!r} is not one of {', '.join(names)}")
        return GaitIntent(v)
    if f.kind is bool:
        if not isinstance(v, bool):
            raise ConfigError(f"{path}: expected bool, got {type(v).__name__}")
        return v
    if f.kind is BOXES:
        if not isinstance(v, list):
            raise ConfigError(f"{path}: expected {BOXES}")
        return tuple(_build(f"{path}[{i}]", Box, _fields(f"{path}[{i}]", BOX, b))
                     for i, b in enumerate(v))
    if f.kind in (FLOATS, PAIR):
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{path}: expected {f.kind}")
        vals = tuple(_number(f"{path}[{i}]", f, x) for i, x in enumerate(v))
        if f.kind is PAIR and not (len(vals) == 2 and vals[0] <= vals[1]):
            raise ConfigError(f"{path}: expected {PAIR}, got {v}")
        return vals
    x = _number(path, f, v)
    return x * DEG if f.kind is DEGREES else x


def _fields(path: str, table, raw) -> dict:
    """{attribute: value} for the keys the object `raw` sets."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object, got {type(raw).__name__}")
    rows = {f.key: f for f in table}
    for key in raw:
        if key not in rows:
            raise ConfigError(f"{path}.{key}: unknown key (known: {', '.join(sorted(rows))})")
    for f in table:
        if f.required and f.key not in raw:
            raise ConfigError(f"{path}.{f.key}: missing required key")
    return {rows[k].attr: check(f"{path}.{k}", rows[k], v) for k, v in raw.items()}


def _build(path: str, default, fields: dict):
    """`default` (an object, or a class) with `fields`; ValueError -> ConfigError(path)."""
    try:
        return default(**fields) if isinstance(default, type) else replace(default, **fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _degrees(rad: float) -> float:
    """The shortest decimal d with d * DEG == rad, else rad / DEG."""
    d = rad / DEG
    for digits in range(16):
        if round(d, digits) * DEG == rad:
            return round(d, digits)
    return d


def _dump(table, obj) -> dict:
    out = {}
    for f in table:
        v = getattr(obj, f.attr)
        if f.kind is DEGREES:
            v = _degrees(v)
        elif f.kind is BOXES:
            v = [_dump(BOX, b) for b in v]
        out[f.key] = v
    return out


def parse_scenario(data) -> TrialConfig:
    """Validate a parsed scenario mapping and build the TrialConfig. A
    scenario whose toe-off foot already touches the scene is rejected: its
    swing would end at the first tick."""
    if not isinstance(data, dict):
        raise ConfigError("scenario: top level must be an object")
    for key in data:
        if key not in SECTIONS:
            raise ConfigError(f"scenario.{key}: unknown section "
                              f"(known: {', '.join(sorted(SECTIONS))})")
    sec = {name: _fields(name, table, data.get(name, {})) for name, table in SECTIONS.items()}
    base = TrialConfig(intent=sec["human"].pop(INTENT.attr, TrialConfig.intent))
    cfg = _build("trial", base, dict(
        sec["trial"],
        geometry=_build("geometry", base.geometry, sec["geometry"]),
        camera=_build("camera", base.camera, sec["camera"]),
        planner=_build("planner", base.planner, sec["planner"]),
        human=_build("human", preset(base.intent), sec["human"]),
        scene=_build("scene", base.scene, sec["scene"])))
    contact = toe_off_contact(cfg)
    if contact is not None:
        raise ConfigError(f"scenario: the toe-off foot already touches the scene ({contact}); "
                          f"geometry, human.hip_height_base_m and scene must leave it clear")
    return cfg


def dump_scenario(cfg: TrialConfig) -> dict:
    """Resolved configuration; parse(dump(cfg)) round-trips identically."""
    return {
        "geometry": _dump(GEOMETRY, cfg.geometry),
        "camera": _dump(CAMERA, cfg.camera),
        "planner": _dump(PLANNER, cfg.planner),
        "human": {INTENT.key: cfg.intent.value,
                  **_dump(HUMAN, cfg.human or preset(cfg.intent))},
        "scene": _dump(SCENE, cfg.scene),
        "trial": _dump(TRIAL, cfg),
    }


def parse_campaign(data) -> CampaignConfig:
    """Validate a parsed campaign mapping; missing keys keep the reproduction
    profile. A campaign of no trials, and a distance range starting under the
    toe-off foot, are rejected."""
    fields = _fields("campaign", CAMPAIGN, data)
    cc = CampaignConfig.reproduction_profile()
    if TAU.attr in fields:
        fields["base"] = _build("campaign", cc.base, {TAU.attr: fields.pop(TAU.attr)})
    cc = replace(cc, **fields)
    if cc.n_step_over + cc.n_step_on + cc.n_level == 0:
        raise ConfigError("campaign: n_step_over, n_step_on and n_level are all 0; "
                          "a campaign needs at least one trial")
    boxes = [(DISTANCES, GaitIntent.STEP_OVER, h) for h in cc.heights] if cc.n_step_over else []
    if cc.n_step_on:
        boxes.append((STEP_ON_DISTANCES, GaitIntent.STEP_ON, cc.step_on_height))
    for f, intent, height in boxes:
        low = getattr(cc, f.attr)[0]
        contact = toe_off_contact(trial_config_for(cc, TrialSpec(0, intent, height, low, 0)))
        if contact is not None:
            raise ConfigError(f"campaign.{f.key}[0]: a {height:g} m box at {low:g} m touches "
                              f"the toe-off foot ({contact}); start the range past the foot")
    return cc


def dump_campaign(cc: CampaignConfig) -> dict:
    """Every campaign key, tau_s read from the base trial; parse_campaign
    round-trips it."""
    return _dump([f for f in CAMPAIGN if f is not TAU], cc) | _dump((TAU,), cc.base)


def load_json(path: str):
    """Parsed JSON of a file; an unreadable file, bad JSON or a repeated key is a ConfigError."""
    def unique_keys(pairs) -> dict:
        keys = [key for key, _ in pairs]
        if len(set(keys)) < len(keys):
            raise ValueError(f"duplicate key {max(keys, key=keys.count)!r}")
        return dict(pairs)
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    # also a repeated key, bad UTF-8, a 4,300-digit int, a value nested ~1,000 deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_scenario(path: str) -> TrialConfig:
    return parse_scenario(load_json(path))
