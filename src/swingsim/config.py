"""Scenario and campaign files: strict JSON with unit-suffixed keys.

A scenario has the sections geometry, camera, planner, human, scene and
trial; a campaign file is one flat object. Each key is declared once, with
its dataclass field (leg_kinematics.declare): file key, kind and inclusive
valid range in file units (for a list, of each element), inside the field's
physical rule. The tables below are read from those declarations, and
parsing, dumping and validation read only these tables; a missing key keeps
the dataclass default, or for human the intent's preset. An unknown key, a
wrong type, or a non-finite or out-of-range value raises ConfigError naming
the key path, e.g. `scene.boxes[0].height_m`; a rule the library refuses at
construction, one joining several fields, names the section.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, fields, replace
from typing import NamedTuple

from .leg_kinematics import DEG, LegGeometry
from .perception import Box, CameraModel, ObstacleScene
from .swing_planner import PlannerParams
from .human_model import GaitIntent, HipTrajectoryParams, preset
from .sim_harness import CampaignConfig, ToeOffContact, TrialConfig


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


def _rows(cls) -> tuple:
    """The file row of each field of cls that declares one, in field order;
    a field without a default is a required key."""
    rows = []
    for f in fields(cls):
        if "file" not in f.metadata:
            continue
        key, lo, hi = f.metadata["file"]
        rule = f.metadata["rule"]
        if rule is None:  # not a number
            kind = {bool: bool, GaitIntent: GaitIntent, tuple: BOXES}[type(f.default)]
            lo, hi = -math.inf, math.inf
        else:
            kind = {"list": FLOATS, "pair": PAIR}.get(
                rule.shape, int if rule.integer else DEGREES if key.endswith("_deg") else float)
        rows.append(Field(key, f.name, kind, lo, hi, required=f.default is MISSING))
    return tuple(rows)


GEOMETRY = _rows(LegGeometry)
CAMERA = _rows(CameraModel)
PLANNER = _rows(PlannerParams)
# a missing key keeps the intent's preset, swing_duration_s too
HUMAN = tuple(f._replace(required=False) for f in _rows(HipTrajectoryParams))
BOX = _rows(Box)
SCENE = _rows(ObstacleScene)
_TRIAL_ROW = {f.attr: f for f in _rows(TrialConfig)}   # TrialConfig's rows by field name
INTENT, SEED, TAU = _TRIAL_ROW.pop("intent"), _TRIAL_ROW["seed"], _TRIAL_ROW["tracking_lag_tau"]
TRIAL = tuple(_TRIAL_ROW.values())   # intent is a key of the human section
SECTIONS = {"geometry": GEOMETRY, "camera": CAMERA, "planner": PLANNER,
            "human": (INTENT, *HUMAN), "scene": SCENE, "trial": TRIAL}

# tau_s sets the lag of every trial (CampaignConfig.base)
CAMPAIGN = (*_rows(CampaignConfig), TAU)


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
    if not fields and not isinstance(default, type):
        return default  # a section that sets no key keeps its default object
    try:
        return default(**fields) if isinstance(default, type) else replace(default, **fields)
    except ToeOffContact as exc:  # no one key places the foot: name the range, or the sections
        where = next((f"campaign.{f.key}[0]" for f in CAMPAIGN if f.attr == exc.field), None)
        noisy = where is None and fields["human"].noise_sigma > 0.0  # the seed moves a noisy foot
        keys = "human.theta_h_start_deg" + ", human.noise_sigma_deg, trial.seed" * noisy
        raise ConfigError(f"{where}: {exc}" if where else f"scenario: {exc}; geometry, "
                          f"human.hip_height_base_m, {keys} and scene must leave it clear") from exc
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


def parse_scenario(data, seed=None) -> TrialConfig:
    """Validate a parsed scenario mapping and build the TrialConfig, at seed
    in place of trial.seed if given. A toe-off foot already touching the
    scene is rejected: its swing would end at the first tick."""
    if not isinstance(data, dict):
        raise ConfigError("scenario: top level must be an object")
    for key in data:
        if key not in SECTIONS:
            raise ConfigError(f"scenario.{key}: unknown section "
                              f"(known: {', '.join(sorted(SECTIONS))})")
    sec = {name: _fields(name, table, data.get(name, {})) for name, table in SECTIONS.items()}
    if seed is not None:  # a noisy hip's toe-off foot moves with the seed: check the one run
        sec["trial"][SEED.attr] = seed
    intent = sec["human"].pop(INTENT.attr, TrialConfig.intent)
    return _build("trial", TrialConfig, dict(
        sec["trial"], intent=intent,
        geometry=_build("geometry", TrialConfig.geometry, sec["geometry"]),
        camera=_build("camera", TrialConfig.camera, sec["camera"]),
        planner=_build("planner", TrialConfig.planner, sec["planner"]),
        human=_build("human", preset(intent), sec["human"]),
        scene=_build("scene", TrialConfig.scene, sec["scene"])))


def dump_scenario(cfg: TrialConfig) -> dict:
    """Resolved configuration. parse(dump(cfg)) round-trips identically for
    a cfg read from a file; an angle built in the library that no double of
    degrees gives back (_degrees) comes back within one ulp."""
    return {
        "geometry": _dump(GEOMETRY, cfg.geometry),
        "camera": _dump(CAMERA, cfg.camera),
        "planner": _dump(PLANNER, cfg.planner),
        "human": {INTENT.key: cfg.intent.value,
                  **_dump(HUMAN, cfg.human or preset(cfg.intent))},
        "scene": _dump(SCENE, cfg.scene),
        "trial": _dump(TRIAL, cfg),
    }


def parse_campaign(data, seed=None) -> CampaignConfig:
    """Validate a parsed campaign mapping and build the CampaignConfig, at seed
    in place of the file's if given; CampaignConfig refuses a campaign of no
    trials, and a distance range starting under the toe-off foot."""
    fields = _fields("campaign", CAMPAIGN, data)
    if seed is not None:
        fields[SEED.attr] = seed
    if TAU.attr in fields:
        fields["base"] = _build("campaign", CampaignConfig.base, {TAU.attr: fields.pop(TAU.attr)})
    return _build("campaign", CampaignConfig, fields)


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


def load_scenario(path: str, seed=None) -> TrialConfig:
    return parse_scenario(load_json(path), seed)
