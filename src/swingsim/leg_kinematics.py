"""Sagittal two-link leg model with a rigid foot held perpendicular to the shank.

Angle conventions (fixed once, used everywhere):
    theta_h: thigh angle from world vertical, positive = flexed forward
    theta_k: knee flexion, positive rotates the shank backward relative to the thigh
    shank angle from vertical = theta_h - theta_k, positive = forward lean

World frame: x forward, z up. The foot is the line segment heel->toe through
the ankle; it carries no thickness.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from itertools import repeat
from math import cos, sin
from typing import NamedTuple, Optional

import numpy as np

DEG = math.pi / 180.0
_new_tuple = tuple.__new__  # a NamedTuple built without its Python-level __new__


def _each(f, x: np.ndarray, *args) -> np.ndarray:
    """f(x_i, *args_i) for each element: libm's sin, cos and pow (Python's
    x ** 2), whose floats numpy's own sin, cos and square do not always give."""
    return np.fromiter(map(f, x.tolist(), *args), float, len(x))


class Rule(NamedTuple):
    """A numeric field's physical rule: each value is finite (an int, not a
    bool, where `integer`) and lies in [lo, hi]; lo = math.ulp(0.0) says
    > 0. shape "list" holds it to each item of a non-empty tuple, "pair" to
    both ends of an ordered (low, high) pair. `says` words it after "must"."""

    lo: float
    hi: float
    says: str
    integer: bool = False
    shape: str = ""

    def holds(self, v) -> bool:
        ok = isinstance(v, int) and not isinstance(v, bool) if self.integer else math.isfinite(v)
        return ok and self.lo <= v <= self.hi


FINITE = Rule(-math.inf, math.inf, "be finite")
POSITIVE = Rule(math.ulp(0.0), math.inf, "be positive and finite")
NON_NEGATIVE = Rule(0.0, math.inf, "be >= 0 and finite")
FRACTION = Rule(math.ulp(0.0), 1.0, "lie in (0, 1]")


def at_least(n: int) -> Rule:
    return Rule(n, math.inf, f"be an int >= {n}", integer=True)


def declare(rule: Optional[Rule], key: str, lo: float = None, hi: float = None, *,
            default=MISSING):
    """A dataclass field declared once: its physical rule, which check_rules
    holds every instance to, and its file row for config: the key (one
    ending in _deg holds degrees) and, for a number, the inclusive range in
    file units a file may set, inside the rule."""
    return field(default=default, metadata={"rule": rule, "file": (key, lo, hi)})


@cache
def _rules(cls) -> tuple:
    """(name, rule) of each of cls's fields that declares one, built once per class."""
    return tuple((f.name, f.metadata["rule"]) for f in fields(cls) if f.metadata.get("rule"))


def check_rules(obj) -> None:
    """ValueError naming the first field of obj, in declaration order, that
    breaks its declared rule."""
    for name, rule in _rules(type(obj)):
        v = getattr(obj, name)
        if rule.shape == "pair":
            ok = len(v) == 2 and all(map(rule.holds, v)) and v[0] <= v[1]
        elif rule.shape:
            ok = len(v) > 0 and all(map(rule.holds, v))
        else:
            ok = rule.holds(v)
        if not ok:
            raise ValueError(f"{type(obj).__name__}.{name} must {rule.says}, got {v!r}")


# a link of a human leg (the longest femur on record is ~0.76 m)
LINK = Rule(math.ulp(0.0), 1.0, "lie in (0, 1] m")


@dataclass(frozen=True)
class LegGeometry:
    """Link lengths in meters. Defaults are anthropometric-scale."""

    thigh_m: float = declare(LINK, "thigh_m", 0.3, 0.6, default=0.44)
    shank_m: float = declare(LINK, "shank_m", 0.3, 0.6, default=0.43)  # knee to ankle
    # ankle to toe along the foot line, and to the heel the opposite way
    toe_m: float = declare(LINK, "toe_m", 0.05, 0.3, default=0.15)
    heel_m: float = declare(LINK, "heel_m", 0.02, 0.15, default=0.07)

    def __post_init__(self):
        check_rules(self)
        # Derived once per geometry, not per planner query: the knee-to-toe
        # distance and its angle off the shank. dataclasses.replace reruns
        # __init__; pickle copies __dict__.
        object.__setattr__(self, "knee_toe_m", math.hypot(self.shank_m, self.toe_m))
        object.__setattr__(self, "knee_toe_angle", math.atan2(self.toe_m, self.shank_m))


@dataclass(frozen=True, slots=True)
class HipPose:
    """User hip state in the world frame."""

    x_h: float                  # m, forward
    z_h: float                  # m, height
    theta_h: float              # rad, thigh from vertical, + forward
    theta_h_dot: float = 0.0    # rad/s

    def __post_init__(self):
        if not math.isfinite(self.x_h):
            raise ValueError(f"HipPose.x_h must be finite, got {self.x_h}")
        if not self.z_h > 0.0:
            raise ValueError(f"HipPose.z_h must be positive, got {self.z_h}")
        if not abs(self.theta_h) < math.pi / 2:
            raise ValueError(f"HipPose.theta_h must satisfy |theta_h| < pi/2, got {self.theta_h}")
        if not math.isfinite(self.theta_h_dot):
            raise ValueError(f"HipPose.theta_h_dot must be finite, got {self.theta_h_dot}")


# the slot descriptors' __set__ fills a frozen HipPose's fields, in order
_HIP_POSE_SETTERS = tuple(HipPose.__dict__[f.name].__set__ for f in fields(HipPose))


def hip_poses(x_h: np.ndarray, z_h: np.ndarray, theta_h: np.ndarray,
              theta_h_dot: np.ndarray) -> tuple:
    """tuple(map(HipPose, x_h, z_h, theta_h, theta_h_dot)) of float arrays,
    built in bulk: one pose per theta_h_dot element.

    HipPose's rule runs as one array pass over every element, those past
    the last rate too (hip_track's t_{last+1}). The first failing element
    raises through HipPose, with __post_init__'s message. The poses are
    then filled through the slot descriptors in C-level map passes, with no
    __init__ or __post_init__ frame per pose.
    """
    n = len(theta_h_dot)
    ok = np.isfinite(x_h) & (z_h > 0.0) & (np.abs(theta_h) < math.pi / 2)
    ok[:n] &= np.isfinite(theta_h_dot)
    if not ok.all():
        i = int(ok.argmin())
        HipPose(float(x_h[i]), float(z_h[i]), float(theta_h[i]),
                float(theta_h_dot[i]) if i < n else 0.0)
    poses = list(map(object.__new__, repeat(HipPose, n)))
    for set_field, values in zip(_HIP_POSE_SETTERS, (x_h, z_h, theta_h, theta_h_dot)):
        deque(map(set_field, poses, values.tolist()), maxlen=0)
    return tuple(poses)


@dataclass
class JointState:
    """Prosthesis knee state."""

    theta_k: float = 0.0        # rad, flexion, >= 0
    theta_k_dot: float = 0.0    # rad/s
    theta_k_ddot: float = 0.0   # rad/s^2


class FootPoints(NamedTuple):
    """Forward-kinematics output; all points world-frame (x, z) in meters.

    A NamedTuple, not a frozen dataclass: one is built per tick, and the
    tuple is the cheaper immutable record to read. Building one through its
    generated __new__, a Python frame, costs ~0.4 us on CPython 3.11, about
    twice tuple.__new__, so forward_points builds it with tuple.__new__.
    """

    knee: tuple
    ankle: tuple
    toe: tuple
    heel: tuple


def forward_points(geom: LegGeometry, hip: HipPose, theta_k: float) -> FootPoints:
    """Hip/knee/ankle/toe/heel chain for one configuration.

    knee  = hip + thigh * (sin th, -cos th)
    ankle = knee + shank * (sin ts, -cos ts),  ts = th - tk
    toe   = ankle + toe_m  * (cos ts, sin ts)   (perpendicular foot)
    heel  = ankle - heel_m * (cos ts, sin ts)
    """
    th = hip.theta_h
    ts = th - theta_k
    sh, ch = sin(th), cos(th)
    ss, cs = sin(ts), cos(ts)

    kx = hip.x_h + geom.thigh_m * sh
    kz = hip.z_h - geom.thigh_m * ch
    ax = kx + geom.shank_m * ss
    az = kz - geom.shank_m * cs
    tx = ax + geom.toe_m * cs
    tz = az + geom.toe_m * ss
    lx = ax - geom.heel_m * cs
    lz = az - geom.heel_m * ss
    return _new_tuple(FootPoints, ((kx, kz), (ax, az), (tx, tz), (lx, lz)))

