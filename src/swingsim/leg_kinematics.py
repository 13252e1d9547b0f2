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
from dataclasses import dataclass, fields
from itertools import repeat
from math import cos, sin
from typing import NamedTuple

import numpy as np

DEG = math.pi / 180.0
_new_tuple = tuple.__new__  # a NamedTuple built without its Python-level __new__


def _each(f, x: np.ndarray, *args) -> np.ndarray:
    """f(x_i, *args_i) for each element: libm's sin, cos and pow (Python's
    x ** 2), whose floats numpy's own sin, cos and square do not always give."""
    return np.fromiter(map(f, x.tolist(), *args), float, len(x))


@dataclass(frozen=True)
class LegGeometry:
    """Link lengths in meters. Defaults are anthropometric-scale."""

    thigh_m: float = 0.44
    shank_m: float = 0.43   # knee to ankle
    toe_m: float = 0.15     # ankle to toe along the foot line
    heel_m: float = 0.07    # ankle to heel, opposite direction

    def __post_init__(self):
        for name in ("thigh_m", "shank_m", "toe_m", "heel_m"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"LegGeometry.{name} must be strictly positive, got {v}")
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
        if not self.z_h > 0.0:
            raise ValueError(f"HipPose.z_h must be positive, got {self.z_h}")
        if not abs(self.theta_h) < math.pi / 2:
            raise ValueError(f"HipPose.theta_h must satisfy |theta_h| < pi/2, got {self.theta_h}")


# the slot descriptors' __set__ fills a frozen HipPose's fields, in order
_HIP_POSE_SETTERS = tuple(HipPose.__dict__[f.name].__set__ for f in fields(HipPose))


def hip_poses(x_h: np.ndarray, z_h: np.ndarray, theta_h: np.ndarray,
              theta_h_dot: np.ndarray) -> tuple:
    """tuple(map(HipPose, x_h, z_h, theta_h, theta_h_dot)) of float arrays,
    built in bulk: one pose per theta_h_dot element.

    HipPose's rule runs as one array pass over every z_h and theta_h
    element, those past the last rate too (hip_track's t_{last+1}). The
    first failing element raises through HipPose, with __post_init__'s
    message. The poses are then filled through the slot descriptors in
    C-level map passes, with no __init__ or __post_init__ frame per pose.
    """
    ok = (z_h > 0.0) & (np.abs(theta_h) < math.pi / 2)
    if not ok.all():
        i = int(ok.argmin())
        HipPose(float(x_h[i]), float(z_h[i]), float(theta_h[i]))
    poses = list(map(object.__new__, repeat(HipPose, len(theta_h_dot))))
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

