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
from dataclasses import dataclass
from typing import NamedTuple

DEG = math.pi / 180.0


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


@dataclass
class JointState:
    """Prosthesis knee state."""

    theta_k: float = 0.0        # rad, flexion, >= 0
    theta_k_dot: float = 0.0    # rad/s
    theta_k_ddot: float = 0.0   # rad/s^2


class FootPoints(NamedTuple):
    """Forward-kinematics output; all points world-frame (x, z) in meters.

    A NamedTuple, not a frozen dataclass: one is built per tick, and the
    tuple is the cheaper immutable record to build and read.
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
    sh, ch = math.sin(th), math.cos(th)
    ss, cs = math.sin(ts), math.cos(ts)

    kx = hip.x_h + geom.thigh_m * sh
    kz = hip.z_h - geom.thigh_m * ch
    ax = kx + geom.shank_m * ss
    az = kz - geom.shank_m * cs
    tx = ax + geom.toe_m * cs
    tz = az + geom.toe_m * ss
    lx = ax - geom.heel_m * cs
    lz = az - geom.heel_m * ss
    return FootPoints((kx, kz), (ax, az), (tx, tz), (lx, lz))

