import math

import numpy as np
import pytest

from oracle_utils import toe_xz

from swingsim.leg_kinematics import (
    DEG,
    LegGeometry,
    HipPose,
    forward_points,
)

GEOM = LegGeometry(thigh_m=0.44, shank_m=0.43, toe_m=0.15, heel_m=0.07)


def test_straight_vertical_leg():
    hip = HipPose(x_h=0.0, z_h=1.0, theta_h=0.0)
    pts = forward_points(GEOM, hip, 0.0)
    assert pts.knee == pytest.approx((0.0, 0.56), abs=1e-12)
    assert pts.ankle == pytest.approx((0.0, 0.13), abs=1e-12)
    assert pts.toe == pytest.approx((0.15, 0.13), abs=1e-12)
    assert pts.heel == pytest.approx((-0.07, 0.13), abs=1e-12)


def test_flexed_pose_against_hand_trigonometry():
    # independent evaluation of the chain at theta_h=30deg, theta_k=60deg
    hip = HipPose(x_h=0.0, z_h=1.0, theta_h=30.0 * DEG)
    pts = forward_points(GEOM, hip, 60.0 * DEG)
    ts = -30.0 * DEG
    ankle = (0.44 * math.sin(30 * DEG) + 0.43 * math.sin(ts),
             1.0 - 0.44 * math.cos(30 * DEG) - 0.43 * math.cos(ts))
    toe = (ankle[0] + 0.15 * math.cos(ts), ankle[1] + 0.15 * math.sin(ts))
    assert pts.ankle == pytest.approx(ankle, abs=1e-15)
    assert pts.ankle == pytest.approx((0.0050, 0.2466), abs=1e-4)
    assert pts.toe == pytest.approx(toe, abs=1e-15)
    assert pts.toe == pytest.approx((0.1349, 0.1716), abs=1e-4)


def test_shank_angle_equals_hip_angle_with_straight_knee():
    # the knee->ankle direction, from vertical, is the shank angle theta_h - theta_k
    for theta0 in (-0.3, 0.0, 0.2, 0.5):
        hip = HipPose(x_h=0.1, z_h=0.9, theta_h=theta0)
        pts = forward_points(GEOM, hip, 0.0)
        (kx, kz), (ax, az) = pts.knee, pts.ankle
        assert math.atan2(ax - kx, kz - az) == pytest.approx(theta0)


def test_forward_points_toe_matches_the_chain_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        hip = HipPose(x_h=rng.uniform(-1, 1), z_h=rng.uniform(0.5, 1.2),
                      theta_h=rng.uniform(-1.0, 1.0))
        tk = rng.uniform(0.0, 1.48)
        pts = forward_points(GEOM, hip, tk)
        assert pts.toe == pytest.approx(toe_xz(GEOM, hip.x_h, hip.z_h, hip.theta_h, tk),
                                        abs=1e-15)


def test_heel_ankle_toe_collinear():
    rng = np.random.default_rng(11)
    for _ in range(200):
        hip = HipPose(x_h=rng.uniform(-1, 1), z_h=rng.uniform(0.5, 1.2),
                      theta_h=rng.uniform(-1.2, 1.2))
        pts = forward_points(GEOM, hip, rng.uniform(0.0, 1.48))
        hx, hz = pts.heel
        ax, az = pts.ankle
        tx, tz = pts.toe
        cross = (ax - hx) * (tz - hz) - (az - hz) * (tx - hx)
        assert abs(cross) < 1e-12
        assert math.hypot(tx - ax, tz - az) == pytest.approx(GEOM.toe_m, abs=1e-12)
        assert math.hypot(hx - ax, hz - az) == pytest.approx(GEOM.heel_m, abs=1e-12)


def test_frame_translation_consistency():
    rng = np.random.default_rng(7)
    for _ in range(50):
        th = rng.uniform(-1.0, 1.0)
        tk = rng.uniform(0.0, 1.48)
        dx, dz = rng.uniform(-2, 2), rng.uniform(-0.2, 0.4)
        a = forward_points(GEOM, HipPose(x_h=0.0, z_h=0.9, theta_h=th), tk)
        b = forward_points(GEOM, HipPose(x_h=dx, z_h=0.9 + dz, theta_h=th), tk)
        for pa, pb in ((a.knee, b.knee), (a.ankle, b.ankle), (a.toe, b.toe), (a.heel, b.heel)):
            assert pb[0] - pa[0] == pytest.approx(dx, abs=1e-12)
            assert pb[1] - pa[1] == pytest.approx(dz, abs=1e-12)


def test_toe_height_non_monotone_in_knee():
    # flexion first dips the toe, then lifts it: the M_z solver anchors its
    # endpoint tests at the dip instead of assuming monotonicity
    dip_knee = math.atan2(GEOM.toe_m, GEOM.shank_m)
    hip = HipPose(x_h=0.0, z_h=0.9, theta_h=0.0)
    z0 = forward_points(GEOM, hip, 0.0).toe[1]
    z_dip = forward_points(GEOM, hip, dip_knee).toe[1]
    z_hi = forward_points(GEOM, hip, 85 * DEG).toe[1]
    assert z_dip < z0 < z_hi


def test_geometry_validation():
    with pytest.raises(ValueError):
        LegGeometry(thigh_m=0.0)
    with pytest.raises(ValueError):
        LegGeometry(heel_m=-0.01)
    with pytest.raises(ValueError):
        HipPose(x_h=0.0, z_h=-0.1, theta_h=0.0)
    with pytest.raises(ValueError):
        HipPose(x_h=0.0, z_h=0.885, theta_h=2.0)
