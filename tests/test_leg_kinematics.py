import dataclasses
import math
import pickle
import re

import numpy as np
import pytest

from oracle_utils import toe_xz

from swingsim.leg_kinematics import (
    DEG,
    LegGeometry,
    HipPose,
    forward_points,
    hip_poses,
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


def _fresh_derived(geom):
    return (math.hypot(geom.shank_m, geom.toe_m), math.atan2(geom.toe_m, geom.shank_m),
            hash((geom.thigh_m, geom.shank_m, geom.toe_m, geom.heel_m)))


@pytest.mark.parametrize("geom", [
    GEOM,
    LegGeometry(thigh_m=0.5, shank_m=0.37, toe_m=0.19, heel_m=0.05),
    dataclasses.replace(GEOM, shank_m=0.39, toe_m=0.12),
    pickle.loads(pickle.dumps(dataclasses.replace(GEOM, toe_m=0.2))),
], ids=["default", "built", "replaced", "pickled"])
def test_per_geometry_values_equal_a_fresh_computation(geom):
    # what LegGeometry derives once (the planner's knee-to-toe constants and
    # the cache's hash) must track the fields through replace and pickle,
    # the way pool workers receive a trial's geometry
    assert (geom.knee_toe_m, geom.knee_toe_angle, hash(geom)) == _fresh_derived(geom)
    twin = LegGeometry(geom.thigh_m, geom.shank_m, geom.toe_m, geom.heel_m)
    assert twin == geom and hash(twin) == hash(geom)
    assert pickle.loads(pickle.dumps(geom)) == geom
    assert hash(pickle.loads(pickle.dumps(geom))) == hash(geom)
    assert dataclasses.replace(geom) == geom and hash(dataclasses.replace(geom)) == hash(geom)
    assert dataclasses.replace(geom, toe_m=geom.toe_m + 0.01).knee_toe_m \
        == math.hypot(geom.shank_m, geom.toe_m + 0.01)


HALF_PI = math.pi / 2


def _per_pose(x_h, z_h, theta_h, rate):
    """hip_track's former construction: the rate-only last sample checked on
    its own, then one HipPose per rate."""
    HipPose(x_h[-1], z_h[-1], theta_h[-1])
    return tuple(map(HipPose, x_h, z_h, theta_h, rate))


@pytest.mark.parametrize("where", [1, 3], ids=["a-pose", "the-rate-only-sample"])
@pytest.mark.parametrize("z_h,theta_h", [
    (0.0, 0.2), (-0.0, 0.2), (5e-324, 0.2), (math.nan, 0.2),
    (0.9, HALF_PI), (0.9, -HALF_PI), (0.9, math.nextafter(HALF_PI, 0.0)),
    (0.9, math.nextafter(-HALF_PI, 0.0)), (0.9, math.nan), (0.0, HALF_PI),
])
def test_hip_poses_rule_agrees_with_post_init_on_boundary_values(z_h, theta_h, where):
    # three poses and the sample past them that only a rate reads; the
    # boundary value sits in a pose or in that last sample
    x, z, th = [0.0, 0.1, 0.2, 0.3], [0.9, 0.9, 0.9, 0.9], [0.2, 0.3, 0.4, 0.5]
    z[where], th[where] = z_h, theta_h
    rate = [1.0, 2.0, 3.0]
    try:
        expected = _per_pose(x, z, th, rate)
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            hip_poses(*map(np.array, (x, z, th, rate)))
    else:
        poses = hip_poses(*map(np.array, (x, z, th, rate)))
        assert poses == expected
        assert [tuple(map(float.hex, dataclasses.astuple(p))) for p in poses] \
            == [tuple(map(float.hex, dataclasses.astuple(p))) for p in expected]


def test_hip_poses_are_frozen_slotted_poses_like_constructed_ones():
    poses = hip_poses(np.array([0.0, 0.1]), np.array([0.9, 0.8]), np.array([0.2, -0.3]),
                      np.array([1.5]))
    assert len(poses) == 1
    built = HipPose(0.0, 0.9, 0.2, 1.5)
    assert poses[0] == built and hash(poses[0]) == hash(built) and repr(poses[0]) == repr(built)
    assert type(poses[0].x_h) is float
    with pytest.raises(dataclasses.FrozenInstanceError):
        poses[0].z_h = 1.0
    assert not hasattr(poses[0], "__dict__")
