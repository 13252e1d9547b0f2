import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from oracle_utils import brute_force_kmeans_sse, kmeans_sse

from swingsim import perception
from swingsim.perception import (
    Box,
    CameraModel,
    CameraPose,
    ElevationKeypoints,
    ObstacleScene,
    camera_pose_from_thigh,
    capture,
    control_modify,
    crop_and_project,
    elevation_keypoints,
    extract_estimate,
    kmeans_prune,
)
from swingsim.sim_harness import TrialConfig, capture_state

DEG = math.pi / 180


def down_pose(z=1.0, pitch=45 * DEG):
    return CameraPose(x=0.0, z=z, axis_pitch=pitch)


def test_capture_flat_ground_points_at_zero():
    scene = ObstacleScene()
    model = CameraModel(rays_vertical=32, rays_lateral=5, max_range=2.0)
    cloud = capture(scene, down_pose(), model, seed=1)
    assert cloud.shape[0] > 0
    assert np.allclose(cloud[:, 2], 0.0, atol=1e-9)


def test_capture_box_produces_top_and_ground_returns():
    # independent expectation: a ray through the box span must stop at the
    # top plane z = 0.16; rays on both sides reach the ground
    scene = ObstacleScene(boxes=(Box(front_x=0.5, height=0.16, depth=0.3, width=1.0),))
    model = CameraModel(rays_vertical=128, rays_lateral=3, max_range=3.0, fov=80 * DEG)
    cloud = capture(scene, down_pose(pitch=40 * DEG), model, seed=1)
    z = cloud[:, 2]
    x = cloud[:, 0]
    on_top = np.isclose(z, 0.16, atol=1e-9)
    assert on_top.any()
    assert np.all(x[on_top] >= 0.5 - 1e-9)
    assert np.all(x[on_top] <= 0.8 + 1e-9)
    ground = np.isclose(z, 0.0, atol=1e-9)
    assert (x[ground] < 0.5).any()          # near side
    assert not ((x[ground] > 0.5) & (x[ground] < 0.8)).any()  # occluded under box


def test_capture_single_ray_against_hand_geometry():
    # one ray fan collapsed to its center: position (0, 0, 1), axis 30deg
    # forward-down intersects the ground at x = tan(30deg)
    scene = ObstacleScene()
    model = CameraModel(rays_vertical=2, rays_lateral=2, fov=1e-6, max_range=5.0)
    cloud = capture(scene, down_pose(pitch=30 * DEG), model, seed=0)
    assert np.allclose(cloud[:, 0], math.tan(30 * DEG), atol=1e-6)


def test_capture_deterministic_and_noise_seeded():
    scene = ObstacleScene(boxes=(Box(front_x=0.4, height=0.08, depth=0.2, width=0.6),))
    model = CameraModel(rays_vertical=16, rays_lateral=3, depth_noise_sigma=0.0)
    a = capture(scene, down_pose(), model, seed=42)
    b = capture(scene, down_pose(), model, seed=42)
    assert np.array_equal(a, b)

    noisy = CameraModel(rays_vertical=16, rays_lateral=3, depth_noise_sigma=0.005)
    c = capture(scene, down_pose(), noisy, seed=42)
    d = capture(scene, down_pose(), noisy, seed=42)
    e = capture(scene, down_pose(), noisy, seed=43)
    assert np.array_equal(c, d)
    assert not np.array_equal(c, e)


def test_clean_capture_builds_no_generator(monkeypatch):
    # a noise-free camera never draws, so it must not pay for a Generator
    def refuse(seed=None):
        raise AssertionError("default_rng called")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    scene = ObstacleScene(boxes=(Box(front_x=0.4, height=0.08),))
    capture(scene, down_pose(), CameraModel(rays_vertical=16, rays_lateral=3), seed=1)
    with pytest.raises(AssertionError, match="default_rng"):
        capture(scene, down_pose(), CameraModel(rays_vertical=16, rays_lateral=3,
                                                depth_noise_sigma=0.003), seed=1)


def test_cached_ray_fan_is_read_only():
    model = CameraModel()
    for a in perception._ray_fan(0.3, model.fov, model.rays_vertical, model.rays_lateral):
        with pytest.raises(ValueError):
            a[0] = 0.0


def _ray_fan_reference(axis_pitch, model):
    """The fan ray by ray from libm, vertical-major:
    (sin zeta cos psi, sin psi, -cos zeta cos psi)."""
    half = perception.LATERAL_FAN / 2
    zeta = (axis_pitch + np.linspace(-model.fov / 2, model.fov / 2, model.rays_vertical)).tolist()
    psi = np.linspace(-half, half, model.rays_lateral).tolist()
    return np.array([(math.sin(z) * math.cos(p), math.sin(p), -math.cos(z) * math.cos(p))
                     for z in zeta for p in psi]).T


def _campaign_fans():
    """(axis_pitch, camera) of the campaign's capture, and two others."""
    cfg = TrialConfig()
    hip, _ = capture_state(cfg)
    pitch = camera_pose_from_thigh(hip.x_h, hip.z_h, hip.theta_h, cfg.camera).axis_pitch
    return [(pitch, cfg.camera), (0.3, CameraModel(rays_vertical=64, rays_lateral=5)),
            (45 * DEG, CameraModel(fov=50 * DEG, rays_vertical=500, rays_lateral=21))]


def test_ray_fan_equals_libm_ray_by_ray():
    # the fan's last bits reach the campaign digests; numpy's own sin and
    # cos kernels need not give libm's floats
    perception._ray_fan.cache_clear()
    for pitch, model in _campaign_fans():
        fan = perception._ray_fan(pitch, model.fov, model.rays_vertical, model.rays_lateral)
        assert fan.tobytes() == _ray_fan_reference(pitch, model).tobytes()


@pytest.mark.parametrize("trig", ["sin", "cos"])
def test_ray_fan_oracle_catches_a_one_ulp_sin_or_cos(monkeypatch, trig):
    # perception's libm sin or cos moved by one ulp must move the campaign's
    # fan off the reference test_ray_fan_equals_libm_ray_by_ray compares it
    # to, which keeps the real math module
    shim = SimpleNamespace(**vars(math))
    setattr(shim, trig, lambda x: math.nextafter(getattr(math, trig)(x), math.inf))
    monkeypatch.setattr(perception, "math", shim)
    pitch, model = _campaign_fans()[0]
    perception._ray_fan.cache_clear()
    try:
        fan = perception._ray_fan(pitch, model.fov, model.rays_vertical, model.rays_lateral)
    finally:
        perception._ray_fan.cache_clear()
    assert fan.tobytes() != _ray_fan_reference(pitch, model).tobytes()


@pytest.mark.parametrize("noise", [0.0, 0.004])
def test_capture_from_a_cold_fan_cache_equals_a_warm_one(noise):
    scene = ObstacleScene(boxes=(Box(front_x=0.5, height=0.12, depth=0.3, width=1.0),))
    model = CameraModel(rays_vertical=64, rays_lateral=5, depth_noise_sigma=noise)
    capture(scene, down_pose(), model, seed=3)
    warm = capture(scene, down_pose(), model, seed=3)
    perception._ray_fan.cache_clear()
    cold = capture(scene, down_pose(), model, seed=3)
    assert cold.tobytes() == warm.tobytes()


@pytest.mark.parametrize("change", [{"fov": 50 * DEG}, {"rays_vertical": 40}])
def test_cameras_differing_in_fov_or_rays_vertical_never_share_a_fan(change):
    # each capture must equal the one its own camera gives from a cold cache,
    # whichever camera filled the cache first
    scene = ObstacleScene(boxes=(Box(front_x=0.5, height=0.12),))
    a = CameraModel(rays_vertical=32, rays_lateral=5, max_range=2.0)
    b = replace(a, **change)
    cold = {}
    for model in (a, b):
        perception._ray_fan.cache_clear()
        cold[model] = capture(scene, down_pose(), model, seed=1).tobytes()
    assert cold[a] != cold[b]
    for first, second in ((a, b), (b, a)):
        perception._ray_fan.cache_clear()
        for model in (first, second, first):
            assert capture(scene, down_pose(), model, seed=1).tobytes() == cold[model]


def test_capture_skyward_gives_no_returns():
    scene = ObstacleScene()
    model = CameraModel(rays_vertical=8, rays_lateral=3, fov=20 * DEG)
    cloud = capture(scene, CameraPose(x=0, z=1.0, axis_pitch=math.pi), model, seed=1)
    assert cloud.shape == (0, 3)


def test_crop_corridor():
    pts = np.array([[0.3, 0.10, 0.0], [0.4, 0.0, 0.05], [0.5, -0.05, 0.1]])
    flat = crop_and_project(pts, corridor_width=0.15)
    # |y|=0.10 > 0.075 excluded; the others survive with (x, z) unchanged
    assert flat.shape == (2, 2)
    assert flat[0].tolist() == [0.4, 0.05]
    assert flat[1].tolist() == [0.5, 0.1]


def test_crop_empty_cloud():
    assert crop_and_project(np.empty((0, 3)), corridor_width=0.15).shape == (0, 2)


def test_kmeans_two_separated_pairs():
    pts = [(0.0, 0.0), (0.01, 0.0), (0.5, 0.16), (0.51, 0.16)]
    kp = kmeans_prune(pts, k=2, seed=5, restarts=20)
    assert kp.keypoints[0] == pytest.approx((0.005, 0.0), abs=1e-12)
    assert kp.keypoints[1] == pytest.approx((0.505, 0.16), abs=1e-12)


def test_kmeans_k1_is_centroid():
    pts = [(0.0, 0.0), (1.0, 0.5), (2.0, 1.0), (3.0, 0.1)]
    kp = kmeans_prune(pts, k=1, seed=5, restarts=20)
    arr = np.asarray(pts)
    assert kp.keypoints[0] == pytest.approx(tuple(arr.mean(axis=0)), abs=1e-12)


@pytest.mark.parametrize("k,restarts,match", [
    (0, 8, "k >= 1"), (2, 0, "restarts >= 1"), (2, -4, "restarts >= 1"),
    (3.0, 8, r"^kmeans_prune needs an int k >= 1, got 3\.0$"),
    (True, 8, "^kmeans_prune needs an int k >= 1, got True$"),
    (2, 2.0, r"^kmeans_prune needs an int restarts >= 1, got 2\.0$"),
    (2, True, "^kmeans_prune needs an int restarts >= 1, got True$"),
])
def test_kmeans_refuses_no_centers_or_no_restarts(k, restarts, match):
    # refused up front, also where a profile of at most k points needs no
    # pruning; a float or bool k or restarts used to raise numpy's TypeError,
    # or none at all on such a profile
    for pts in ([(0.0, 0.0), (0.5, 0.1), (1.0, 0.2)], [(0.0, 0.0)]):
        with pytest.raises(ValueError, match=match):
            kmeans_prune(pts, k=k, seed=5, restarts=restarts)
    # an empty point set is refused first, whatever k and restarts are
    with pytest.raises(ValueError, match="^kmeans_prune needs a non-empty point set$"):
        kmeans_prune(np.empty((0, 2)), k=k, seed=5, restarts=restarts)


def test_kmeans_takes_numpy_ints():
    pts = [(0.1 * i, 0.01 * (i % 7)) for i in range(30)]
    assert kmeans_prune(pts, k=np.int64(3), seed=5, restarts=np.int64(2)) \
        == kmeans_prune(pts, k=3, seed=5, restarts=2)


def test_a_trial_of_no_kmeans_restarts_is_refused():
    # refused when the trial is built, before perceive could run it
    with pytest.raises(ValueError, match="kmeans_restarts must be an int >= 1, got 0"):
        TrialConfig(scene=ObstacleScene(boxes=(Box(front_x=0.3, height=0.08),)),
                    kmeans_restarts=0)


def test_kmeans_fewer_points_than_k():
    pts = [(0.3, 0.1), (0.1, 0.0)]
    kp = kmeans_prune(pts, k=5, seed=0, restarts=20)
    assert kp.keypoints == ((0.1, 0.0), (0.3, 0.1))


@pytest.mark.parametrize("n,k,seed", [(8, 2, 0), (10, 3, 1), (12, 3, 2)])
def test_kmeans_matches_exhaustive_partition_optimum(n, k, seed):
    rng = np.random.default_rng(seed)
    pts = np.column_stack((rng.uniform(0, 1, n), rng.uniform(0, 0.2, n)))
    kp = kmeans_prune(pts, k=k, seed=seed, restarts=20)
    sse = kmeans_sse(pts, kp)
    assert sse == pytest.approx(brute_force_kmeans_sse(pts, k), abs=1e-9)


def test_kmeans_keypoints_strictly_increasing_and_in_bbox():
    rng = np.random.default_rng(9)
    pts = np.column_stack((rng.uniform(0, 1, 300), rng.uniform(0, 0.2, 300)))
    kp = kmeans_prune(pts, k=25, seed=4, restarts=20)
    xs = [x for x, _ in kp.keypoints]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    for x, z in kp.keypoints:
        assert pts[:, 0].min() - 1e-12 <= x <= pts[:, 0].max() + 1e-12
        assert pts[:, 1].min() - 1e-12 <= z <= pts[:, 1].max() + 1e-12


def test_elevation_keypoints_weight_roundtrip():
    pts = [(0.0, 0.0), (0.01, 0.0), (0.5, 0.16), (0.51, 0.16)]
    kp = elevation_keypoints(np.asarray(pts), k=2, seed=5, restarts=20, z_weight=6.0)
    assert kp.keypoints[0] == pytest.approx((0.005, 0.0), abs=1e-12)
    assert kp.keypoints[1] == pytest.approx((0.505, 0.16), abs=1e-12)


def test_extract_estimate_spec_example():
    kp = ElevationKeypoints(keypoints=((0.2, 0.0), (0.4, 0.0), (0.5, 0.16), (0.6, 0.16)))
    est = extract_estimate(kp, toe=(0.0, 0.0), edge_threshold=0.02)
    assert est.z_m_prime == pytest.approx(0.16)
    assert est.x_c_raw == pytest.approx(0.4)


def test_extract_estimate_level_and_degenerate():
    level = ElevationKeypoints(keypoints=((0.2, 0.0), (0.4, 0.0), (0.6, 0.0)))
    est = extract_estimate(level, toe=(0.0, 0.0), edge_threshold=0.02)
    assert est.z_m_prime == 0.0 and est.x_c_raw is None

    single = ElevationKeypoints(keypoints=((0.3, 0.05),))
    est = extract_estimate(single, toe=(0.0, 0.0), edge_threshold=0.02)
    assert est.z_m_prime == pytest.approx(0.05)
    assert est.x_c_raw is None

    empty = ElevationKeypoints(keypoints=())
    est = extract_estimate(empty, toe=(0.1, 0.02), edge_threshold=0.02)
    assert est.z_m_prime == pytest.approx(0.02)
    assert est.x_c_raw is None


def test_extract_estimate_threshold_rejects_noise_jumps():
    kp = ElevationKeypoints(keypoints=((0.2, 0.0), (0.4, 0.015), (0.6, 0.0)))
    assert extract_estimate(kp, toe=(0.0, 0.0), edge_threshold=0.02).x_c_raw is None
    kp = ElevationKeypoints(keypoints=((0.2, 0.0), (0.4, 0.021), (0.6, 0.021)))
    assert extract_estimate(kp, toe=(0.0, 0.0), edge_threshold=0.02).x_c_raw == pytest.approx(0.2)


def test_control_modify_spec_examples():
    from swingsim.perception import ObstacleEstimate
    t = control_modify(ObstacleEstimate(z_m_prime=0.16, x_c_raw=0.4), z_t=0.02, delta=0.01)
    assert (t.z_m, t.x_c) == (pytest.approx(0.17), pytest.approx(0.4))

    t = control_modify(ObstacleEstimate(z_m_prime=0.0, x_c_raw=None), z_t=0.02, delta=0.01)
    assert (t.z_m, t.x_c) == (pytest.approx(0.03), pytest.approx(0.20))

    # tie z_m' == z_t is treated as level ground
    t = control_modify(ObstacleEstimate(z_m_prime=0.02, x_c_raw=0.5), z_t=0.02, delta=0.01)
    assert (t.z_m, t.x_c) == (pytest.approx(0.03), pytest.approx(0.20))


def test_control_modify_safety_floor_property():
    from swingsim.perception import ObstacleEstimate
    rng = np.random.default_rng(17)
    for _ in range(200):
        zp = rng.uniform(-0.05, 0.3)
        zt = rng.uniform(-0.02, 0.08)
        raw = rng.uniform(0.05, 0.8) if rng.random() < 0.7 else None
        t = control_modify(ObstacleEstimate(z_m_prime=zp, x_c_raw=raw), z_t=zt, delta=0.01)
        assert t.z_m >= zt + 0.01 - 1e-12
        assert t.x_c > 0


def test_scene_rejects_overlapping_boxes():
    with pytest.raises(ValueError):
        ObstacleScene(boxes=(Box(front_x=0.2, height=0.1, depth=0.3, width=0.4),
                             Box(front_x=0.4, height=0.1, depth=0.3, width=0.4)))


def test_camera_pose_from_thigh_geometry():
    model = CameraModel(mount_along_thigh=0.10, mount_perp=0.0, mount_pitch=21 * DEG)
    pose = camera_pose_from_thigh(0.0, 0.8875, -10 * DEG, model)
    assert pose.x == pytest.approx(0.10 * math.sin(-10 * DEG))
    assert pose.z == pytest.approx(0.8875 - 0.10 * math.cos(-10 * DEG))
    assert pose.axis_pitch == pytest.approx(11 * DEG)
