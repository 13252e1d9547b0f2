"""The vectorized k-means returns the keypoints of the per-cluster reference.

`oracle_utils.kmeans_prune` is the original loop implementation. Keypoints
are compared with `==`, not approx: the production path must give the same
floats for the same seed, so every campaign outcome stays as it was.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle_utils
from swingsim import perception
from swingsim.perception import kmeans_prune
from swingsim.sim_harness import (
    CampaignConfig,
    build_trial_specs,
    perceive,
    trial_config_for,
)


def assert_plain_floats(kp):
    for point in kp.keypoints:
        assert all(type(v) is float for v in point), point


# Coordinates on a coarse grid make duplicated points common; the free
# floats cover the generic case.
coord = st.one_of(st.integers(0, 4).map(lambda i: i / 4.0),
                  st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False))


@st.composite
def profiles(draw):
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
    n = len(pts)
    k = draw(st.one_of(st.integers(1, n + 1), st.integers(max(1, n - 2), n + 1)))
    return pts, k


@settings(max_examples=300, deadline=None)
@given(profiles(), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_kmeans_prune_equals_reference(profile, seed, restarts):
    pts, k = profile
    got = kmeans_prune(pts, k, seed, restarts=restarts)
    want = oracle_utils.kmeans_prune(pts, k, seed, restarts=restarts)
    assert got.keypoints == want.keypoints
    assert_plain_floats(got)


def test_kmeans_prune_empty_cluster_path_equals_reference():
    # Three distinct locations and k = 5: k-means++ has to place centers on
    # duplicates, so at most three clusters are non-empty in the first Lloyd
    # iteration of every restart and the sequential reseed runs.
    pts = [(0.0, 0.0)] * 6 + [(1.0, 0.0)] * 6 + [(0.5, 0.2)]
    got = kmeans_prune(pts, k=5, seed=3)
    want = oracle_utils.kmeans_prune(pts, k=5, seed=3)
    assert got.keypoints == want.keypoints
    assert_plain_floats(got)


def test_choice_index_is_generator_choice():
    # same index and same stream state as rng.choice on the numpy installed;
    # a numpy that changes choice's draw fails here
    gen = np.random.default_rng(2007)
    for trial in range(3000):
        n = int(gen.integers(1, 600))
        d2 = gen.random(n) * 10.0 ** gen.uniform(-8.0, 3.0, n)
        if trial % 5 == 0:
            d2[gen.random(n) < 0.7] = 0.0
            d2[gen.integers(n)] = gen.random() + 1e-3
        total = d2.sum()
        seed = int(gen.integers(2**32))
        mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        pick = perception._choice_index(mine, d2, total, np.empty(n))
        assert pick == ref.choice(n, p=d2 / total)
        assert mine.random() == ref.random()


@pytest.mark.parametrize("d2", [[1.0, math.nan, 2.0], [1e308, 1e308]])
def test_choice_index_refuses_non_finite_total_like_choice(d2):
    d2 = np.array(d2)
    with np.errstate(over="ignore"):
        total = d2.sum()
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(d2), p=d2 / total)
    with pytest.raises(ValueError):
        perception._choice_index(np.random.default_rng(0), d2, total, np.empty(len(d2)))


def test_kmeans_pp_init_raises_on_nan_distance():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [math.nan, 0.0], [2.0, 0.5]])
    for seed in range(4):
        with pytest.raises(ValueError):
            perception._kmeans_pp_init(pts, 3, np.random.default_rng(seed))


def test_lloyd_reseeds_two_empty_clusters_at_different_points():
    # every point is nearest to center 0, so clusters 1 and 2 are empty in
    # the first iteration: 1 goes to the farthest point (10, 0), and 2 to
    # the farthest once (10, 0) holds a center, (5, 0)
    pts = np.array([(0.0, 0.0), (0.1, 0.0), (5.0, 0.0), (10.0, 0.0)])
    init = np.array([(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)])
    for lloyd in (perception._lloyd, oracle_utils._lloyd):
        centers, _ = lloyd(pts, init.copy(), max_iter=1)
        assert centers[1].tolist() == [10.0, 0.0]
        assert centers[2].tolist() == [5.0, 0.0]
        centers, sse = lloyd(pts, init.copy(), max_iter=100)
        assert sse == pytest.approx(0.005)
        assert sorted(centers.tolist()) == [[0.05, 0.0], [5.0, 0.0], [10.0, 0.0]]


@pytest.mark.parametrize("noise", [0.0, 0.003])
def test_perceive_keypoints_equal_reference_on_campaign_scenes(monkeypatch, noise):
    cc = CampaignConfig.reproduction_profile(2024)
    specs = build_trial_specs(cc)[::30]
    for spec in specs:
        cfg = trial_config_for(cc, spec)
        cfg = replace(cfg, camera=replace(cfg.camera, depth_noise_sigma=noise))
        # the capture and k-means seeds run_swing derives from the trial seed
        children = np.random.SeedSequence(cfg.seed).spawn(3)
        seeds = tuple(int(c.generate_state(1)[0]) for c in children[:2])
        target, kps, _, _ = perceive(cfg, *seeds)
        with monkeypatch.context() as m:
            m.setattr(perception, "kmeans_prune", oracle_utils.kmeans_prune)
            ref_target, ref_kps, _, _ = perceive(cfg, *seeds)
        assert kps.keypoints == ref_kps.keypoints, spec
        assert target == ref_target, spec
