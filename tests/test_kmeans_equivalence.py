"""The vectorized k-means returns the keypoints of the per-cluster reference.

`oracle_utils.kmeans_prune` is the original loop implementation. Keypoints
are compared with `==`, not approx: the production path must give the same
floats for the same seed, so every campaign outcome stays as it was.
"""
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
