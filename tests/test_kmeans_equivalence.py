"""The vectorized k-means returns the keypoints of the per-cluster reference.

`oracle_utils.kmeans_prune` is the original loop implementation, seeding one
restart after another; production seeds every restart in lockstep. Keypoints
are compared with `==`, not approx: the production path must give the same
floats for the same seed, so every campaign outcome stays as it was.
"""
import math
from dataclasses import replace
from functools import partial

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
    trial_seeds,
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
    """Up to 60 points; k anywhere in [1, n + 1] or next to the number of
    distinct points, so the seeding's all-zero-weights path is common."""
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=60))
    n, distinct = len(pts), len(set(pts))
    k = draw(st.one_of(st.integers(1, n + 1),
                       st.integers(max(1, distinct - 2), min(n, distinct + 2))))
    return pts, k


@settings(max_examples=300, deadline=None)
@given(profiles(), st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_kmeans_prune_equals_reference(profile, seed, restarts):
    pts, k = profile
    got = kmeans_prune(pts, k, seed, restarts=restarts)
    want = oracle_utils.kmeans_prune(pts, k, seed, restarts=restarts)
    assert got.keypoints == want.keypoints
    assert_plain_floats(got)


@settings(max_examples=200, deadline=None)
@given(profiles(), st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_lockstep_seeding_equals_sequential_reference(profile, seed, restarts):
    # every restart's centers, and the stream left behind, are those of the
    # reference's restart-by-restart loop
    pts, k = profile
    pts = np.asarray(pts, dtype=float)
    k = min(k, len(pts))
    mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = perception._kmeans_pp_init(pts, k, mine, restarts)
    want = [oracle_utils._kmeans_pp_init(pts, k, ref) for _ in range(restarts)]
    assert np.array_equal(got, np.array(want))
    assert mine.bit_generator.state == ref.bit_generator.state


def test_lockstep_seeding_when_restarts_reach_zero_weight_at_different_steps():
    # (0, 0)-(2e-162, 0) squares to the smallest subnormal, while the middle
    # point squares to 0 against either end: a restart that starts on the
    # middle point has zero weights at step 1, one that starts on an end at
    # step 2, so the restarts' own loops draw integers(n, size=k - i) at
    # different steps
    line = [(0.0, 0.0), (1e-162, 0.0), (2e-162, 0.0)]
    for pts, k in ((line, 3), (line + [(1.0, x) for x, _ in line], 5)):
        pts = np.array(pts)
        for seed in range(30):
            mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = perception._kmeans_pp_init(pts, k, mine, 8)
            want = [oracle_utils._kmeans_pp_init(pts, k, ref) for _ in range(8)]
            assert np.array_equal(got, np.array(want)), seed
            assert mine.bit_generator.state == ref.bit_generator.state


def test_kmeans_prune_empty_cluster_path_equals_reference():
    # Three distinct locations and k = 5: k-means++ has to place centers on
    # duplicates, so at most three clusters are non-empty in the first Lloyd
    # iteration of every restart and the sequential reseed runs.
    pts = [(0.0, 0.0)] * 6 + [(1.0, 0.0)] * 6 + [(0.5, 0.2)]
    got = kmeans_prune(pts, k=5, seed=3, restarts=20)
    want = oracle_utils.kmeans_prune(pts, k=5, seed=3, restarts=20)
    assert got.keypoints == want.keypoints
    assert_plain_floats(got)


def test_choice_index_is_generator_choice():
    # each row of the lockstep draw picks the index rng.choice picks from the
    # same stream, and leaves it where choice does; a numpy that changes
    # choice's draw fails here
    gen = np.random.default_rng(2007)
    for trial in range(3000):
        n, rows = int(gen.integers(1, 600)), int(gen.integers(1, 9))
        d2 = gen.random((rows, n)) * 10.0 ** gen.uniform(-8.0, 3.0, (rows, n))
        if trial % 5 == 0:
            d2[gen.random((rows, n)) < 0.7] = 0.0
            d2[np.arange(rows), gen.integers(n, size=rows)] = gen.random(rows) + 1e-3
        total = d2.sum(axis=1)
        seeds = gen.integers(2**32, size=rows)
        mine = [np.random.default_rng(s) for s in seeds]
        u = np.array([rng.random() for rng in mine])
        picks = perception._choice_rows(d2, total, u, np.empty((rows, n)))
        for r, s in enumerate(seeds):
            ref = np.random.default_rng(s)
            assert picks[r] == ref.choice(n, p=d2[r] / total[r])
            assert mine[r].random() == ref.random()


def test_choice_rows_looks_up_a_tied_draw_to_the_right():
    # a draw equal to a cdf step goes past it, as searchsorted(side="right")
    # in Generator.choice does; a zero weight is never picked
    d2 = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 2.0]])
    cdf = np.empty(d2.shape)
    picks = perception._choice_rows(d2, d2.sum(axis=1), np.array([0.5, 0.5]), cdf)
    assert picks.tolist() == [2, 2]


@pytest.mark.parametrize("d2", [[1.0, math.nan, 2.0], [1e308, 1e308]])
def test_choice_index_refuses_non_finite_total_like_choice(d2):
    d2 = np.array(d2)
    with np.errstate(over="ignore"):
        total = d2.sum()
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(len(d2), p=d2 / total)
    rows = np.array([[1.0, 2.0, 3.0][:len(d2)], d2])
    with np.errstate(over="ignore"):
        totals = rows.sum(axis=1)
    with pytest.raises(ValueError):
        perception._choice_rows(rows, totals, np.full(2, 0.5), np.empty(rows.shape))


def test_kmeans_pp_init_raises_on_nan_distance():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [math.nan, 0.0], [2.0, 0.5]])
    for seed in range(4):
        for restarts in (1, 3):
            with pytest.raises(ValueError):
                perception._kmeans_pp_init(pts, 3, np.random.default_rng(seed), restarts)


def test_lloyd_reseeds_two_empty_clusters_at_different_points():
    # every point is nearest to center 0, so clusters 1 and 2 are empty in
    # the first iteration: 1 goes to the farthest point (10, 0), and 2 to
    # the farthest once (10, 0) holds a center, (5, 0)
    pts = np.array([(0.0, 0.0), (0.1, 0.0), (5.0, 0.0), (10.0, 0.0)])
    init = np.array([(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)])
    work = perception._lloyd_work(pts, 3)
    for lloyd in (partial(perception._lloyd, pts, work), partial(oracle_utils._lloyd, pts)):
        centers, _ = lloyd(init.copy(), max_iter=1)
        assert centers[1].tolist() == [10.0, 0.0]
        assert centers[2].tolist() == [5.0, 0.0]
        centers, sse = lloyd(init.copy(), max_iter=100)
        assert sse == pytest.approx(0.005)
        assert sorted(centers.tolist()) == [[0.05, 0.0], [5.0, 0.0], [10.0, 0.0]]


def refuse_seed_one(*args):
    raise AssertionError("seeded restart by restart")


@pytest.mark.parametrize("noise", [0.0, 0.003])
def test_perceive_keypoints_equal_reference_on_campaign_scenes(monkeypatch, noise):
    cc = CampaignConfig.reproduction_profile(2024)
    specs = build_trial_specs(cc)[::30]
    for spec in specs:
        cfg = trial_config_for(cc, spec)
        cfg = replace(cfg, camera=replace(cfg.camera, depth_noise_sigma=noise))
        # the capture and k-means seeds run_swing derives from the trial seed
        seeds = trial_seeds(cfg.seed)[:2]
        with monkeypatch.context() as m:
            # no campaign profile has fewer distinct points than k, so every
            # capture seeds in lockstep
            m.setattr(perception, "_seed_one", refuse_seed_one)
            target, kps, _, _ = perceive(cfg, *seeds)
        with monkeypatch.context() as m:
            m.setattr(perception, "kmeans_prune", oracle_utils.kmeans_prune)
            ref_target, ref_kps, _, _ = perceive(cfg, *seeds)
        assert kps.keypoints == ref_kps.keypoints, spec
        assert target == ref_target, spec
