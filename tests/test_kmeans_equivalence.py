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
from hypothesis import example, given, settings, strategies as st

import oracle_utils
from swingsim import config, perception
from swingsim.human_model import GaitIntent
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


# Coordinates on a coarse grid make duplicated points common, and -0.0
# equals 0.0 while its sign can still show in a keypoint; the free floats
# cover the generic case.
coord = st.one_of(st.integers(0, 4).map(lambda i: i / 4.0), st.just(-0.0),
                  st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False))


def draw_k(draw, pts):
    """k anywhere in [1, n + 1] or next to the number of distinct points, so
    the seeding's all-zero-weights path is common."""
    n, distinct = len(pts), len(set(pts))
    return draw(st.one_of(st.integers(1, n + 1),
                          st.integers(max(1, distinct - 2), min(n, distinct + 2))))


@st.composite
def profiles(draw):
    """Up to 60 points."""
    pts = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=60))
    return pts, draw_k(draw, pts)


@st.composite
def repeated_profiles(draw):
    """Up to 30 points, each repeated 1-3 times, in shuffled order: the shape
    of a clean capture, whose mirrored lateral rays land on the same (x, z)."""
    base = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=30))
    times = draw(st.lists(st.integers(1, 3), min_size=len(base), max_size=len(base)))
    pts = draw(st.permutations([p for p, t in zip(base, times) for _ in range(t)]))
    return pts, draw_k(draw, pts)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(st.one_of(profiles(), repeated_profiles()), st.integers(0, 2**32 - 1),
       st.integers(1, 8))
def test_kmeans_prune_equals_reference(profile, seed, restarts):
    # repr as well as ==: a -0.0 for 0.0 or a numpy float for a float shows
    pts, k = profile
    got = kmeans_prune(pts, k, seed, restarts=restarts)
    want = oracle_utils.kmeans_prune(pts, k, seed, restarts=restarts)
    assert got.keypoints == want.keypoints
    assert repr(got.keypoints) == repr(want.keypoints)
    assert_plain_floats(got)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(profiles(), st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_lockstep_seeding_equals_sequential_reference(profile, seed, restarts):
    # every restart's centers, and the stream left behind, are those of the
    # reference's restart-by-restart loop; None exactly when some restart's
    # weights total 0 before its last center
    pts, k = profile
    pts = np.asarray(pts, dtype=float)
    k = min(k, len(pts))
    mine, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = perception._seed_lockstep(pts, k, mine, restarts)
    want = [oracle_utils._kmeans_pp_centers(pts, k, ref) for _ in range(restarts)]
    assert (got is None) == any(w is None for w in want)
    if got is not None:
        assert np.array_equal(got, np.array(want))
        assert mine.bit_generator.state == ref.bit_generator.state


def test_lockstep_seeding_when_restarts_reach_zero_weight_at_different_steps():
    # (0, 0)-(2e-162, 0) squares to the smallest subnormal, while the middle
    # point squares to 0 against either end: a restart that starts on the
    # middle point has zero weights at step 1, one that starts on an end at
    # step 2. Either way the points lie at distance 0 from fewer than k
    # centers, so seeding gives up and kmeans_prune returns the profile sorted
    # and deduplicated, as the reference does; the second profile has more
    # points than k, so only that early return keeps it from Lloyd
    line = [(0.0, 0.0), (1e-162, 0.0), (2e-162, 0.0)]
    for pts, k in ((line, 3), (line + [(1.0, x) for x, _ in line], 5)):
        pts = np.array(pts)
        as_is = perception._dedupe(pts[np.argsort(pts[:, 0], kind="stable")])
        for seed in range(30):
            assert perception._seed_lockstep(pts, k, np.random.default_rng(seed), 8) is None
            ref = np.random.default_rng(seed)
            assert oracle_utils._kmeans_pp_centers(pts, k, ref) is None, seed
            got = kmeans_prune(pts, k, seed, restarts=8)
            assert got == as_is, seed
            assert got == oracle_utils.kmeans_prune(pts, k, seed, restarts=8), seed


def test_kmeans_prune_empty_cluster_path_equals_reference(monkeypatch):
    # 14 distinct points on a line and k = 5, so seeding never runs out of
    # weight; from seed 62 the second restart's Lloyd empties a cluster, and
    # the reseed (the only _sqdist call against a single center) runs
    xs = [1.15, 2.05, 0.1, 0.17, 1.4, 1.65, 1.24, 0.44, 0.54, 1.32, 0.24, 0.67, 2.36, 1.27]
    pts = [(x, 0.0) for x in xs]
    reseeds = []
    sqdist = perception._sqdist

    def spy(px, pz, cx, cz, out=None, dz=None):
        if np.ndim(cx) == 0:
            reseeds.append((cx, cz))
        return sqdist(px, pz, cx, cz, out=out, dz=dz)

    monkeypatch.setattr(perception, "_sqdist", spy)
    got = kmeans_prune(pts, k=5, seed=62, restarts=8)
    assert reseeds
    want = oracle_utils.kmeans_prune(pts, k=5, seed=62, restarts=8)
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
        picks = perception._choice_rows(d2, total, u, np.empty((rows, n)),
                                        np.empty((rows, n), dtype=bool))
        for r, s in enumerate(seeds):
            ref = np.random.default_rng(s)
            assert picks[r] == ref.choice(n, p=d2[r] / total[r])
            assert mine[r].random() == ref.random()


def test_choice_rows_looks_up_a_tied_draw_to_the_right():
    # a draw equal to a cdf step goes past it, as searchsorted(side="right")
    # in Generator.choice does; a zero weight is never picked
    d2 = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 2.0]])
    cdf = np.empty(d2.shape)
    picks = perception._choice_rows(d2, d2.sum(axis=1), np.array([0.5, 0.5]), cdf,
                                    np.empty(d2.shape, dtype=bool))
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
        perception._choice_rows(rows, totals, np.full(2, 0.5), np.empty(rows.shape),
                                np.empty(rows.shape, dtype=bool))


def test_seed_lockstep_raises_on_nan_distance():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [math.nan, 0.0], [2.0, 0.5]])
    for seed in range(4):
        for restarts in (1, 3):
            with pytest.raises(ValueError):
                perception._seed_lockstep(pts, 3, np.random.default_rng(seed), restarts)


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


seed_lockstep = perception._seed_lockstep


def seed_lockstep_never_none(*args):
    seeded = seed_lockstep(*args)
    assert seeded is not None, "a capture with nothing to prune"
    return seeded


def production_and_reference(monkeypatch, fn, *args):
    """fn(*args) with production k-means, whose every capture is seeded and
    pruned by Lloyd, and with the reference kmeans_prune."""
    with monkeypatch.context() as m:
        # no campaign profile has fewer distinct points than k
        m.setattr(perception, "_seed_lockstep", seed_lockstep_never_none)
        got = fn(*args)
    with monkeypatch.context() as m:
        m.setattr(perception, "kmeans_prune", oracle_utils.kmeans_prune)
        ref = fn(*args)
    return got, ref


@pytest.mark.parametrize("noise", [0.0, 0.003])
def test_perceive_keypoints_equal_reference_on_campaign_scenes(monkeypatch, noise):
    cc = CampaignConfig.reproduction_profile(2024)
    specs = build_trial_specs(cc)[::30]
    assert specs[-1].intent is GaitIntent.LEVEL
    for spec in specs:
        cfg = trial_config_for(cc, spec)
        cfg = replace(cfg, camera=replace(cfg.camera, depth_noise_sigma=noise))
        # the capture and k-means seeds run_swing derives from the trial seed
        seeds = trial_seeds(cfg.seed)[:2]
        (target, kps, profile, _), (ref_target, ref_kps, _, _) = production_and_reference(
            monkeypatch, perceive, cfg, *seeds)
        assert target == ref_target, spec
        if spec.intent is GaitIntent.LEVEL:
            # no level profile rises above the capture toe, so neither side
            # clusters it; cluster it directly to keep flat profiles checked
            assert kps is None and ref_kps is None, spec
            kps, ref_kps = production_and_reference(
                monkeypatch, perception.elevation_keypoints, profile, cfg.kmeans_k, seeds[1],
                cfg.kmeans_restarts, cfg.z_weight)
        assert kps.keypoints == ref_kps.keypoints, spec


RAYS_VERTICAL = next(f for f in config.CAMERA if f.key == "rays_vertical")


def test_perceive_cost_stays_bounded_over_rays_vertical(monkeypatch):
    # Counted, not timed. Over the camera table's rays_vertical range (every
    # value to 100, every 25th past it) on step-over scenes, no Lloyd run
    # reaches LLOYD_MAX_ITER iterations and no capture makes more than 10x
    # the _sqdist calls of the scene's default capture. At rays_vertical 30
    # the profile has fewer distinct points than k, so Lloyd never runs; it
    # used to cycle to max_iter there, ~16,000 calls in one capture.
    calls = {"sqdist": 0, "matrix": 0, "lloyd": 0}
    sqdist, lloyd = perception._sqdist, perception._lloyd

    def counted_sqdist(px, pz, cx, cz, out=None, dz=None):
        calls["sqdist"] += 1
        calls["matrix"] += np.ndim(px) == 2  # one per Lloyd iteration
        return sqdist(px, pz, cx, cz, out=out, dz=dz)

    def counted_lloyd(*args):
        calls["lloyd"] += 1
        start = calls["matrix"]
        out = lloyd(*args)
        assert calls["matrix"] - start < perception.LLOYD_MAX_ITER
        return out

    monkeypatch.setattr(perception, "_sqdist", counted_sqdist)
    monkeypatch.setattr(perception, "_lloyd", counted_lloyd)

    def count(cfg, seeds):
        calls.update(sqdist=0, matrix=0, lloyd=0)
        perceive(cfg, *seeds)
        return dict(calls)

    rays = [*range(RAYS_VERTICAL.lo, 101), *range(125, RAYS_VERTICAL.hi + 1, 25)]
    cc = CampaignConfig(seed=2024)
    step_overs = [s for s in build_trial_specs(cc) if s.intent is GaitIntent.STEP_OVER]
    for spec in step_overs[::50]:
        cfg = trial_config_for(cc, spec)
        seeds = trial_seeds(cfg.seed)[:2]
        default = count(cfg, seeds)["sqdist"]
        for rv in rays:
            got = count(replace(cfg, camera=replace(cfg.camera, rays_vertical=rv)), seeds)
            assert got["sqdist"] <= 10 * default, (spec, rv, got, default)
            if rv == 30:
                assert got["lloyd"] == 0, spec


def table_values(table):
    """Any in-range value, in file units, for any subset of a config table's
    keys; a key left out keeps the scene's own value, so that most draws
    still see the box."""
    return st.fixed_dictionaries({}, optional={
        f.key: st.integers(f.lo, f.hi) if f.kind is int else st.floats(f.lo, f.hi)
        for f in table})


COST_CAMPAIGN = CampaignConfig(seed=2024)
COST_SCENES = [trial_config_for(COST_CAMPAIGN, s) for s in build_trial_specs(COST_CAMPAIGN)
               if s.intent is not GaitIntent.LEVEL][::40]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(COST_SCENES), table_values(config.CAMERA),
       table_values([f for f in config.TRIAL if f is not config.TAU]))
@example(COST_SCENES[0],
         {"fov_deg": 11.0, "max_range_m": 1.0, "rays_vertical": 311, "rays_lateral": 9,
          "mount_along_thigh_m": 0.0, "mount_pitch_deg": 0.0, "noise_sigma_m": 0.03125},
         {"seed": 0, "kmeans_k": 10, "corridor_width_m": 1.0}).xfail(
    raises=AssertionError,
    reason="2,438 noisy points, k = 10: the seventh restart converges past LLOYD_MAX_ITER")
def test_kmeans_cost_stays_bounded_over_the_camera_and_trial_tables(base, camera, trial):
    # Counted, not timed: array entries, not calls. Per capture, no Lloyd
    # restart fills its distance matrix LLOYD_MAX_ITER times (so none reaches
    # the cap), and the distance entries per profile point stay within
    # restarts * k * (1 + the most fills of any restart). Seeding makes
    # restarts * k per point; each fill at most k per point (one row per
    # distinct point, a column per center). tau_s is left out: perception
    # never reads it.
    data = config.dump_scenario(base)
    data["camera"].update(camera)
    data["trial"].update(trial)
    cfg = config.parse_scenario(data)
    entries, fills = [0], []
    sqdist, lloyd = perception._sqdist, perception._lloyd

    def counted_sqdist(px, pz, cx, cz, out=None, dz=None):
        d2 = sqdist(px, pz, cx, cz, out=out, dz=dz)
        entries[0] += d2.size
        if np.ndim(px) == 2:  # a Lloyd fill of the (distinct points, k) matrix
            fills[-1] += 1
        return d2

    def counted_lloyd(*args):
        fills.append(0)
        return lloyd(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(perception, "_sqdist", counted_sqdist)
        m.setattr(perception, "_lloyd", counted_lloyd)
        profile = perceive(cfg, *trial_seeds(cfg.seed)[:2])[2]
    assert all(f < perception.LLOYD_MAX_ITER for f in fills), fills
    bound = cfg.kmeans_restarts * cfg.kmeans_k * (1 + max(fills, default=0))
    assert entries[0] <= bound * len(profile), (entries[0], len(profile), fills)


def test_lloyd_fills_one_row_per_distinct_point_and_only_moved_columns(monkeypatch):
    # Counted. On a clean campaign capture the mirrored lateral rays repeat
    # more than half of the profile's points. Every distance refresh in
    # _lloyd is one 2-D _sqdist call with a row per distinct point; after an
    # iteration that moved at most FULL_REFRESH_SHARE of the centers it
    # fills only the moved centers' columns, and otherwise all k of them.
    cc = CampaignConfig(seed=2024)
    cfg = trial_config_for(cc, build_trial_specs(cc)[0])
    s_capture, s_kmeans = trial_seeds(cfg.seed)[:2]
    pts = perceive(cfg, s_capture, s_kmeans)[2] * np.array([1.0, cfg.z_weight])
    distinct, k = len(set(map(tuple, pts.tolist()))), cfg.kmeans_k
    assert distinct < len(pts) / 2
    rng = np.random.default_rng(s_kmeans)
    init = perception._seed_lockstep(pts, k, rng, cfg.kmeans_restarts)[0]
    work = perception._lloyd_work(pts, k)
    # held[t]: the centers _lloyd holds after t iterations
    held = [init] + [perception._lloyd(pts, work, init.copy(), t)[0] for t in range(1, 40)]

    refreshes = []
    sqdist = perception._sqdist

    def spy(px, pz, cx, cz, out=None, dz=None):
        d2 = sqdist(px, pz, cx, cz, out=out, dz=dz)
        if d2.ndim == 2:
            refreshes.append((d2.shape, np.column_stack((cx, cz))))
        return d2

    monkeypatch.setattr(perception, "_sqdist", spy)
    perception._lloyd(pts, work, init.copy(), perception.LLOYD_MAX_ITER)
    assert 3 < len(refreshes) < len(held)
    assert refreshes[0][0] == (distinct, k) and np.array_equal(refreshes[0][1], init)
    partial = 0
    for t, ((rows, cols), centers) in enumerate(refreshes[1:], start=1):
        assert rows == distinct
        moved = np.flatnonzero((held[t] != held[t - 1]).any(axis=1))
        if len(moved) > perception.FULL_REFRESH_SHARE * k:
            assert cols == k and np.array_equal(centers, held[t]), t
        else:
            assert cols == len(moved) and np.array_equal(centers, held[t][moved]), t
            partial += 0 < cols < k
    assert partial
