"""The orders in which numpy adds, as the output digests rely on them.

Each test feeds one numpy call, in the form src/ makes it, a fixed input
from Python's own Mersenne Twister, whose sum in the stated order differs
from its sum in another order. The numpy result must equal a plain-Python
sum in the stated order, so a numpy that adds in another order fails here
rather than moving a digest.
"""
import itertools
import random

import numpy as np


def numpy_pairwise_sum(values) -> float:
    """numpy's pairwise_sum (numpy/_core/src/umath/loops_utils.h.src) in
    Python: under 8 values, in sequence; up to 128, eight running sums over
    strides of 8 combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    then the rest in sequence; above 128, the two halves, split at a
    multiple of 8, summed apart and added."""
    n = len(values)
    if n < 8:
        return in_sequence(values)
    if n <= 128:
        r = list(values[:8])
        i = 8
        while i < n - n % 8:
            for j in range(8):
                r[j] += values[i + j]
            i += 8
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in values[i:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return numpy_pairwise_sum(values[:half]) + numpy_pairwise_sum(values[half:])


def in_sequence(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def squared_distances(rng: random.Random, n: int) -> list:
    """Non-negative weights over six decades, as nearest squared distances run."""
    return [rng.random() * 10.0 ** rng.randint(-6, -1) for _ in range(n)]


def test_add_reduce_blocks_pairwise_in_the_kmeans_sse_and_the_seeding_totals():
    # _lloyd's SSE: np.add.reduce over a profile's ~500 nearest distances;
    # _seed_lockstep's totals: np.add.reduce(d2, axis=1) over (restarts, n)
    rng = random.Random(9)
    sse = squared_distances(rng, 500)
    assert float(np.add.reduce(np.array(sse))) == 0.0 + numpy_pairwise_sum(sse)
    assert numpy_pairwise_sum(sse) != in_sequence(sse)
    d2 = [squared_distances(rng, 437) for _ in range(8)]
    totals = np.add.reduce(np.array(d2), axis=1)
    assert totals.tolist() == [0.0 + numpy_pairwise_sum(row) for row in d2]
    assert [numpy_pairwise_sum(row) for row in d2] != [in_sequence(row) for row in d2]


def test_add_accumulate_adds_in_sequence_in_the_seeding_cdf_and_the_tick_times():
    # _choice_rows: np.add.accumulate(cdf, axis=1, out=cdf) over normalized
    # weights; hip_track: np.add.accumulate over [0, dt, dt, ...]
    rng = random.Random(10)
    weights = [[w / 3.7 for w in squared_distances(rng, 300)] for _ in range(8)]
    cdf = np.array(weights)
    np.add.accumulate(cdf, axis=1, out=cdf)
    assert cdf.tolist() == [list(itertools.accumulate(row)) for row in weights]
    assert [row[-1] for row in cdf.tolist()] != [numpy_pairwise_sum(row) for row in weights]
    dt = 0.001
    steps = np.full(1300, dt)
    steps[0] = 0.0
    t = np.add.accumulate(steps).tolist()
    assert t == list(itertools.accumulate(steps.tolist()))
    assert t != [numpy_pairwise_sum(steps[:i + 1].tolist()) for i in range(len(steps))]
    assert t != [i * dt for i in range(len(steps))]


def test_weighted_bincount_adds_each_bin_in_point_order_in_lloyds_centroids():
    # _lloyd: np.bincount(assign, weights=px, minlength=k), one bin a cluster,
    # as pts[sel].mean(axis=0) adds a cluster's points down its rows
    rng = random.Random(11)
    k, n = 7, 600
    assign = [rng.randrange(k) for _ in range(n)]
    px = [rng.uniform(0.1, 1.6) for _ in range(n)]
    members = [[x for a, x in zip(assign, px) if a == j] for j in range(k)]
    sums = np.bincount(np.array(assign), weights=np.array(px), minlength=k).tolist()
    assert sums == [in_sequence(m) for m in members]
    assert [in_sequence(m) for m in members] != [in_sequence(sorted(m)) for m in members]
    # a bin whose pairwise sum differs, summed down the rows of an (m, 2) array
    j = next(j for j, m in enumerate(members) if in_sequence(m) != numpy_pairwise_sum(m))
    pts = np.column_stack((px, px[::-1]))
    assert pts[np.array(assign) == j].sum(axis=0)[0] == in_sequence(members[j])
