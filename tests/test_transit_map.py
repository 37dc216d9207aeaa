"""Transit→samples map and kernel-class partitioning."""

import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.types import NULL_VERTEX
from repro.core.scheduling import (
    BLOCK_LIMIT,
    SUBWARP_LIMIT,
    classify_transits,
)
from repro.core.transit_map import build_transit_map, sample_order_pairs


class TestFlatten:
    """``sample_order_pairs``: the live pairs, flattened in sample
    order."""

    def test_basic(self):
        transits = np.array([[3, 5], [5, NULL_VERTEX]])
        pairs = sample_order_pairs(transits)
        assert list(pairs.rows) == [0, 1, 2]
        assert list(pairs.sample_ids) == [0, 0, 1]
        assert list(pairs.cols) == [0, 1, 0]
        assert list(pairs.transit_vals) == [3, 5, 5]

    def test_all_null(self):
        transits = np.full((3, 2), NULL_VERTEX)
        pairs = sample_order_pairs(transits)
        assert pairs.num_pairs == 0 and pairs.rows.size == 0


class TestBuildTransitMap:
    def test_grouping(self):
        transits = np.array([[4], [1], [4], [6], [4]])
        tmap = build_transit_map(transits)
        assert list(tmap.unique_transits) == [1, 4, 6]
        assert list(tmap.counts) == [1, 3, 1]
        assert tmap.num_pairs == 5
        assert tmap.num_transits == 3

    def test_pairs_of_slices(self):
        transits = np.array([[4], [1], [4], [6], [4]])
        tmap = build_transit_map(transits)
        four = tmap.pairs_of(1)
        samples_of_4 = sorted(tmap.sample_ids[four].tolist())
        assert samples_of_4 == [0, 2, 4]
        assert (tmap.transit_vals[four] == 4).all()

    def test_sorted_by_transit(self):
        transits = np.array([[9], [2], [7], [2]])
        tmap = build_transit_map(transits)
        assert (np.diff(tmap.transit_vals) >= 0).all()

    def test_null_pairs_dropped_but_counted_in_total(self):
        transits = np.array([[4, NULL_VERTEX], [NULL_VERTEX, NULL_VERTEX]])
        tmap = build_transit_map(transits)
        assert tmap.num_pairs == 1
        assert tmap.num_total_pairs == 4

    def test_cols_scatter_back(self):
        transits = np.array([[3, 5], [5, 3]])
        tmap = build_transit_map(transits)
        rebuilt = np.full((2, 2), NULL_VERTEX)
        rebuilt[tmap.sample_ids, tmap.cols] = tmap.transit_vals
        assert np.array_equal(rebuilt, transits)

    def test_counts_sum_to_pairs(self, medium_graph, rng):
        transits = rng.integers(0, medium_graph.num_vertices, size=(500, 4))
        tmap = build_transit_map(transits)
        assert tmap.counts.sum() == tmap.num_pairs
        assert np.array_equal(np.diff(tmap.offsets), tmap.counts)


#: Id spans from one id to ones whose keys no longer pack with the pair
#: index into 63 bits (the stable-argsort fallback).
_SPANS = (1, 2, 2**16 - 1, 2**16, 2**16 + 1, 2**32 + 7, 2**50, 2**62)


@st.composite
def key_sets(draw):
    """``size`` keys drawn from ``distinct`` values inside an id range
    of exactly ``span`` (both ends present once ``size >= 2``)."""
    span = draw(st.sampled_from(_SPANS))
    size = draw(st.integers(0, 300))
    distinct = draw(st.integers(1, 40))
    base = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = base + rng.integers(0, span, size=distinct)
    keys = pool[rng.integers(0, distinct, size=size)]
    if size >= 2:
        keys[rng.permutation(size)[:2]] = [base, base + span - 1]
    return keys


def _assert_grouped_like_unique(tmap, keys, order):
    """``order`` is the stable argsort of ``keys``; groups are those of
    ``np.unique``."""
    unique_keys, starts, counts = np.unique(
        keys[order], return_index=True, return_counts=True)
    assert np.array_equal(tmap.unique_transits, unique_keys)
    assert np.array_equal(tmap.counts, counts)
    assert np.array_equal(tmap.offsets, np.append(starts, keys.size))
    for arr in (tmap.unique_transits, tmap.counts, tmap.offsets):
        assert arr.dtype == np.int64


@st.composite
def transit_arrays(draw):
    """An ``(S, T)`` transit array over :func:`key_sets`' spans, with
    or without NULL slots."""
    width = draw(st.sampled_from([1, 4, 25]))
    keys = draw(key_sets())
    keys = keys[:keys.size - keys.size % width]
    transits = keys.reshape(-1, width)
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        transits[rng.random(transits.shape) < 0.3] = NULL_VERTEX
    return transits


class TestRows:
    """Each pair carries its flat slot: the row it owns in the step
    output."""

    @given(transits=transit_arrays())
    @settings(max_examples=60, deadline=None)
    def test_rows_address_the_pairs(self, transits):
        width = transits.shape[1]
        for tmap in (build_transit_map(transits),
                     sample_order_pairs(transits)):
            assert tmap.rows.dtype == np.int64
            assert np.array_equal(transits.ravel()[tmap.rows],
                                  tmap.transit_vals)
            assert np.array_equal(tmap.rows,
                                  tmap.sample_ids * width + tmap.cols)
            live = np.flatnonzero(transits.ravel() != NULL_VERTEX)
            assert np.array_equal(np.sort(tmap.rows), live)

    @given(transits=transit_arrays())
    @settings(max_examples=40, deadline=None)
    def test_all_live_rows_are_the_stable_argsort(self, transits):
        transits = transits.copy()
        transits[transits == NULL_VERTEX] = 3
        tmap = build_transit_map(transits)
        assert np.array_equal(
            tmap.rows, np.argsort(transits.ravel(), kind="stable"))


class TestGroupingProperties:
    @given(keys=key_sets())
    @example(keys=np.zeros(0, dtype=np.int64))
    @example(keys=np.array([7], dtype=np.int64))
    @example(keys=np.array([2**40, 3, 2**40, 3, 70000], dtype=np.int64))
    @settings(max_examples=40, deadline=None)
    def test_order_is_the_stable_argsort(self, backend, keys):
        tmap = build_transit_map(keys.reshape(-1, 1))
        order = np.argsort(keys, kind="stable")
        # One transit per sample: sample_ids IS the permutation.
        assert np.array_equal(tmap.sample_ids, order)
        assert np.array_equal(tmap.transit_vals, keys[order])
        _assert_grouped_like_unique(tmap, keys, order)

    def test_grouping_matches_argsort(self):
        vals = np.array([5, 2, 5, 9, 2, 2, 7], dtype=np.int64)
        order = build_transit_map(vals.reshape(-1, 1)).sample_ids
        assert np.array_equal(order, np.argsort(vals, kind="stable"))
        # Stability: equal keys keep input order (the three 2s).
        assert np.array_equal(order[:3], np.array([1, 4, 5]))

    def test_grouping_sorts_huge_span(self):
        # 63 bits of span plus 2 of pair index do not pack into an
        # int64: the stable argsort groups them instead.
        vals = np.array([1 << 62, 0, 70000, 0], dtype=np.int64)
        tmap = build_transit_map(vals.reshape(-1, 1))
        assert np.array_equal(tmap.sample_ids, [1, 3, 2, 0])
        assert np.array_equal(tmap.unique_transits, [0, 70000, 1 << 62])

    def test_memory_is_independent_of_the_id_span(self, backend, rng):
        # 1 000 pairs over a 5e7 id range: a span-sized histogram would
        # be 400 MB; the packed sort needs a few K-sized arrays.
        transits = rng.integers(0, 5 * 10**7, size=(1000, 1))
        transits[:2, 0] = [0, 5 * 10**7 - 1]
        build_transit_map(transits)  # import / warm-up outside the trace
        tracemalloc.start()
        try:
            tmap = build_transit_map(transits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tmap.num_pairs == 1000
        assert peak < 1 << 20


class TestClassify:
    def test_boundaries_table2(self):
        # needed = counts * m: <32 sub-warp, 32..1024 block, >1024 grid.
        counts = np.array([31, 32, 1024, 1025])
        classes = classify_transits(counts, m=1)
        assert list(classes["subwarp"]) == [0]
        assert list(classes["block"]) == [1, 2]
        assert list(classes["grid"]) == [3]

    def test_m_scales_needed(self):
        counts = np.array([4])
        assert list(classify_transits(counts, m=10)["block"]) == [0]
        assert list(classify_transits(counts, m=1)["subwarp"]) == [0]

    def test_partition_is_exact(self, rng):
        counts = rng.integers(1, 3000, size=200)
        classes = classify_transits(counts, m=1)
        combined = np.concatenate([classes["subwarp"], classes["block"],
                                   classes["grid"]])
        assert sorted(combined.tolist()) == list(range(200))

    def test_zero_m_treated_as_one(self):
        counts = np.array([10])
        assert list(classify_transits(counts, m=0)["subwarp"]) == [0]
