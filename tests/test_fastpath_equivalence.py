"""Bitwise equivalence of the vectorised hot paths vs their references.

The PR that introduced the radix-sort scheduling index, the ragged
collective gather, and the batched selection/top-up paths promised
*bitwise-identical* samples under a fixed seed.  These tests hold that
line: each reference implementation (the original full-sort / per-row /
per-draw code) is reproduced verbatim here, monkeypatched in, and the
resulting ``SampleBatch`` compared array-for-array against the fast
path.
"""

import functools

import numpy as np
import pytest

import repro.core.stepper as stepper_mod
from repro.api.apps import DeepWalk, KHop, LADIES
from repro.api.apps import _kernels as kernels_mod
from repro.api.apps import deepwalk as deepwalk_mod
from repro.api.apps.importance import FastGCN
from repro.api.types import NULL_VERTEX, StepInfo
from repro.core.engine import NextDoorEngine
from repro.core.transit_map import (
    TransitMap,
    build_transit_map,
    sample_order_pairs,
)

# ---------------------------------------------------------------------------
# Reference implementations (the pre-vectorisation code, verbatim).
# ---------------------------------------------------------------------------


def build_transit_map_reference(transits, graph=None):
    """The original full-sort grouping (``argsort`` + ``np.unique``)."""
    pairs = sample_order_pairs(transits)
    order = np.argsort(pairs.transit_vals, kind="stable")
    vals = pairs.transit_vals[order]
    unique_transits, start_idx, counts = np.unique(
        vals, return_index=True, return_counts=True)
    offsets = np.concatenate([start_idx.astype(np.int64),
                              np.asarray([vals.size], dtype=np.int64)])
    return TransitMap(pairs.rows[order], vals, unique_transits,
                      counts.astype(np.int64), offsets,
                      num_total_pairs=int(np.asarray(transits).size),
                      width=pairs.width)


def _reference_weighted_neighbors(graph, transits, m, rng, out_rows=None,
                                  rows=None):
    """The original weighted draw, with the kernels' destination form:
    given ``out_rows``, the picks land in ``out_rows[rows]``."""
    out = _reference_weighted_picks(graph, transits, m, rng)
    if out_rows is None:
        return out
    out_rows[rows] = out
    return None


def _reference_weighted_picks(graph, transits, m, rng):
    from repro.api.apps._kernels import uniform_neighbors
    if not graph.is_weighted:
        return uniform_neighbors(graph, transits, m, rng)
    transits = np.asarray(transits, dtype=np.int64)
    out = np.full((transits.size, m), NULL_VERTEX, dtype=np.int64)
    live = transits != NULL_VERTEX
    if not live.any() or m == 0:
        return out
    t = transits[live]
    starts = graph.indptr[t]
    ends = graph.indptr[t + 1]
    deg = ends - starts
    has_nbrs = deg > 0
    if not has_nbrs.any():
        return out
    starts = starts[has_nbrs]
    ends = ends[has_nbrs]
    t = t[has_nbrs]
    cumsum = graph.global_weight_cumsum()
    base = np.where(starts > 0, cumsum[starts - 1], 0.0)
    totals = cumsum[ends - 1] - base
    live_idx = np.nonzero(live)[0][has_nbrs]
    for j in range(m):
        target = base + rng.random(size=t.size) * totals
        pos = np.searchsorted(cumsum, target, side="right")
        pos = np.clip(pos, starts, ends - 1)
        out[live_idx, j] = graph.indices[pos]
    return out


def _reference_combined_neighborhood(graph, transits):
    transits = np.asarray(transits, dtype=np.int64)
    num_samples = transits.shape[0]
    flat = transits.ravel()
    live = flat != NULL_VERTEX
    deg = np.zeros(flat.size, dtype=np.int64)
    deg[live] = graph.indptr[flat[live] + 1] - graph.indptr[flat[live]]
    per_sample = deg.reshape(num_samples, -1).sum(axis=1)
    offsets = np.zeros(num_samples + 1, dtype=np.int64)
    np.cumsum(per_sample, out=offsets[1:])
    values = np.empty(int(offsets[-1]), dtype=np.int64)
    cursor = offsets[:-1].copy()
    for c in range(transits.shape[1]):
        col = transits[:, c]
        for s in np.nonzero(col != NULL_VERTEX)[0]:
            v = col[s]
            row = graph.indices[graph.indptr[v]:graph.indptr[v + 1]]
            values[cursor[s]:cursor[s] + row.size] = row
            cursor[s] += row.size
    return values, offsets


def _reference_ladies_selection(self, graph, batch, neigh_values,
                                sample_offsets, transits, step, rng):
    out = np.full((batch.num_samples, self.step_size), NULL_VERTEX,
                  dtype=np.int64)
    degrees = graph.degrees()
    for s in range(batch.num_samples):
        lo, hi = int(sample_offsets[s]), int(sample_offsets[s + 1])
        candidates = neigh_values[lo:hi]
        if candidates.size == 0:
            continue
        weights = degrees[candidates].astype(np.float64) + 1.0
        cdf = np.cumsum(weights)
        draws = rng.random(self.step_size) * cdf[-1]
        picks = np.searchsorted(cdf, draws)
        picks = np.minimum(picks, candidates.size - 1)
        out[s] = candidates[picks]
    return out, StepInfo(avg_compute_cycles=14.0)


def _reference_record_step_edges(self, graph, batch, transits,
                                 new_vertices, step):
    num_samples = transits.shape[0]
    t_width = transits.shape[1]
    v_width = new_vertices.shape[1]
    t_rep = np.repeat(transits, v_width, axis=1).ravel()
    v_rep = np.tile(new_vertices, (1, t_width)).ravel()
    s_rep = np.repeat(np.arange(num_samples), t_width * v_width)
    live = (t_rep != NULL_VERTEX) & (v_rep != NULL_VERTEX)
    t_rep, v_rep, s_rep = t_rep[live], v_rep[live], s_rep[live]
    if t_rep.size == 0:
        return np.zeros((0, 3), dtype=np.int64)
    exists = graph.has_edges(t_rep, v_rep)
    return np.stack([s_rep[exists], t_rep[exists], v_rep[exists]], axis=1)


def _reference_dedupe_and_topup(app, graph, transits, new_vertices, step,
                                rng):
    """The original per-row, per-draw top-up loop."""
    from repro.api.apps._kernels import uniform_neighbors
    from repro.core.unique import dedupe_rows
    deduped, num_dups = dedupe_rows(new_vertices)
    if num_dups == 0:
        return deduped, 0, 0
    m = max(app.sample_size(step), 1)
    rows_with_holes = np.nonzero(
        (deduped == NULL_VERTEX).any(axis=1)
        & (new_vertices != NULL_VERTEX).any(axis=1))[0]
    for s in rows_with_holes:
        row = deduped[s]
        holes = np.nonzero((row == NULL_VERTEX)
                           & (new_vertices[s] != NULL_VERTEX))[0]
        if holes.size == 0:
            continue
        hole_transits = transits[s][holes // m]
        draws = uniform_neighbors(graph, hole_transits, 1, rng)[:, 0]
        present = set(int(v) for v in row[row != NULL_VERTEX])
        for hole, draw in zip(holes, draws):
            if draw != NULL_VERTEX and int(draw) not in present:
                row[hole] = draw
                present.add(int(draw))
    return deduped, num_dups, int(rows_with_holes.size)


def _patch_reference_paths(monkeypatch):
    """Swap every vectorised hot path for its original implementation."""
    monkeypatch.setattr(
        stepper_mod, "run_steps",
        functools.partial(stepper_mod.run_steps,
                          pairs=build_transit_map_reference))
    monkeypatch.setattr(deepwalk_mod, "weighted_neighbors",
                        _reference_weighted_neighbors)
    monkeypatch.setattr(kernels_mod, "build_combined_neighborhood",
                        _reference_combined_neighborhood)
    monkeypatch.setattr(LADIES, "sample_from_neighborhood",
                        _reference_ladies_selection)
    # The reference selection reads the materialised candidate array
    # the fast path no longer needs.
    monkeypatch.setattr(LADIES, "needs_combined_values", True)
    monkeypatch.setattr(FastGCN, "record_step_edges",
                        _reference_record_step_edges)
    monkeypatch.setattr(stepper_mod, "dedupe_and_topup",
                        _reference_dedupe_and_topup)


def _run(app_factory, graph, n, seed=13):
    result = NextDoorEngine().run(app_factory(), graph, num_samples=n,
                                  seed=seed)
    return result.batch


def _assert_batches_identical(a, b):
    assert np.array_equal(a.roots, b.roots)
    assert len(a.step_vertices) == len(b.step_vertices)
    for i, (x, y) in enumerate(zip(a.step_vertices, b.step_vertices)):
        assert np.array_equal(x, y), f"step {i} differs"
    assert len(a.edges) == len(b.edges)
    for i, (x, y) in enumerate(zip(a.edges, b.edges)):
        assert np.array_equal(x, y), f"edges {i} differ"


# ---------------------------------------------------------------------------
# End-to-end bitwise identity: fast path vs reference path, fixed seed.
# ---------------------------------------------------------------------------


class TestBitwiseIdentity:
    def test_walk_app(self, medium_weighted, monkeypatch):
        fast = _run(lambda: DeepWalk(walk_length=15), medium_weighted, 200)
        _patch_reference_paths(monkeypatch)
        ref = _run(lambda: DeepWalk(walk_length=15), medium_weighted, 200)
        _assert_batches_identical(fast, ref)

    def test_khop_app(self, medium_graph, monkeypatch):
        factory = lambda: KHop(fanouts=(6, 4), unique_per_step=True)
        fast = _run(factory, medium_graph, 150)
        _patch_reference_paths(monkeypatch)
        ref = _run(factory, medium_graph, 150)
        _assert_batches_identical(fast, ref)

    def test_collective_app(self, medium_graph, monkeypatch):
        factory = lambda: LADIES(step_size=16, batch_size=16)
        fast = _run(factory, medium_graph, 50)
        _patch_reference_paths(monkeypatch)
        ref = _run(factory, medium_graph, 50)
        _assert_batches_identical(fast, ref)


# ---------------------------------------------------------------------------
# TransitMap: fast grouping vs reference grouping, plus invariants.
# ---------------------------------------------------------------------------


def _random_transits(rng, num_vertices, shape, null_frac=0.2):
    t = rng.integers(0, num_vertices, size=shape)
    t[rng.random(size=shape) < null_frac] = NULL_VERTEX
    return t


class TestTransitMapEquivalence:
    @pytest.mark.parametrize("shape", [(1, 1), (64, 1), (50, 4), (7, 33)])
    def test_matches_reference(self, rng, shape):
        transits = _random_transits(rng, 5000, shape)
        fast = build_transit_map(transits)
        ref = build_transit_map_reference(transits)
        for field in ("rows", "sample_ids", "cols", "transit_vals",
                      "unique_transits", "counts", "offsets"):
            assert np.array_equal(getattr(fast, field), getattr(ref, field)), field
        assert fast.num_total_pairs == ref.num_total_pairs

    def test_matches_reference_wide_id_range(self, rng):
        # A 21-bit id span packed above a 10-bit pair index.
        transits = rng.integers(0, 2**21, size=(300, 3))
        fast = build_transit_map(transits)
        ref = build_transit_map_reference(transits)
        assert np.array_equal(fast.transit_vals, ref.transit_vals)
        assert np.array_equal(fast.rows, ref.rows)
        assert np.array_equal(fast.offsets, ref.offsets)

    def test_all_null(self):
        tmap = build_transit_map(np.full((4, 3), NULL_VERTEX))
        assert tmap.num_pairs == 0
        assert tmap.num_transits == 0
        assert list(tmap.offsets) == [0]
        assert tmap.num_total_pairs == 12


class TestTransitMapProperties:
    @pytest.fixture
    def tmap_and_transits(self, rng):
        transits = _random_transits(rng, 800, (400, 5))
        return build_transit_map(transits), transits

    def test_transit_vals_sorted(self, tmap_and_transits):
        tmap, _ = tmap_and_transits
        assert (np.diff(tmap.transit_vals) >= 0).all()

    def test_offsets_consistent(self, tmap_and_transits):
        tmap, _ = tmap_and_transits
        assert tmap.offsets[0] == 0
        assert tmap.offsets[-1] == tmap.num_pairs
        assert np.array_equal(np.diff(tmap.offsets), tmap.counts)
        assert (np.diff(tmap.unique_transits) > 0).all()

    def test_groups_hold_their_transit(self, tmap_and_transits):
        tmap, _ = tmap_and_transits
        assert np.array_equal(
            np.repeat(tmap.unique_transits, tmap.counts), tmap.transit_vals)

    def test_stable_within_transit(self, tmap_and_transits):
        """Pairs of one transit keep their flattened (sample, col)
        order — the stability the rng-stream identity relies on."""
        tmap, _ = tmap_and_transits
        for i in range(tmap.num_transits):
            grp = tmap.rows[tmap.pairs_of(i)]
            assert (np.diff(grp) > 0).all()

    def test_roundtrip_scatter(self, tmap_and_transits):
        tmap, transits = tmap_and_transits
        rebuilt = np.full(transits.shape, NULL_VERTEX, dtype=np.int64)
        rebuilt[tmap.sample_ids, tmap.cols] = tmap.transit_vals
        assert np.array_equal(rebuilt, transits)
