"""Backend selection, RNG shims, and graceful degradation."""

import os
import types
import warnings

import numpy as np
import pytest

import repro.api.apps.importance as importance_mod
from repro.api.apps import LADIES, FastGCN
from repro.api.types import NULL_VERTEX
from repro.core.engine import NextDoorEngine
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.native import backend as backend_mod
from repro.native import cnative, rngshim
from repro.native.backend import (
    BACKEND_ENV,
    BACKEND_IDS,
    BACKEND_NAMES,
    CNativeBackend,
    NumpyBackend,
    available_backends,
    backend_scope,
    resolve_backend_name,
)
from repro.obs import get_metrics
from repro.serve.protocol import batch_digest
from tests.test_fastpath_equivalence import _reference_record_step_edges

COMPILED = [b for b in available_backends() if b != "numpy"]
needs_cc = pytest.mark.skipif(not COMPILED,
                              reason="no C toolchain on this host")


class TestSelection:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "cnative")
        assert resolve_backend_name("numpy") == "numpy"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "cnative")
        assert resolve_backend_name(None) == "cnative"

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend_name(None) == "numpy"

    def test_blank_env_ignored(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "  ")
        assert resolve_backend_name(None) == "numpy"

    def test_case_insensitive(self):
        assert resolve_backend_name("CNATIVE") == "cnative"

    def test_unknown_name_raises(self, monkeypatch):
        # The last two were names once (one in two pieces, so a grep
        # for it over tests/ stays empty): no alias, no shim.
        expected = "unknown backend .* choose from numpy, cnative$"
        for name in ("cuda", "auto", "num" "ba"):
            monkeypatch.setenv(BACKEND_ENV, name)
            for explicit in (name, None):
                with pytest.raises(ValueError, match=expected):
                    resolve_backend_name(explicit)

    def test_every_name_resolvable(self):
        for name in BACKEND_NAMES:
            assert resolve_backend_name(name) == name

    def test_backend_scope_restores(self):
        from repro.native.backend import active_backend
        before = active_backend()
        with backend_scope("cnative") as b:
            assert b.name == "cnative" and active_backend() is b
        assert active_backend() is before

    def test_set_backend_exports_gauge(self):
        assert BACKEND_IDS == {"numpy": 0, "cnative": 2}  # 1 is retired
        with backend_scope("cnative"):
            gauge = get_metrics().gauge("runtime.backend_active")
            assert gauge.value == 2.0


class TestRngShim:
    """The C node2vec kernel re-derives numpy's PCG64 stream; these
    pin the reference implementation the kernel mirrors."""

    def test_ref_doubles_match_numpy(self):
        rng = np.random.default_rng(1234)
        state, inc = rngshim.raw_state(rng)
        _, ours = rngshim.ref_doubles(state, inc, 64)
        assert np.array_equal(ours, rng.random(64))

    def test_consume_realigns_stream(self):
        a = np.random.default_rng(77)
        b = np.random.default_rng(77)
        state, inc = rngshim.raw_state(a)
        rngshim.ref_doubles(state, inc, 10)
        rngshim.consume(a, 10)
        b.random(10)
        assert np.array_equal(a.random(8), b.random(8))

    def test_state_words_roundtrip(self):
        rng = np.random.default_rng(5)
        state, inc = rngshim.raw_state(rng)
        words = rngshim.state_words(rng)
        assert int(words[0]) << 64 | int(words[1]) == state
        assert int(words[2]) << 64 | int(words[3]) == inc

    def test_non_pcg64_declines(self):
        rng = np.random.Generator(np.random.MT19937(0))
        assert rngshim.raw_state(rng) is None
        assert rngshim.state_words(rng) is None

    def test_buffered_uint32_declines(self):
        rng = np.random.default_rng(0)
        rng.integers(0, 10, dtype=np.uint32)  # leaves has_uint32 set
        if rng.bit_generator.state.get("has_uint32"):
            assert rngshim.raw_state(rng) is None

    @needs_cc
    def test_pcg_fill_kernel_matches_numpy(self):
        rng = np.random.default_rng(99)
        words = rngshim.state_words(rng)
        out = np.empty(32, dtype=np.float64)
        cnative.load_library().repro_pcg_fill(
            words.ctypes.data, out.ctypes.data, out.size)
        ref = rngshim.ref_doubles(*rngshim.raw_state(rng), 32)[1]
        assert np.array_equal(out, ref)
        assert np.array_equal(out, rng.random(32))


class TestGeneratorForCache:
    def test_cached_matches_direct_construction(self):
        from repro.runtime.rngplan import generator_for
        for seed, key in [(0, (0,)), (123, (4, 7)), (2**63, (1, 2, 3))]:
            cached = generator_for(seed, key)
            direct = np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=seed, spawn_key=key)))
            assert (cached.bit_generator.state
                    == direct.bit_generator.state)
            assert np.array_equal(cached.random(16), direct.random(16))

    def test_repeat_calls_independent(self):
        from repro.runtime.rngplan import generator_for
        a = generator_for(42, (3,))
        a.random(100)
        b = generator_for(42, (3,))
        c = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=42, spawn_key=(3,))))
        assert np.array_equal(b.random(4), c.random(4))

    def test_seed_words_shim_generic_path(self):
        from repro.runtime.rngplan import _seed_words
        shim = _seed_words(7, (1, 2))
        ss = np.random.SeedSequence(entropy=7, spawn_key=(1, 2))
        assert np.array_equal(shim.generate_state(4, np.uint64),
                              ss.generate_state(4, np.uint64))
        # Fallback path: widths/dtypes beyond the cached words.
        assert np.array_equal(shim.generate_state(8, np.uint32),
                              ss.generate_state(8, np.uint32))
        assert np.array_equal(shim.generate_state(6, np.uint64),
                              ss.generate_state(6, np.uint64))


def _raise(*args):
    raise RuntimeError("synthetic kernel failure")


class _OneBadKernel(CNativeBackend):
    """C backend one of whose kernels always fails when called."""

    def __init__(self, bad="dedupe_rows"):
        super().__init__()
        self.bad = bad

    def _kernel(self, name):
        return _raise if name == self.bad else super()._kernel(name)


class _FixedDraws:
    """Stands in for a generator: ``random(shape)`` hands out ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        assert tuple(shape) == self.u.shape
        return self.u.copy()


@needs_cc
class TestGracefulDegradation:
    def test_failed_kernel_falls_back_and_counts(self):
        counter = get_metrics().counter("native.compile_failures")
        before = counter.value
        backend = _OneBadKernel()
        with pytest.warns(RuntimeWarning, match="disabled") as caught:
            for _ in range(2):  # second call: no second warning/count
                assert backend.dedupe_rows(
                    np.array([[2, 0, 2, 1]], dtype=np.int64)) is None
        assert len(caught) == 1
        assert counter.value == before + 1

    def test_other_kernels_stay_alive(self):
        backend = _OneBadKernel()
        rows = np.array([[1, 1, 2], [3, 4, 3]], dtype=np.int64)
        with pytest.warns(RuntimeWarning, match="disabled"):
            backend.dedupe_rows(rows)
        one = np.ones(1, dtype=np.int64)
        assert np.array_equal(backend.ragged_gather(
            rows.ravel(), one, 2 * one, 0 * one, 2), [1, 2])
        assert backend._failed == {"dedupe_rows"}

    def test_disable_direct_is_idempotent(self):
        counter = get_metrics().counter("native.compile_failures")
        backend = CNativeBackend()
        before = counter.value
        with pytest.warns(RuntimeWarning, match="disabled"):
            backend._disable("uniform_fill", ValueError("x"))
            backend._disable("uniform_fill", ValueError("x"))
        assert counter.value == before + 1
        assert backend.uniform_neighbors(
            None, np.array([0], dtype=np.int64), 1, None) is None


    @pytest.mark.parametrize("bad", ["edge_mask", "two_level_pick"])
    def test_collective_kernel_failure_is_the_numpy_run(
            self, medium_graph, monkeypatch, bad):
        """One warning, one count, every other kernel still compiled,
        numpy's samples and edges."""
        def digest(backend):
            monkeypatch.setattr(backend_mod, "_ACTIVE", backend)
            return batch_digest(NextDoorEngine().run(
                LADIES(step_size=16, batch_size=16), medium_graph,
                num_samples=40, seed=3).batch)

        want = digest(NumpyBackend())
        counter = get_metrics().counter("native.compile_failures")
        before = counter.value
        backend = _OneBadKernel(bad)
        with pytest.warns(RuntimeWarning, match="disabled") as caught:
            assert digest(backend) == want
        assert len(caught) == 1 and counter.value == before + 1
        assert backend._failed == {bad}
        rows = np.array([[1, 1, 2]], dtype=np.int64)
        assert backend.dedupe_rows(rows) is not None

    def test_two_level_pick_fails_after_the_draws(self, medium_graph,
                                                  monkeypatch):
        """LADIES draws before it asks the hook: the failed kernel's
        step leaves the generator where the numpy step leaves it."""
        transits = np.arange(48, dtype=np.int64).reshape(6, 8)
        batch = types.SimpleNamespace(num_samples=6)
        after = []
        for backend in (NumpyBackend(), _OneBadKernel("two_level_pick")):
            monkeypatch.setattr(backend_mod, "_ACTIVE", backend)
            rng = np.random.default_rng(21)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                out, _ = LADIES(step_size=5).sample_from_neighborhood(
                    medium_graph, batch, None, None, transits, 0, rng)
            after.append((out.tobytes(), rng.bit_generator.state))
        assert after[0] == after[1]


def _edge_case_graph():
    """Directed, 40 vertices: self-loops at 5 and 9, no edge touches 38
    or 39 (zero-degree transits, unreachable new vertices)."""
    pairs = np.random.default_rng(3).integers(0, 38, size=(300, 2))
    return CSRGraph.from_edges(
        40, np.concatenate([pairs, [[5, 5], [9, 9]]]), name="edge-cases")


def _edge_case_step(num_samples=7, t_width=5, v_width=6):
    rng = np.random.default_rng(17)
    transits = rng.integers(0, 40, size=(num_samples, t_width))
    new = rng.integers(0, 40, size=(num_samples, v_width))
    transits[rng.random(transits.shape) < 0.2] = NULL_VERTEX
    new[rng.random(new.shape) < 0.2] = NULL_VERTEX
    if num_samples > 3 and t_width > 2 and v_width > 2:
        transits[0, :3] = [5, 38, 5]        # self-loop, zero degree, twice
        new[0, :3] = [5, 9, 5]              # repeated within the row
        transits[2], new[3] = NULL_VERTEX, NULL_VERTEX   # all-NULL rows
    return transits, new


@pytest.mark.parametrize("backend_name", COMPILED)
class TestKernelMicroParity:
    """Hook-level parity on tiny inputs, per compiled backend."""

    @pytest.fixture
    def backend(self, backend_name):
        b = CNativeBackend()
        b.warm_up()
        assert not b._failed, b._failed
        return b

    def test_warm_up_idempotent(self, backend):
        lib = backend._lib
        backend.warm_up()
        assert backend._lib is lib and not backend._failed

    # -- individual-step draws into the step's destination -------------

    @staticmethod
    def _fill_case(hook_name, k, m, seed):
        """A graph (zero-degree vertices 38 and 39), ``k`` transits with
        NULLs among them and ``k`` distinct rows of a dirty ``m``-wide
        destination with 37 rows to spare."""
        rng = np.random.default_rng(seed)
        g = _edge_case_graph()
        if hook_name == "weighted_neighbors":
            g = g.with_random_weights(seed=seed)
        transits = rng.integers(-1, 40, size=k)
        rows = rng.permutation(k + 37)[:k]
        dest = rng.integers(0, 10**9, size=(k + 37, m))
        return g, transits, rows, dest

    @staticmethod
    def _numpy_into(hook_name, g, transits, m, rng, dest, rows):
        """The oracle: numpy's kernel, then ``dest[rows] = picks``."""
        from repro.api.apps import _kernels
        with backend_scope("numpy"):
            picks = getattr(_kernels, hook_name)(g, transits, m, rng)
        dest[rows] = picks

    @pytest.mark.parametrize("hook_name", ["uniform_neighbors",
                                           "weighted_neighbors"])
    def test_fill_hooks_write_rows_like_numpy_assignment(self, backend,
                                                         hook_name):
        for m in (1, 2, 10, 25):
            for k in (0, 1, 4095, 4096, 4097):
                g, transits, rows, got = self._fill_case(hook_name, k, m,
                                                         k + m)
                want = got.copy()
                got_rng, ref_rng = (np.random.default_rng(k) for _ in "ab")
                self._numpy_into(hook_name, g, transits, m, ref_rng,
                                 want, rows)
                hook = getattr(backend, hook_name)
                assert hook(g, transits, m, got_rng, got, rows) is got
                assert np.array_equal(got, want), (m, k)
                assert got_rng.bit_generator.state == \
                    ref_rng.bit_generator.state

    def test_node2vec_hook_writes_rows_like_numpy_assignment(self, backend,
                                                             monkeypatch):
        from repro.api.apps import Node2Vec
        g, transits, rows, got = self._fill_case("node2vec_neighbors",
                                                 4097, 1, 3)
        g = g.with_random_weights(seed=3)
        prev = np.roll(transits, 1)
        want = got.copy()
        results = []
        for b, dest in ((NumpyBackend(), want), (backend, got)):
            monkeypatch.setattr(backend_mod, "_ACTIVE", b)
            rng = np.random.default_rng(4)
            sampled, _ = Node2Vec(p=0.5, q=2.0).sample_neighbors(
                g, transits, 1, rng, prev_transits=prev, out_rows=dest,
                rows=rows)
            if sampled is not None:
                dest[rows] = sampled
            results.append((sampled is None, rng.bit_generator.state))
        assert results[0][1] == results[1][1]
        assert results == [(False, results[0][1]), (True, results[0][1])]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("hook_name", ["uniform_neighbors",
                                           "weighted_neighbors",
                                           "node2vec_neighbors"])
    @pytest.mark.parametrize("bad_row", ["past_the_end", "negative"])
    def test_rows_out_of_range_decline_before_drawing(
            self, backend, monkeypatch, hook_name, bad_row):
        """The count pass (node2vec: its pre-check) finds the row; the
        hook returns ``None`` with the generator and the destination
        untouched, and numpy's indexing decides what the draw does."""
        from repro.api.apps import Node2Vec, _kernels
        m = 1 if hook_name == "node2vec_neighbors" else 3
        g, transits, rows, dest = self._fill_case(hook_name, 50, m, 9)
        rows[17] = dest.shape[0] if bad_row == "past_the_end" else -2
        args = ((None, 1.0, 2.0, 10) if hook_name == "node2vec_neighbors"
                else (m,))
        rng = np.random.default_rng(0)
        before, state = dest.copy(), rng.bit_generator.state
        assert getattr(backend, hook_name)(g, transits, *args, rng, dest,
                                           rows) is None
        assert rng.bit_generator.state == state
        assert np.array_equal(dest, before)

        def draw(b):
            monkeypatch.setattr(backend_mod, "_ACTIVE", b)
            out = before.copy()
            rng = np.random.default_rng(1)
            try:
                if hook_name == "node2vec_neighbors":
                    sampled, _ = Node2Vec(q=2.0).sample_neighbors(
                        g, transits, 0, rng, out_rows=out, rows=rows)
                    out[rows] = sampled
                else:
                    getattr(_kernels, hook_name)(g, transits, m, rng, out,
                                                 rows)
            except IndexError:
                return "IndexError", rng.bit_generator.state
            return out.tobytes(), rng.bit_generator.state

        want = draw(NumpyBackend())
        assert draw(backend) == want
        assert (want[0] == "IndexError") == (bad_row == "past_the_end")

    def test_fill_hooks_decline_layouts_c_cannot_write(self, backend,
                                                       monkeypatch):
        """A destination C cannot write as it is — int32, strided,
        transposed, read-only — or strided ``rows``: the hook declines
        before drawing and numpy's assignment lands the picks."""
        from repro.api.apps._kernels import uniform_neighbors
        g, transits, rows, dest = self._fill_case("uniform_neighbors",
                                                  20, 3, 29)
        wide = np.random.default_rng(29).integers(0, 1000, size=(57, 6))
        read_only = dest.copy()
        read_only.flags.writeable = False
        every_other = np.random.default_rng(2).permutation(57)[:40]
        for out, rows_ in (
                (dest.astype(np.int32), rows),                 # int32
                (wide[:, ::2], rows),                          # strided
                (np.ascontiguousarray(dest.T).T, rows),        # transposed
                (read_only, rows),                             # read-only
                (dest.copy(), every_other[::2])):              # strided rows
            rng = np.random.default_rng(5)
            state = rng.bit_generator.state
            assert backend.uniform_neighbors(
                g, transits, 3, rng, out, rows_) is None
            assert rng.bit_generator.state == state

            def draw(b):
                monkeypatch.setattr(backend_mod, "_ACTIVE", b)
                got = out.copy()
                got.flags.writeable = out.flags.writeable
                try:
                    assert uniform_neighbors(g, transits, 3,
                                             np.random.default_rng(6), got,
                                             rows_) is None
                except ValueError:   # numpy's own read-only refusal
                    return "ValueError"
                return got.tobytes()

            assert draw(backend) == draw(NumpyBackend())

    def test_fill_hooks_from_chunk_threads(self, backend):
        """Threads (more than this host has cores) drawing disjoint row
        sets of one destination, as chunk threads do, match the serial
        numpy run: the C fills write without the GIL."""
        import sys
        from concurrent.futures import ThreadPoolExecutor
        rng = np.random.default_rng(31)
        g = rmat_graph(5000, 40000, seed=31)
        nrows, m, nthreads = 50_000, 10, 2 * (os.cpu_count() or 1) + 1
        transits = rng.integers(-1, g.num_vertices, size=nrows)
        rows = rng.permutation(nrows)
        cuts = np.linspace(0, nrows, 4 * nthreads + 1).astype(int)
        chunks = list(zip(cuts[:-1], cuts[1:]))
        want = np.zeros((nrows, m), dtype=np.int64)
        for c, (lo, hi) in enumerate(chunks):
            self._numpy_into("uniform_neighbors", g, transits[lo:hi], m,
                             np.random.default_rng(c), want, rows[lo:hi])
        got = np.zeros_like(want)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(nthreads) as pool:
                futures = [pool.submit(backend.uniform_neighbors, g,
                                       transits[lo:hi], m,
                                       np.random.default_rng(c), got,
                                       rows[lo:hi])
                           for c, (lo, hi) in enumerate(chunks)]
                for future in futures:
                    assert future.result(timeout=60) is got
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, want)

    def test_ragged_gather_matches_concat(self, backend):
        values = np.arange(100, dtype=np.int64) * 3
        starts = np.array([4, 50, 10], dtype=np.int64)
        counts = np.array([3, 0, 5], dtype=np.int64)
        offsets = np.concatenate(
            [[0], np.cumsum(counts)[:-1]]).astype(np.int64)
        got = backend.ragged_gather(values, starts, counts, offsets, 8)
        ref = np.concatenate([values[s:s + c]
                              for s, c in zip(starts, counts)])
        assert np.array_equal(got, ref)

    def test_ragged_gather_float64(self, backend):
        values = np.linspace(0.0, 1.0, 20)
        starts = np.array([2, 9], dtype=np.int64)
        counts = np.array([4, 4], dtype=np.int64)
        offsets = np.array([0, 4], dtype=np.int64)
        got = backend.ragged_gather(values, starts, counts, offsets, 8)
        assert np.array_equal(
            got, np.concatenate([values[2:6], values[9:13]]))

    def test_dedupe_rows_matches_numpy(self, backend):
        rows = np.array([[4, 4, 5, 4], [1, 2, 3, 1], [7, 7, 7, 7]],
                        dtype=np.int64)
        deduped, dups = backend.dedupe_rows(rows)
        from repro.api.types import NULL_VERTEX as N
        assert dups == 2 + 1 + 3
        assert np.array_equal(
            deduped, [[4, N, 5, N], [1, 2, 3, N], [7, N, N, N]])
        # Input untouched.
        assert rows[0, 1] == 4

    def _check_draw_order(self, backend, hook_name, fill, kernel, *args):
        """The hook picks what numpy's ``kernel`` picks and advances the
        generator identically — also when its ``fill`` kernel fails
        after the draw and numpy finishes on the drawn block."""
        from repro.api.apps import _kernels
        rngs = [np.random.default_rng(8) for _ in range(3)]
        with backend_scope("numpy"):
            want = getattr(_kernels, kernel)(*args, rngs[0])
        got = getattr(backend, hook_name)(*args, rngs[1])
        with pytest.warns(RuntimeWarning, match="disabled"):
            rescued = getattr(_OneBadKernel(fill), hook_name)(*args, rngs[2])
        for out, rng in ((got, rngs[1]), (rescued, rngs[2])):
            assert np.array_equal(out, want)
            assert rng.bit_generator.state == rngs[0].bit_generator.state

    def test_uniform_neighbors_matches_numpy_draw_order(self, backend):
        self._check_draw_order(
            backend, "uniform_neighbors", "uniform_fill",
            "uniform_neighbors", rmat_graph(64, 256, seed=11),
            np.array([0, 5, -1, 63, 12, 5]), 3)

    def test_weighted_neighbors_matches_numpy_draw_order(self, backend):
        self._check_draw_order(
            backend, "weighted_neighbors", "weighted_fill",
            "weighted_neighbors",
            rmat_graph(64, 256, seed=11).with_random_weights(seed=2),
            np.array([3, 3, 17, -1, 60]), 2)

    def test_segment_choice_is_the_uniform_draw_over_segments(
            self, backend, monkeypatch):
        """Under every backend, and when the C fill fails after its
        draw: ``(live, m)`` doubles, truncated picks into each live
        segment, NULL rows for the empty one."""
        from repro.api.apps._kernels import segment_uniform_choice
        values = np.arange(30, dtype=np.int64) * 7
        offsets = np.array([0, 4, 4, 11, 30])
        live = np.array([0, 2, 3])
        sizes = np.diff(offsets)[live][:, None]
        picks = (np.random.default_rng(8).random((3, 3)) * sizes)
        want = np.full((4, 3), NULL_VERTEX)
        want[live] = values[offsets[live][:, None] + np.minimum(
            picks.astype(np.int64), sizes - 1)]
        for b in (NumpyBackend(), backend, _OneBadKernel("uniform_fill")):
            monkeypatch.setattr(backend_mod, "_ACTIVE", b)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = segment_uniform_choice(values, offsets, 3,
                                             np.random.default_rng(8))
            assert np.array_equal(got, want)

    # -- collective path: edge recording + the LADIES draw -------------

    @pytest.mark.parametrize("shape", [(7, 5, 6), (7, 3, 70), (0, 5, 6),
                                       (7, 5, 0), (7, 0, 6)])
    @pytest.mark.parametrize("block_rows", [1, 2, 338])
    def test_edge_hits_matches_dense_oracle(self, backend, shape,
                                            block_rows):
        graph = _edge_case_graph()
        transits, new = _edge_case_step(*shape)
        got = backend.edge_hits(graph, transits, new, block_rows)
        want = _reference_record_step_edges(None, graph, None, transits,
                                            new, 0)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        if 0 not in shape:
            assert got.size and (got[:, 1] == got[:, 2]).any()  # 5 -> 5

    def test_edge_hits_row_blocks_follow_the_bound(self, backend,
                                                   monkeypatch):
        graph = _edge_case_graph()
        transits, new = _edge_case_step()
        hook, blocks = backend.edge_hits, []

        def spy(graph, transits, new, block_rows):
            blocks.append(-(-transits.shape[0] // block_rows))
            return hook(graph, transits, new, block_rows)

        monkeypatch.setattr(backend, "edge_hits", spy)
        monkeypatch.setattr(backend_mod, "_ACTIVE", backend)
        monkeypatch.setattr(importance_mod, "EDGE_BLOCK_MAX_BYTES", 32)
        got = FastGCN().record_step_edges(graph, None, transits, new, 0)
        assert blocks and blocks[0] >= 3
        assert np.array_equal(got, _reference_record_step_edges(
            None, graph, None, transits, new, 0))

    def test_two_level_pick_matches_numpy_bisection(self, backend,
                                                    monkeypatch):
        """Same ``draws`` through both renderings, the two clamps
        included: row 0 repeats one transit four times, so 0.25 / 0.5
        of its total are transit-mass boundaries exactly; 1.0 is the
        row total and the float after it lies past every candidate."""
        graph = rmat_graph(64, 256, seed=11)
        hub = int(np.argmax(graph.degrees_array))
        transits = np.array([[hub] * 4, [5, NULL_VERTEX, 12, 63],
                             [3, 3, 17, 60]], dtype=np.int64)
        u = np.random.default_rng(2).random((3, 6))
        u[0, :5] = [0.25, 0.5, 1.0, np.nextafter(1.0, 2.0), 0.0]
        u[1, :2] = [1.0, np.nextafter(1.0, 2.0)]
        hook, used = backend.two_level_pick, []

        def spy(*args):
            used.append(hook(*args))
            return used[-1]

        monkeypatch.setattr(backend, "two_level_pick", spy)

        def pick(active):
            monkeypatch.setattr(backend_mod, "_ACTIVE", active)
            return LADIES(step_size=6).sample_from_neighborhood(
                graph, types.SimpleNamespace(num_samples=3), None, None,
                transits, 0, _FixedDraws(u))[0]

        got, want = pick(backend), pick(NumpyBackend())
        assert len(used) == 1 and used[0] is not None
        assert (want != NULL_VERTEX).all() and np.array_equal(got, want)

    def test_collective_hooks_decline_unfit_arrays(self, backend):
        graph = _edge_case_graph()
        transits, new = _edge_case_step()
        assert backend.edge_hits(graph, transits.astype(np.int32), new,
                                 4) is None
        assert backend.edge_hits(graph, transits, new[:, ::2], 4) is None
        ecs, _ = LADIES()._edge_importance(graph)
        mass = np.array([2.0, 5.0, 9.0])
        lo, hi = np.array([0]), np.array([3])
        pair_t = np.array([1, 2, 3])
        draws = np.array([[1.0, 6.0]])
        assert backend.two_level_pick(graph, ecs, mass, lo, hi, pair_t,
                                      draws) is not None
        for unfit in ((ecs, mass[::2], lo, hi, pair_t, draws),
                      (ecs, mass, lo.astype(np.int32), hi, pair_t, draws),
                      (ecs, mass, lo, hi, pair_t, np.ones((1, 4))[:, ::2]),
                      (ecs, mass, lo, hi, pair_t, draws.T),  # 2 rows, 1 lo
                      (ecs, mass, lo, hi, pair_t, draws[0])):
            assert backend.two_level_pick(graph, *unfit) is None
        assert not backend._failed


class TestCNativeToolchain:
    def test_toolchain_detection_consistent(self):
        assert CNativeBackend().available() \
            == (cnative.find_compiler() is not None) \
            == ("cnative" in available_backends())

    @needs_cc
    def test_library_loads_when_toolchain_present(self):
        lib = cnative.load_library()
        assert lib is not None and cnative.load_library() is lib

    def test_build_source_is_per_process_and_flags_key_the_cache(
            self, tmp_path, monkeypatch):
        # Concurrent first-use builds must not share a source file,
        # and a library built with other flags is another library.
        args, cc = tmp_path / "args", tmp_path / "cc"
        cc.write_text(f'#!/bin/sh\necho "$@" > {args}\nexit 1\n')
        cc.chmod(0o755)
        monkeypatch.setenv("CC", str(cc))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        path = cnative.library_path()
        with pytest.raises(RuntimeError):
            cnative.build_library()
        src = args.read_text().split()[-1]
        assert src == f"{path}.tmp{os.getpid()}.c"
        assert not os.path.exists(src)
        monkeypatch.setattr(cnative, "_CFLAGS", [*cnative._CFLAGS, "-O3"])
        assert cnative.library_path() != path


class TestEnvSelectionEndToEnd:
    def test_env_var_drives_default_backend(self, monkeypatch):
        from repro.native import backend as mod
        monkeypatch.setenv(BACKEND_ENV, "cnative")
        monkeypatch.setattr(mod, "_ACTIVE", None)
        assert mod.active_backend().name == "cnative"
