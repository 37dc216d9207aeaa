"""Backend selection, RNG shims, and graceful degradation."""

import os
import warnings

import numpy as np
import pytest

from repro.native import rngshim
from repro.native.backend import (
    BACKEND_ENV,
    BACKEND_IDS,
    BACKEND_NAMES,
    CompiledBackend,
    NumbaBackend,
    NumpyBackend,
    available_backends,
    backend_scope,
    resolve_backend_name,
    set_backend,
)
from repro.obs import get_metrics

COMPILED = [b for b in available_backends() if b != "numpy"]


def _make_backend(name):
    from repro.native import backend as mod
    return mod._make(name)


class TestSelection:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numba")
        assert resolve_backend_name("numpy") == "numpy"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "numba")
        assert resolve_backend_name(None) == "numba"

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend_name(None) == "numpy"

    def test_blank_env_ignored(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "  ")
        assert resolve_backend_name(None) == "numpy"

    def test_case_insensitive(self):
        assert resolve_backend_name("NUMBA") == "numba"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend_name("cuda")

    def test_every_name_resolvable(self):
        for name in BACKEND_NAMES:
            assert resolve_backend_name(name) == name

    def test_backend_scope_restores(self):
        from repro.native.backend import active_backend_name
        before = active_backend_name()
        with backend_scope("numba") as b:
            assert b.name == "numba"
            from repro.native.backend import active_backend
            assert active_backend() is b
        assert active_backend_name() == before

    def test_set_backend_exports_gauge(self):
        with backend_scope("numba"):
            gauge = get_metrics().gauge("runtime.backend_active")
            assert gauge.value == float(BACKEND_IDS["numba"])


class TestAutoFallback:
    def test_auto_without_numba_warns_once(self, monkeypatch):
        from repro.native import backend as mod, jit
        if jit.HAVE_NUMBA:
            pytest.skip("numba installed; auto resolves to numba")
        monkeypatch.setattr(mod, "_AUTO_WARNED", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = mod._resolve_auto()
            second = mod._resolve_auto()
        assert isinstance(first, NumpyBackend)
        assert isinstance(second, NumpyBackend)
        relevant = [w for w in caught
                    if "numba is not installed" in str(w.message)]
        assert len(relevant) == 1

    def test_auto_with_numba_selects_numba(self):
        from repro.native import jit
        if not jit.HAVE_NUMBA:
            pytest.skip("numba not installed")
        from repro.native import backend as mod
        assert isinstance(mod._resolve_auto(), NumbaBackend)


class TestRngShim:
    """The C/numba node2vec kernels re-derive numpy's PCG64 stream;
    these pin the reference implementation the kernels mirror."""

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

    def test_pcg_fill_kernel_matches_numpy(self):
        from repro.native.kernels_py import pcg_fill
        rng = np.random.default_rng(99)
        words = rngshim.state_words(rng).copy()
        out = np.empty(32, dtype=np.float64)
        with np.errstate(over="ignore"):
            pcg_fill(words, out)
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


class _OneBadKernel(NumbaBackend):
    """numba backend whose grouping kernel always fails to build."""

    def _build(self, name):
        if name == "grouping":
            raise RuntimeError("synthetic compile failure")
        return super()._build(name)


class TestGracefulDegradation:
    def test_failed_kernel_falls_back_and_counts(self):
        counter = get_metrics().counter("native.compile_failures")
        before = counter.value
        backend = _OneBadKernel()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert backend.grouping(
                np.array([2, 0, 2, 1], dtype=np.int64)) is None
            # Second call: already disabled, no second warning/count.
            assert backend.grouping(
                np.array([1, 1], dtype=np.int64)) is None
        disabled = [w for w in caught if "disabled" in str(w.message)]
        assert len(disabled) == 1
        assert counter.value == before + 1

    def test_other_kernels_stay_alive(self):
        backend = _OneBadKernel()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            backend.warm_up()
        rows = np.array([[1, 1, 2], [3, 4, 3]], dtype=np.int64)
        got = backend.dedupe_rows(rows)
        assert got is not None
        deduped, dups = got
        assert dups == 2
        assert "grouping" in backend._failed
        assert "dedupe_rows" not in backend._failed

    def test_disable_direct_is_idempotent(self):
        counter = get_metrics().counter("native.compile_failures")
        backend = NumbaBackend()
        before = counter.value
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            backend._disable("uniform_fill", ValueError("x"))
            backend._disable("uniform_fill", ValueError("x"))
        assert counter.value == before + 1
        assert backend.uniform_neighbors(
            None, np.array([0], dtype=np.int64), 1, None) is None


@pytest.mark.parametrize("backend_name", COMPILED)
class TestKernelMicroParity:
    """Hook-level parity on tiny inputs, per compiled backend."""

    @pytest.fixture
    def backend(self, backend_name):
        b = _make_backend(backend_name)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            b.warm_up()
        assert not b._failed, b._failed
        return b

    def test_warm_up_idempotent(self, backend):
        table_after_first = dict(backend._table)
        backend.warm_up()
        assert backend._table == table_after_first

    def test_grouping_matches_argsort(self, backend):
        vals = np.array([5, 2, 5, 9, 2, 2, 7], dtype=np.int64)
        order = backend.grouping(vals)
        assert order is not None
        assert np.array_equal(order, np.argsort(vals, kind="stable"))
        # Stability: equal keys keep input order (the three 2s).
        assert np.array_equal(order[:3], np.array([1, 4, 5]))

    def test_grouping_sorts_huge_span(self, backend):
        # No span-sized buffer any more: a 2**40 id range is 3 passes.
        vals = np.array([1 << 40, 0, 70000, 0], dtype=np.int64)
        assert np.array_equal(backend.grouping(vals), [1, 3, 2, 0])

    def test_scatter_rows_hook_declines(self, backend):
        # Step assembly is a numpy row scatter (core/stepper.py); the
        # hook survives as an attribute for the perf ledger only.
        out = np.zeros((2, 2), dtype=np.int64)
        assert backend.scatter_rows(
            out, np.ones((1, 1), dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64), 1) is None
        assert not out.any()

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
        got = backend.dedupe_rows(rows)
        assert got is not None
        deduped, dups = got
        from repro.api.types import NULL_VERTEX
        assert dups == 2 + 1 + 3
        ref = rows.copy()
        for i in range(ref.shape[0]):
            seen = set()
            for j in range(ref.shape[1]):
                v = ref[i, j]
                if v in seen:
                    ref[i, j] = NULL_VERTEX
                seen.add(v)
        assert np.array_equal(deduped, ref)
        # Input untouched.
        assert rows[0, 1] == 4

    def test_uniform_neighbors_matches_numpy_draw_order(self, backend):
        from repro.graph.generators import rmat_graph
        g = rmat_graph(64, 256, seed=11)
        transits = np.array([0, 5, -1, 63, 12, 5], dtype=np.int64)
        ref_rng = np.random.default_rng(8)
        got_rng = np.random.default_rng(8)
        got = backend.uniform_neighbors(g, transits, 3, got_rng)
        assert got is not None
        from repro.native.backend import _uniform_from_draws, \
            _eligible_indices
        count = _eligible_indices(g, transits).size
        ref = _uniform_from_draws(g, transits, 3,
                                  ref_rng.random(count * 3))
        assert np.array_equal(got, ref)
        # Both generators advanced identically.
        assert np.array_equal(got_rng.random(4), ref_rng.random(4))

    def test_weighted_neighbors_matches_numpy_draw_order(self, backend):
        from repro.graph.generators import rmat_graph
        g = rmat_graph(64, 256, seed=11).with_random_weights(seed=2)
        transits = np.array([3, 3, 17, -1, 60], dtype=np.int64)
        ref_rng = np.random.default_rng(8)
        got_rng = np.random.default_rng(8)
        got = backend.weighted_neighbors(g, transits, 2, got_rng)
        assert got is not None
        from repro.native.backend import _weighted_from_draws, \
            _eligible_indices
        count = _eligible_indices(g, transits).size
        ref = _weighted_from_draws(g, transits, 2,
                                   ref_rng.random(2 * count))
        assert np.array_equal(got, ref)
        assert np.array_equal(got_rng.random(4), ref_rng.random(4))


class TestCNativeToolchain:
    def test_toolchain_detection_consistent(self):
        from repro.native import cnative
        from repro.native.backend import CNativeBackend
        assert CNativeBackend().available() \
            == cnative.toolchain_available()

    def test_library_loads_when_toolchain_present(self):
        from repro.native import cnative
        if not cnative.toolchain_available():
            pytest.skip("no C toolchain on this host")
        lib = cnative.load_library()
        assert lib is not None
        # Loading again reuses the cached artifact.
        assert cnative.load_library() is not None


class TestEnvSelectionEndToEnd:
    def test_env_var_drives_default_backend(self, monkeypatch):
        from repro.native import backend as mod
        monkeypatch.setenv(BACKEND_ENV, "numba")
        monkeypatch.setattr(mod, "_ACTIVE", None)
        try:
            assert mod.active_backend().name == "numba"
        finally:
            mod._ACTIVE = None
