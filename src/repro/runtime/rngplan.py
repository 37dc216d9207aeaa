"""Deterministic chunked RNG plan.

The runtime cuts each step's (sample, transit) pairs into fixed-size
chunks and samples every chunk with its own
:class:`numpy.random.Generator`, seeded by ``SeedSequence(entropy=seed,
spawn_key=key)`` — what ``SeedSequence(seed).spawn()`` hands out, minus
spawning in sequence.  A chunk's stream is a pure function of ``(seed,
step, chunk)``, so the same plan is consumed in-process or on any
number of workers, in any completion order, and a chunk re-run after a
lost worker re-creates its generator from scratch.  Root selection,
the unique top-up and ``post_step`` each get their own keyed stream,
so their draws cannot shift with the chunk count.

Sampled values are thus a function of the seed, the chunk size and
each step's **schedule**, the pair order chunks are cut from: grouped
by transit, except that a walk-shaped step
(:func:`repro.core.stepper.walk_shaped`) runs in sample order.

Key layout (all under an optional ``namespace`` prefix, used to give
each multi-GPU shard an independent plan)::

    (0,)                 init: roots + app.init_state
    (1, step, chunk)     step sampling, one stream per chunk
    (2, step, slot)      aux streams (0 = unique top-up, 1 = post_step)
    (3, shard) + key     per-shard namespace for multi-device runs
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RNGPlan", "DEFAULT_CHUNK_PAIRS", "AUX_TOPUP", "AUX_POST"]

#: Pairs per chunk for individual (per-transit) sampling.  Part of the
#: determinism contract: changing it changes the sampled values (but
#: never their distribution), exactly like changing the seed.
DEFAULT_CHUNK_PAIRS = 4096

#: Aux stream slots.
AUX_TOPUP = 0
AUX_POST = 1

_DOMAIN_INIT = 0
_DOMAIN_STEP = 1
_DOMAIN_AUX = 2
_DOMAIN_SHARD = 3


class _SeedWords(ISeedSequence):
    """Pre-hashed seed material: hands ``PCG64`` the exact words the
    keyed ``SeedSequence`` would generate, skipping the hash."""

    __slots__ = ("_words", "_seed", "_key")

    def __init__(self, words: np.ndarray, seed: int,
                 key: Tuple[int, ...]) -> None:
        self._words = words
        self._seed = seed
        self._key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if dtype == np.uint64 and n_words <= self._words.size:
            return self._words[:n_words]
        # Unexpected request shape (a different bit generator):
        # regenerate from the real SeedSequence so nothing changes.
        ss = np.random.SeedSequence(entropy=self._seed,
                                    spawn_key=self._key)
        return ss.generate_state(n_words, dtype)


@lru_cache(maxsize=16384)
def _seed_words(seed: int, key: Tuple[int, ...]) -> _SeedWords:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    words = ss.generate_state(4, np.uint64)
    words.setflags(write=False)
    return _SeedWords(words, seed, key)


def generator_for(seed: int, key: Tuple[int, ...]) -> np.random.Generator:
    """The Generator for one plan key: ``SeedSequence`` keyed off the
    run seed.  Pure function of ``(seed, key)`` — safe to call in any
    process, any number of times.

    Seed hashing dominates the cost of small chunks, so the hashed
    words are memoised per ``(seed, key)``: repeated runs (benchmark
    repeats, verify re-runs, long-lived pool workers) rebuild each
    chunk generator from its cached words — states are identical to
    the uncached construction, only faster.
    """
    return np.random.Generator(
        np.random.PCG64(_seed_words(int(seed), tuple(key))))


class RNGPlan:
    """The deterministic chunk layout + seed derivation of one run."""

    def __init__(self, seed: int, chunk_pairs: int = DEFAULT_CHUNK_PAIRS,
                 chunk_rows: Optional[int] = None,
                 namespace: Tuple[int, ...] = ()) -> None:
        if chunk_pairs < 1:
            raise ValueError("chunk_pairs must be >= 1")
        self.seed = int(seed)
        self.chunk_pairs = int(chunk_pairs)
        # Collective steps chunk over *samples*; each row is a whole
        # combined-neighborhood selection, so rows are far heavier than
        # individual pairs.
        self.chunk_rows = int(chunk_rows) if chunk_rows is not None \
            else max(1, self.chunk_pairs // 32)
        if self.chunk_rows < 1:
            raise ValueError("chunk_rows must be >= 1")
        self.namespace = tuple(int(k) for k in namespace)

    # -- seed derivation ----------------------------------------------

    def _key(self, *key: int) -> Tuple[int, ...]:
        return self.namespace + tuple(key)

    def init_rng(self) -> np.random.Generator:
        """Stream for root selection + ``app.init_state``."""
        return generator_for(self.seed, self._key(_DOMAIN_INIT))

    def chunk_key(self, step: int, chunk: int) -> Tuple[int, ...]:
        return self._key(_DOMAIN_STEP, step, chunk)

    def chunk_rng(self, step: int, chunk: int) -> np.random.Generator:
        """Stream for chunk ``chunk`` of step ``step``'s sampling."""
        return generator_for(self.seed, self.chunk_key(step, chunk))

    def aux_rng(self, step: int, slot: int) -> np.random.Generator:
        """Per-step aux stream (``AUX_TOPUP`` / ``AUX_POST``)."""
        return generator_for(self.seed, self._key(_DOMAIN_AUX, step, slot))

    def shard(self, shard_index: int) -> "RNGPlan":
        """An independent plan for one multi-device shard."""
        return RNGPlan(self.seed, chunk_pairs=self.chunk_pairs,
                       chunk_rows=self.chunk_rows,
                       namespace=self.namespace
                       + (_DOMAIN_SHARD, int(shard_index)))

    # -- chunk layout -------------------------------------------------

    @staticmethod
    def _bounds(n: int, size: int) -> np.ndarray:
        if n <= 0:
            return np.zeros(1, dtype=np.int64)
        return np.append(np.arange(0, n, size, dtype=np.int64),
                         np.int64(n))

    def individual_bounds(self, num_pairs: int) -> np.ndarray:
        """Chunk boundaries over a step's flattened pair array:
        ``[0, c, 2c, ..., num_pairs]``."""
        return self._bounds(num_pairs, self.chunk_pairs)

    def collective_bounds(self, num_samples: int) -> np.ndarray:
        """Chunk boundaries over a collective step's sample rows."""
        return self._bounds(num_samples, self.chunk_rows)

    def __repr__(self) -> str:
        return (f"RNGPlan(seed={self.seed}, chunk_pairs={self.chunk_pairs}, "
                f"chunk_rows={self.chunk_rows}, namespace={self.namespace})")
