"""Deterministic chunked RNG plan.

The runtime cuts each step's (sample, transit) pairs into fixed-size
chunks and samples every chunk with its own
:class:`numpy.random.Generator`, seeded by ``SeedSequence(entropy=seed,
spawn_key=key)`` — what ``SeedSequence(seed).spawn()`` hands out, minus
spawning in sequence.  A chunk's stream is a pure function of ``(seed,
step, chunk)``, so the same plan is consumed on one thread or on any
number of chunk threads, in any completion order.  Root selection,
the unique top-up and ``post_step`` each get their own keyed stream,
so their draws cannot shift with the chunk count.

Sampled values are thus a function of the seed, the chunk constant
:data:`CHUNK_PAIRS` and each step's **schedule**, the pair order
chunks are cut from: grouped by transit, except that a walk-shaped
step (:func:`repro.core.stepper.walk_shaped`) runs in sample order.
The schedule is the same in every engine.

The device count and the engine are not among them: a multi-device
run samples the one-device batch and splits it only to price it, and
an engine is only the price list of the one run.

Key layout::

    (0,)                 init: roots + app.init_state
    (1, step, chunk)     step sampling, one stream per chunk
    (2, step, slot)      aux streams (0 = unique top-up, 1 = post_step)
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RNGPlan", "CHUNK_PAIRS", "AUX_TOPUP", "AUX_POST"]

#: Pairs per chunk for individual (per-transit) sampling.  Part of the
#: determinism contract: changing it changes the sampled values (but
#: never their distribution), exactly like changing the seed.  No
#: caller sets it; a plan reads it when it is constructed.
CHUNK_PAIRS = 4096

#: Aux stream slots.
AUX_TOPUP = 0
AUX_POST = 1

_DOMAIN_INIT = 0
_DOMAIN_STEP = 1
_DOMAIN_AUX = 2


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
    run seed.  Pure function of ``(seed, key)`` — safe to call on any
    thread, any number of times.

    Seed hashing dominates the cost of small chunks, so the hashed
    words are memoised per ``(seed, key)``: repeated runs (benchmark
    repeats, verify re-runs, a long-lived daemon) rebuild each
    chunk generator from its cached words — states are identical to
    the uncached construction, only faster.
    """
    return np.random.Generator(
        np.random.PCG64(_seed_words(int(seed), tuple(key))))


class RNGPlan:
    """The deterministic chunk layout + seed derivation of one run."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.chunk_pairs = CHUNK_PAIRS
        # Collective steps chunk over *samples*; each row is a whole
        # combined-neighborhood selection, so rows are far heavier than
        # individual pairs.
        self.rows_per_chunk = max(1, self.chunk_pairs // 32)

    # -- seed derivation ----------------------------------------------

    def init_rng(self) -> np.random.Generator:
        """Stream for root selection + ``app.init_state``."""
        return generator_for(self.seed, (_DOMAIN_INIT,))

    def chunk_rng(self, step: int, chunk: int) -> np.random.Generator:
        """Stream for chunk ``chunk`` of step ``step``'s sampling."""
        return generator_for(self.seed, (_DOMAIN_STEP, step, chunk))

    def aux_rng(self, step: int, slot: int) -> np.random.Generator:
        """Per-step aux stream (``AUX_TOPUP`` / ``AUX_POST``)."""
        return generator_for(self.seed, (_DOMAIN_AUX, step, slot))

    # -- chunk layout -------------------------------------------------

    @staticmethod
    def _bounds(n: int, size: int) -> List[int]:
        return [*range(0, n, size), n] if n > 0 else [0]

    def individual_bounds(self, num_pairs: int) -> List[int]:
        """Chunk boundaries over a step's flattened pair array, as
        plain ints: ``[0, c, 2c, ..., num_pairs]``."""
        return self._bounds(num_pairs, self.chunk_pairs)

    def collective_bounds(self, num_samples: int) -> List[int]:
        """Chunk boundaries over a collective step's sample rows."""
        return self._bounds(num_samples, self.rows_per_chunk)

    def __repr__(self) -> str:
        return (f"RNGPlan(seed={self.seed}, chunk_pairs={self.chunk_pairs}, "
                f"rows_per_chunk={self.rows_per_chunk})")
