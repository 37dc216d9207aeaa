"""PCG64 draw shim: the compiled backend's counter-compatible RNG.

The runtime's RNG plan (:mod:`repro.runtime.rngplan`) hands every chunk
a ``np.random.Generator`` backed by the PCG64 bit generator, and the
numpy kernels consume it exclusively through ``rng.random(size=...)``
— one 64-bit raw output per double.  Compiled kernels that must draw
*data-dependent* amounts of randomness (node2vec's rejection loop)
cannot pre-draw from numpy, so they reproduce the raw PCG64 stream
themselves:

1. :func:`state_words` extracts the generator's 128-bit LCG state and
   increment as four 64-bit words;
2. the kernel steps the LCG (``state = state * MULT + inc``) and applies
   the XSL-RR output function exactly as numpy does, converting each
   64-bit output to a double via ``(out >> 11) * 2**-53``;
3. after the kernel reports how many doubles it consumed,
   :func:`consume` advances the numpy generator by the same count, so
   any later draw on the stream — by numpy or by another kernel — sees
   the identical continuation.

The equivalence (raw stream, double conversion, and ``advance``
alignment) is proved bit-for-bit in ``tests/test_native_backend.py``.
Kernels with *fixed* draw counts (uniform / weighted choice)
skip the shim entirely: their wrappers pre-draw the exact block numpy
would have drawn, in the same order, from the same generator.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["MULT", "state_words", "raw_state", "consume",
           "ref_next64", "ref_doubles"]

#: The PCG64 128-bit LCG multiplier (Melissa O'Neill's default, the one
#: numpy's ``PCG64`` bit generator uses).
MULT = 0x2360ed051fc65da44385df649fccf645

_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def raw_state(rng: np.random.Generator) -> Optional[Tuple[int, int]]:
    """``(state, inc)`` of a PCG64-backed generator, or ``None`` when
    the generator is not PCG64 or holds a buffered 32-bit half-draw
    (``has_uint32``) the shim cannot represent — callers fall back to
    the numpy path in that case."""
    st = rng.bit_generator.state
    if st.get("bit_generator") != "PCG64" or st.get("has_uint32"):
        return None
    inner = st["state"]
    return int(inner["state"]), int(inner["inc"])


def state_words(rng: np.random.Generator) -> Optional[np.ndarray]:
    """The shim's kernel-side state: ``uint64[4]`` =
    ``[state_hi, state_lo, inc_hi, inc_lo]`` (or ``None``, see
    :func:`raw_state`)."""
    raw = raw_state(rng)
    if raw is None:
        return None
    state, inc = raw
    return np.asarray([state >> 64, state & _MASK64,
                       inc >> 64, inc & _MASK64], dtype=np.uint64)


def consume(rng: np.random.Generator, ndraws: int) -> None:
    """Advance ``rng`` past ``ndraws`` doubles a kernel consumed.

    One double costs exactly one raw PCG64 output, so ``advance(n)``
    realigns the numpy generator with the kernel's final shim state.
    """
    if ndraws > 0:
        rng.bit_generator.advance(int(ndraws))


# -- pure-Python reference (tests + documentation) ---------------------

def ref_next64(state: int, inc: int) -> Tuple[int, int]:
    """One PCG64 step: returns ``(new_state, output)``.

    numpy's PCG64 steps the LCG *first*, then applies the XSL-RR output
    function to the new state: rotate ``hi ^ lo`` right by the state's
    top 6 bits.
    """
    state = (state * MULT + inc) & _MASK128
    hi, lo = state >> 64, state & _MASK64
    rot = state >> 122
    x = hi ^ lo
    out = ((x >> rot) | (x << ((64 - rot) & 63))) & _MASK64
    return state, out


def ref_doubles(state: int, inc: int, n: int) -> Tuple[int, np.ndarray]:
    """``n`` sequential doubles from the raw stream (reference only)."""
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        state, word = ref_next64(state, inc)
        out[i] = (word >> 11) * (1.0 / 9007199254740992.0)
    return state, out
