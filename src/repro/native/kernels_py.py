"""The compiled backend's kernel bodies, written in nopython style.

Every function here is a plain loop over numpy arrays with no Python
object allocation in the hot path, so ``numba.njit(nogil=True,
cache=True)`` compiles each one unchanged (:mod:`repro.native.jit`).
Without numba the same functions run interpreted — far slower, but
bit-for-bit identical, which is what the parity tests exercise on
hosts with no compiler toolchain.

Contract with the numpy kernels (see ``docs/PERF.md``):

* fixed-draw-count kernels (``uniform_fill``, ``weighted_fill``,
  ``segment_fill``) consume a pre-drawn block ``r`` of doubles in
  exactly the order the numpy code drew them — ``(count, m)`` C-order
  for uniform/segment, ``(m, count)`` for weighted;
* ``node2vec_fill`` draws data-dependent randomness through the PCG64
  shim (:mod:`repro.native.rngshim`), replicating numpy's call order:
  per rejection round, first one pick draw for every pending pair,
  then one accept draw for every pending pair;
* integer truncation of ``r * n`` picks matches numpy's
  ``astype(np.int64)`` (both truncate toward zero, values are
  non-negative);
* the weighted kernel's per-row upper-bound binary search over the
  global weight cumsum returns the same index as numpy's global
  ``searchsorted(..., side="right")`` + clamp, because every index
  before the row start holds mass ``<= base <= target``.

All 128-bit PCG arithmetic is done on ``uint64`` words (64x64->128
multiply via 32-bit halves) so the bodies type-check under numba;
interpreted execution wraps calls in ``np.errstate(over="ignore")``
because numpy scalar uint64 arithmetic warns on the intentional
wraparound.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KERNEL_NAMES", "kernel_table"]

# uint64 constants — numba types mixed uint64/int literals as float64,
# so every operand in the PCG arithmetic must already be uint64.
_U0 = np.uint64(0)
_U1 = np.uint64(1)
_U11 = np.uint64(11)
_U32 = np.uint64(32)
_U58 = np.uint64(58)          # 122 - 64: rotate count from the high word
_U63 = np.uint64(63)
_MASK32 = np.uint64(0xFFFFFFFF)
_MULT_HI = np.uint64(0x2360ed051fc65da4)
_MULT_LO = np.uint64(0x4385df649fccf645)
_INV53 = 1.0 / 9007199254740992.0   # 2**-53


def _mulhi64(a, b):
    """High 64 bits of the 64x64 product, via 32-bit halves (every
    intermediate fits in uint64)."""
    ah = a >> _U32
    al = a & _MASK32
    bh = b >> _U32
    bl = b & _MASK32
    t = al * bl
    k = t >> _U32
    t = ah * bl + k
    k = t & _MASK32
    w1 = t >> _U32
    t = al * bh + k
    k2 = t >> _U32
    return ah * bh + w1 + k2


def pcg_next64(s):
    """Step the PCG64 state ``s`` (uint64[4]: state hi/lo, inc hi/lo)
    in place and return the 64-bit XSL-RR output."""
    hi = s[0]
    lo = s[1]
    # state = state * MULT + inc  (mod 2**128), low word first.
    new_lo = lo * _MULT_LO
    new_hi = hi * _MULT_LO + lo * _MULT_HI + _mulhi64(lo, _MULT_LO)
    new_lo = new_lo + s[3]
    carry = _U1 if new_lo < s[3] else _U0
    new_hi = new_hi + s[2] + carry
    s[0] = new_hi
    s[1] = new_lo
    x = new_hi ^ new_lo
    rot = new_hi >> _U58
    return (x >> rot) | (x << ((_U0 - rot) & _U63))


def pcg_double(s):
    """One double in [0, 1): ``(next64 >> 11) * 2**-53`` — numpy's
    exact conversion, one raw output per double."""
    return np.float64(pcg_next64(s) >> _U11) * _INV53


def pcg_fill(s, out):
    """Fill ``out`` with sequential doubles (shim self-test kernel)."""
    for i in range(out.shape[0]):
        out[i] = pcg_double(s)


# -- individual-step neighbor draws ------------------------------------

def uniform_count(transits, degrees, null_v):
    """Pairs that will draw: live transits with at least one edge."""
    n = 0
    for i in range(transits.shape[0]):
        t = transits[i]
        if t != null_v and degrees[t] > 0:
            n += 1
    return n


def uniform_fill(indptr, indices, degrees, transits, m, r, out, null_v):
    """``m`` uniform picks per eligible transit; ``r`` is the
    pre-drawn ``(count, m)`` block, flattened C-order."""
    j = 0
    for i in range(transits.shape[0]):
        t = transits[i]
        if t == null_v:
            continue
        d = degrees[t]
        if d <= 0:
            continue
        base = indptr[t]
        for q in range(m):
            pick = int(r[j] * d)
            if pick > d - 1:
                pick = d - 1
            out[i, q] = indices[base + pick]
            j += 1
    return j


def weighted_fill(indptr, indices, degrees, cumsum, row_base, row_total,
                  transits, m, count, r, out, null_v):
    """``m`` weight-proportional picks per eligible transit by
    upper-bound binary search in the row's span of the global weight
    cumsum; ``r`` is the pre-drawn ``(m, count)`` block, flattened
    C-order (draw round major, matching numpy's transposed draw)."""
    c = 0
    for i in range(transits.shape[0]):
        t = transits[i]
        if t == null_v:
            continue
        d = degrees[t]
        if d <= 0:
            continue
        b = row_base[t]
        tot = row_total[t]
        start = indptr[t]
        end = start + d
        for q in range(m):
            target = b + r[q * count + c] * tot
            lo = start
            hi = end
            while lo < hi:
                mid = (lo + hi) >> 1
                if cumsum[mid] <= target:
                    lo = mid + 1
                else:
                    hi = mid
            if lo > end - 1:
                lo = end - 1
            out[i, q] = indices[lo]
        c += 1
    return c


# -- collective selection ----------------------------------------------

def segment_count(offsets):
    n = 0
    for i in range(offsets.shape[0] - 1):
        if offsets[i + 1] > offsets[i]:
            n += 1
    return n


def segment_fill(values, offsets, m, r, out):
    """``m`` uniform picks per non-empty ragged segment; ``r`` is the
    pre-drawn ``(live, m)`` block, flattened C-order."""
    j = 0
    for i in range(offsets.shape[0] - 1):
        lo = offsets[i]
        size = offsets[i + 1] - lo
        if size <= 0:
            continue
        for q in range(m):
            pick = int(r[j] * size)
            if pick > size - 1:
                pick = size - 1
            out[i, q] = values[lo + pick]
            j += 1
    return j


# -- node2vec rejection sampling (shim-drawn) --------------------------

def node2vec_fill(indptr, indices, weights, is_weighted, degrees,
                  transits, prev, has_prev, row_max, bias_env, p, inv_q,
                  max_rounds, null_v, s, out,
                  pending, proposal, bias, envs, rbuf, counters):
    """The fused rejection loop of the paper's second-order walk.

    Replicates the vectorised numpy draw order exactly: per round, one
    pick draw for every pending pair (ascending pair order), then one
    accept draw for every pending pair.  Membership probes binary-search
    the previous transit's sorted adjacency row — the same answer
    ``CSRGraph.has_edges`` computes from its bitmap / edge-key cache.

    ``counters`` receives ``[eligible, proposals, probes, draws]``.
    """
    n = 0
    for i in range(transits.shape[0]):
        t = transits[i]
        if t != null_v and degrees[t] > 0:
            pending[n] = i
            n += 1
    counters[0] = n
    total_proposals = 0
    total_probes = 0
    draws = 0
    rounds = 0
    while n > 0 and rounds < max_rounds:
        rounds += 1
        # Pass 1: the round's pick draws, one per pending pair.
        for k in range(n):
            rbuf[k] = pcg_double(s)
        draws += n
        # Proposal + unnormalised bias for every pending pair.
        for k in range(n):
            i = pending[k]
            t = transits[i]
            d = degrees[t]
            pick = int(rbuf[k] * d)
            if pick > d - 1:
                pick = d - 1
            pos = indptr[t] + pick
            u = indices[pos]
            proposal[k] = u
            b = 1.0
            pv = prev[i] if has_prev else null_v
            if pv != null_v:
                if u == pv:
                    b = p
                else:
                    total_probes += 1
                    lo = indptr[pv]
                    hi = indptr[pv + 1]
                    while lo < hi:
                        mid = (lo + hi) >> 1
                        if indices[mid] < u:
                            lo = mid + 1
                        else:
                            hi = mid
                    if lo < indptr[pv + 1] and indices[lo] == u:
                        b = inv_q
            if is_weighted:
                b = b * weights[pos]
                envs[k] = bias_env * row_max[t]
            else:
                envs[k] = bias_env
            bias[k] = b
        total_proposals += n
        # Pass 2: the round's accept draws; survivors stay pending in
        # ascending order (numpy's boolean compaction does the same).
        m2 = 0
        for k in range(n):
            i = pending[k]
            rv = pcg_double(s)
            acc = rv * envs[k] <= bias[k]
            if not is_weighted:
                pv = prev[i] if has_prev else null_v
                if pv == null_v:
                    acc = True   # unweighted, no previous: uniform
            if acc:
                out[i] = proposal[k]
            elif rounds == max_rounds:
                out[i] = proposal[k]   # cap: take the last proposal
            else:
                pending[m2] = i
                m2 += 1
        draws += n
        n = m2
    counters[1] = total_proposals
    counters[2] = total_probes
    counters[3] = draws


# -- scheduling index (LSD radix sort) ---------------------------------

def grouping(vals, hist, order, tmp):
    """Stable LSD radix sort of ``vals`` rebased to ``[0, span]`` in
    16-bit digits (``hist`` holds 65536 counters); ``order`` receives
    the grouping permutation, ``tmp`` is the ping-pong buffer.
    Identical to ``np.argsort(vals, kind="stable")`` because the rebase
    is monotone and every pass scatters in first-come order.  Each
    pass counts and scans only the buckets its digit can reach, so the
    work is O(passes * (n + min(span, 65536)))."""
    n = vals.shape[0]
    vmin = vals[0]
    vmax = vals[0]
    for i in range(1, n):
        if vals[i] < vmin:
            vmin = vals[i]
        if vals[i] > vmax:
            vmax = vals[i]
    span = vmax - vmin
    passes = 1
    while passes < 4 and (span >> (16 * passes)) > 0:
        passes += 1
    # The buffers swap roles every pass: start so the last one fills
    # ``order``.
    if passes % 2 == 1:
        src = tmp
        dst = order
    else:
        src = order
        dst = tmp
    for i in range(n):
        src[i] = i
    for p in range(passes):
        shift = 16 * p
        nb = min(span >> shift, 0xFFFF) + 1
        for b in range(nb):
            hist[b] = 0
        for i in range(n):
            hist[((vals[src[i]] - vmin) >> shift) & 0xFFFF] += 1
        acc = 0
        for b in range(nb):
            c = hist[b]
            hist[b] = acc
            acc += c
        for i in range(n):
            k = src[i]
            d = ((vals[k] - vmin) >> shift) & 0xFFFF
            dst[hist[d]] = k
            hist[d] += 1
        src, dst = dst, src


# -- collective gather + dedupe ----------------------------------------

def ragged_gather(values, starts, counts, offsets, out):
    """Concatenate ``values[starts[i]:starts[i]+counts[i]]`` segments."""
    for i in range(starts.shape[0]):
        o = offsets[i]
        s0 = starts[i]
        for k in range(counts[i]):
            out[o + k] = values[s0 + k]


def dedupe_rows(rows, null_v):
    """NULL later duplicates within each row in place, keeping first
    occurrences; returns the duplicate count.  The first occurrence of
    a value is never overwritten, so the scan-back test stays correct
    after earlier positions in the row have been NULLed."""
    dups = 0
    w = rows.shape[1]
    for i in range(rows.shape[0]):
        for j in range(1, w):
            v = rows[i, j]
            if v == null_v:
                continue
            for k in range(j):
                if rows[i, k] == v:
                    rows[i, j] = null_v
                    dups += 1
                    break
    return dups


#: name -> interpreted kernel body; the numba backend compiles each,
#: the parity tests call them as-is.
KERNEL_NAMES = ("pcg_fill", "uniform_count", "uniform_fill",
                "weighted_fill", "segment_count", "segment_fill",
                "node2vec_fill", "grouping", "ragged_gather",
                "dedupe_rows")


def kernel_table():
    """Fresh ``{name: python function}`` mapping of every kernel."""
    return {name: globals()[name] for name in KERNEL_NAMES}
