"""The compiled kernels: embedded C, the one source of truth.

Compiled once per host by :mod:`repro.native.cnative` (``cc -O1
-fPIC -shared -ffp-contract=off``) and called through ctypes by
:class:`repro.native.backend.CNativeBackend`.  Every kernel is a plain
loop over raw arrays; lengths arrive as explicit arguments.

Contract with the numpy kernels in ``repro/api/apps/_kernels.py``
(see ``docs/PERF.md``) — what keeps samples bitwise-identical:

* fixed-draw-count kernels (``uniform_fill``, ``weighted_fill``)
  consume a pre-drawn block ``r`` of doubles in exactly the order the
  numpy code drew them — ``(count, m)`` C-order for uniform, ``(m,
  count)`` for weighted — where ``count`` is what ``uniform_count``
  reports: live transits with at least one edge (a collective
  segment choice is the uniform draw over the segments as CSR rows);
* ``node2vec_fill`` draws data-dependent randomness through the PCG64
  shim (:mod:`repro.native.rngshim`), replicating numpy's call order:
  per rejection round, first one pick draw for every pending pair,
  then one accept draw for every pending pair; it reports the draws
  it consumed in ``counters[3]`` so the caller can advance the numpy
  generator by the same amount;
* integer truncation of ``r * n`` picks matches numpy's
  ``astype(np.int64)`` (both truncate toward zero, values are
  non-negative), followed by the same clamp to ``n - 1``;
* ``weighted_fill`` reads the ``CSRGraph.weight_records`` numpy's
  ``weighted_picks`` reads as field views: the transit's vertex record,
  the guide entry of its bucket (``r * d`` truncated and clamped like a
  uniform pick), then a forward scan to the first edge whose cumsum
  exceeds the target, clamped to the row — the edge numpy's bisection
  fallback returns too — whose ``int32`` neighbour it writes; its loop
  is staged over blocks of draws (prefetch, then read) but takes the
  draws, and consumes ``r``, in the same (transit, draw) order;
* every floating-point expression keeps numpy's operand order, and
  ``-ffp-contract=off`` forbids FMA contraction;
* ``edge_mask`` + ``edge_emit`` are ``CSRGraph.adjacency_block`` plus
  the probe of ``FastGCN.record_step_edges``: per block of sample rows
  a packed bitmap of distinct transits x distinct new vertices, one
  hit bit per (sample, transit, new vertex), the set bits emitted in
  that C-order — NULL on either side misses, a repeated vertex hits
  once per column; nothing is drawn, all scratch dies with the call;
* ``two_level_pick`` takes LADIES' already-drawn, already-scaled
  ``draws`` through both lower-bound bisections (transit mass prefix,
  then ``ecs[i] - ebase`` against ``rem`` in the chosen CSR row) with
  numpy's comparisons, clamps and operand order;
* the fills write pair ``i``'s picks into row ``rows[i]`` of the
  step's destination (numpy's ``out_rows[rows] = picks``; NULL
  ``rows``: the identity), NULL for a NULL or zero-degree transit;
  ``uniform_count`` and ``node2vec_fill`` return -1 at a row outside
  ``[0, nrows)`` before anything is drawn or written.

The PCG64 step uses ``unsigned __int128``; :mod:`repro.native.rngshim`
holds the pure-Python reference the tests compare it against.
"""

from __future__ import annotations

__all__ = ["SOURCE"]

SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef unsigned __int128 u128;

static const double INV53 = 1.0 / 9007199254740992.0;  /* 2^-53 */

#define PCG_MULT ((((u128)0x2360ed051fc65da4ULL) << 64) | \
                  ((u128)0x4385df649fccf645ULL))

static inline uint64_t pcg_next64(u128 *state, u128 inc) {
    *state = *state * PCG_MULT + inc;
    uint64_t hi = (uint64_t)(*state >> 64);
    uint64_t lo = (uint64_t)(*state);
    uint64_t x = hi ^ lo;
    unsigned rot = (unsigned)(*state >> 122);
    return (x >> rot) | (x << ((64u - rot) & 63u));
}

static inline double pcg_double(u128 *state, u128 inc) {
    return (double)(pcg_next64(state, inc) >> 11) * INV53;
}

static inline u128 pack128(const uint64_t *w) {
    return ((u128)w[0] << 64) | (u128)w[1];
}

void repro_pcg_fill(uint64_t *s, double *out, int64_t n) {
    u128 state = pack128(s), inc = pack128(s + 2);
    for (int64_t i = 0; i < n; i++)
        out[i] = pcg_double(&state, inc);
    s[0] = (uint64_t)(state >> 64);
    s[1] = (uint64_t)state;
}

/* Live transits with an edge; -1 at a row outside [0, nrows). */
int64_t repro_uniform_count(const int64_t *transits, int64_t n,
                            const int64_t *degrees, int64_t null_v,
                            const int64_t *rows, int64_t nrows) {
    int64_t count = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t t = transits[i];
        if (rows && (uint64_t)rows[i] >= (uint64_t)nrows)
            return -1;
        if (t != null_v && degrees[t] > 0)
            count++;
    }
    return count;
}

/* Pair i's m picks land in row rows[i] (i when rows is NULL) of the
   m-wide out, prefetched ROW_AHEAD pairs on; NULL for no edge. */
#define ROW_AHEAD 32
int64_t repro_uniform_fill(const int64_t *indptr, const int64_t *indices,
                           const int64_t *degrees, const int64_t *transits,
                           int64_t n, int64_t m, const double *r,
                           int64_t *out, const int64_t *rows,
                           int64_t null_v) {
    int64_t j = 0;
    for (int64_t i = 0; i < n; i++) {
        if (rows && i + ROW_AHEAD < n) {
            __builtin_prefetch(out + rows[i + ROW_AHEAD] * m, 1);
            __builtin_prefetch(out + rows[i + ROW_AHEAD] * m + m - 1, 1);
        }
        int64_t *o = out + (rows ? rows[i] : i) * m;
        int64_t t = transits[i];
        int64_t d = t == null_v ? 0 : degrees[t];
        if (d <= 0) {
            for (int64_t q = 0; q < m; q++)
                o[q] = null_v;
            continue;
        }
        int64_t base = indptr[t];
        for (int64_t q = 0; q < m; q++) {
            int64_t pick = (int64_t)(r[j] * (double)d);
            if (pick > d - 1)
                pick = d - 1;
            o[q] = indices[base + pick];
            j++;
        }
    }
    return j;
}

/* CSRGraph.weight_records, field for field (VERTEX_RECORD /
   EDGE_RECORD): 32 and 16 bytes, line-aligned arrays. */
typedef struct { int64_t start, deg; double base, total; } wvert_t;
typedef struct { double cum; int32_t guide, idx; } wedge_t;

/* Draws per stage of repro_weighted_fill: enough independent misses in
   flight per pass, small enough that the block's lines stay in L1. */
#define WF_BLOCK 64

/* Draw (transit i, draw q) in (i, q) order, WF_BLOCK draws at a time,
   each block in four passes so that every pass's loads are independent
   of one another: prefetch the transits' vertex records; compute the
   targets and guide slots and prefetch those edge records; read the
   guide entries and prefetch the first edge and the destination row
   (repro_uniform_fill's); scan forward to the edge and write its
   neighbour. */
int64_t repro_weighted_fill(const wvert_t *verts, const wedge_t *edges,
                            const int64_t *transits, int64_t n, int64_t m,
                            int64_t count, const double *r, int64_t *out,
                            const int64_t *rows, int64_t null_v) {
    int64_t at[WF_BLOCK], row[WF_BLOCK], pos[WF_BLOCK], last[WF_BLOCK];
    double target[WF_BLOCK];
    int64_t ahead = WF_BLOCK / (m > 0 ? m : 1) + 1;
    int64_t c = 0, i = 0, q = 0;
    while (i < n) {
        int64_t reach = n - i < ahead ? n : i + ahead;
        for (int64_t k = i; k < reach; k++)
            if (transits[k] != null_v)
                __builtin_prefetch(verts + transits[k]);
        int nb = 0;
        while (nb < WF_BLOCK && i < n) {
            int64_t t = transits[i];
            const wvert_t *v = verts + (t == null_v ? 0 : t);
            int64_t d = t == null_v ? 0 : v->deg;
            int64_t dst = (rows ? rows[i] : i) * m;
            if (d <= 0) {
                for (int64_t k = 0; k < m; k++)
                    out[dst + k] = null_v;
            } else {
                for (; q < m && nb < WF_BLOCK; q++, nb++) {
                    double rq = r[q * count + c];
                    int64_t j = (int64_t)(rq * (double)d);
                    if (j > d - 1)
                        j = d - 1;
                    at[nb] = dst + q;
                    target[nb] = v->base + rq * v->total;
                    row[nb] = v->start;
                    pos[nb] = v->start + j;
                    last[nb] = v->start + d - 1;
                    __builtin_prefetch(edges + v->start + j);
                }
                if (q < m)
                    break;
                c++;
            }
            q = 0;
            i++;
        }
        for (int k = 0; k < nb; k++) {
            pos[k] = row[k] + edges[pos[k]].guide;
            __builtin_prefetch(edges + pos[k]);
            __builtin_prefetch(out + at[k], 1);
        }
        for (int k = 0; k < nb; k++) {
            int64_t p = pos[k];
            while (p < last[k] && edges[p].cum <= target[k])
                p++;
            out[at[k]] = edges[p].idx;
        }
    }
    return c;
}

/* Destination as repro_uniform_fill's (m = 1); -1 before anything is
   drawn or written when a row lies outside [0, nrows), else 0. */
int64_t repro_node2vec_fill(const int64_t *indptr, const int64_t *indices,
                            const double *weights, int64_t is_weighted,
                            const int64_t *degrees, const int64_t *transits,
                            int64_t n_transits, const int64_t *prev,
                            int64_t has_prev, const double *row_max,
                            double bias_env, double p, double inv_q,
                            int64_t max_rounds, int64_t null_v, uint64_t *sw,
                            int64_t *out, const int64_t *rows, int64_t nrows,
                            int64_t *pending, int64_t *proposal,
                            double *bias, double *envs, double *rbuf,
                            int64_t *counters) {
    if (rows)
        for (int64_t i = 0; i < n_transits; i++)
            if ((uint64_t)rows[i] >= (uint64_t)nrows)
                return -1;
    u128 state = pack128(sw), inc = pack128(sw + 2);
    int64_t n = 0;
    for (int64_t i = 0; i < n_transits; i++) {
        int64_t t = transits[i];
        if (t != null_v && degrees[t] > 0)
            pending[n++] = i;
        else
            out[rows ? rows[i] : i] = null_v;
    }
    counters[0] = n;
    int64_t total_proposals = 0, total_probes = 0, draws = 0, rounds = 0;
    while (n > 0 && rounds < max_rounds) {
        rounds++;
        for (int64_t k = 0; k < n; k++)
            rbuf[k] = pcg_double(&state, inc);
        draws += n;
        for (int64_t k = 0; k < n; k++) {
            int64_t i = pending[k];
            int64_t t = transits[i];
            int64_t d = degrees[t];
            int64_t pick = (int64_t)(rbuf[k] * (double)d);
            if (pick > d - 1)
                pick = d - 1;
            int64_t pos = indptr[t] + pick;
            int64_t u = indices[pos];
            proposal[k] = u;
            double b = 1.0;
            int64_t pv = has_prev ? prev[i] : null_v;
            if (pv != null_v) {
                if (u == pv) {
                    b = p;
                } else {
                    total_probes++;
                    int64_t lo = indptr[pv], hi = indptr[pv + 1];
                    while (lo < hi) {
                        int64_t mid = (lo + hi) >> 1;
                        if (indices[mid] < u)
                            lo = mid + 1;
                        else
                            hi = mid;
                    }
                    if (lo < indptr[pv + 1] && indices[lo] == u)
                        b = inv_q;
                }
            }
            if (is_weighted) {
                b = b * weights[pos];
                envs[k] = bias_env * row_max[t];
            } else {
                envs[k] = bias_env;
            }
            bias[k] = b;
        }
        total_proposals += n;
        int64_t m2 = 0;
        for (int64_t k = 0; k < n; k++) {
            int64_t i = pending[k];
            double rv = pcg_double(&state, inc);
            int acc = rv * envs[k] <= bias[k];
            if (!is_weighted) {
                int64_t pv = has_prev ? prev[i] : null_v;
                if (pv == null_v)
                    acc = 1;
            }
            if (acc || rounds == max_rounds) {
                out[rows ? rows[i] : i] = proposal[k];
            } else {
                pending[m2++] = i;
            }
        }
        draws += n;
        n = m2;
    }
    counters[1] = total_proposals;
    counters[2] = total_probes;
    counters[3] = draws;
    sw[0] = (uint64_t)(state >> 64);
    sw[1] = (uint64_t)state;
    return 0;
}

void repro_gather_i64(const int64_t *values, const int64_t *starts,
                      const int64_t *counts, const int64_t *offsets,
                      int64_t nseg, int64_t *out) {
    for (int64_t i = 0; i < nseg; i++) {
        int64_t o = offsets[i], s0 = starts[i], c = counts[i];
        for (int64_t k = 0; k < c; k++)
            out[o + k] = values[s0 + k];
    }
}

void repro_gather_f64(const double *values, const int64_t *starts,
                      const int64_t *counts, const int64_t *offsets,
                      int64_t nseg, double *out) {
    for (int64_t i = 0; i < nseg; i++) {
        int64_t o = offsets[i], s0 = starts[i], c = counts[i];
        for (int64_t k = 0; k < c; k++)
            out[o + k] = values[s0 + k];
    }
}

int64_t repro_dedupe_rows(int64_t *rows, int64_t nrows, int64_t w,
                          int64_t null_v) {
    int64_t dups = 0;
    for (int64_t i = 0; i < nrows; i++) {
        int64_t *row = rows + i * w;
        for (int64_t j = 1; j < w; j++) {
            int64_t v = row[j];
            if (v == null_v)
                continue;
            for (int64_t k = 0; k < j; k++) {
                if (row[k] == v) {
                    row[j] = null_v;
                    dups++;
                    break;
                }
            }
        }
    }
    return dups;
}

/* Collective edge recording (FastGCN / LADIES): adjacency_block +
   probe.  Per block of sample rows: dense slots (first-seen order) for
   the distinct transits and new vertices, a packed bitmap filled from
   those transits' CSR rows, then one bit test per (sample, transit,
   new vertex), kept in masks[(s*T + j)*words + k/64].  Column 0 is
   NULL's: no row sets it.  Returns the hit count, -1 without memory. */
int64_t repro_edge_mask(const int64_t *indptr, const int64_t *indices,
                        const int64_t *degrees, int64_t num_vertices,
                        const int64_t *transits, const int64_t *newv,
                        int64_t num_samples, int64_t t_width,
                        int64_t v_width, int64_t block_rows,
                        uint64_t *masks) {
    int64_t words = (v_width + 63) >> 6, total = 0;
    if (block_rows > num_samples)
        block_rows = num_samples;
    int32_t *tslot = malloc(sizeof(int32_t) * (
        2 * num_vertices + block_rows * (t_width + v_width) + 1));
    if (!tslot)
        return -1;
    int32_t *vslot = tslot + num_vertices, *row = vslot + num_vertices;
    int32_t *col = row + block_rows * t_width;
    for (int64_t lo = 0; lo < num_samples; lo += block_rows) {
        memset(tslot, 0xFF, 2 * num_vertices * sizeof(int32_t));
        const int64_t *t = transits + lo * t_width;
        const int64_t *v = newv + lo * v_width;
        int64_t rows = num_samples - lo < block_rows ? num_samples - lo
                                                     : block_rows;
        int64_t nt = rows * t_width, nv = rows * v_width;
        int32_t nrows = 0, cols = 1;
        for (int64_t i = 0; i < nt; i++) {
            if (t[i] >= 0 && tslot[t[i]] < 0)
                tslot[t[i]] = nrows++;
            row[i] = t[i] >= 0 ? tslot[t[i]] : -1;
        }
        for (int64_t i = 0; i < nv; i++) {
            if (v[i] >= 0 && vslot[v[i]] < 0)
                vslot[v[i]] = cols++;
            col[i] = v[i] >= 0 ? vslot[v[i]] : 0;
        }
        /* One byte in front: a neighbor that is no new vertex (c = -1)
           ORs 0 into line[-1] instead of taking a branch. */
        int64_t stride = (cols + 7) >> 3;
        uint8_t *pad = calloc(nrows * stride + 1, 1);
        if (!pad) {
            free(tslot);
            return -1;
        }
        /* Slot k's first occurrence is met when k rows are filled. */
        int32_t filled = 0;
        for (int64_t i = 0; i < nt; i++) {
            if (row[i] != filled)
                continue;
            uint8_t *line = pad + 1 + stride * filled++;
            int64_t base = indptr[t[i]];
            for (int64_t e = base; e < base + degrees[t[i]]; e++) {
                int32_t c = vslot[indices[e]];
                line[c >> 3] |= (uint8_t)((c >= 0) << (c & 7));
            }
        }
        uint64_t *mask = masks + lo * t_width * words;
        for (int64_t i = 0; i < nt * words; i++) {
            int64_t p = i / words, k0 = i % words * 64;
            int64_t k1 = v_width - k0 < 64 ? v_width - k0 : 64;
            const int32_t *cs = col + p / t_width * v_width + k0;
            uint64_t hit = 0;
            if (row[p] >= 0) {
                const uint8_t *line = pad + 1 + stride * row[p];
                for (int64_t k = 0; k < k1; k++)
                    hit |= (uint64_t)(
                        (line[cs[k] >> 3] >> (cs[k] & 7)) & 1) << k;
            }
            mask[i] = hit;
            total += __builtin_popcountll(hit);
        }
        free(pad);
    }
    free(tslot);
    return total;
}

/* The set bits of repro_edge_mask's masks as (sample, transit, new
   vertex) rows, in (sample, transit-column, new-column) order. */
void repro_edge_emit(const int64_t *transits, const int64_t *newv,
                     int64_t num_samples, int64_t t_width, int64_t v_width,
                     const uint64_t *masks, int64_t *out) {
    int64_t words = (v_width + 63) >> 6;
    for (int64_t i = 0; i < num_samples * t_width * words; i++) {
        int64_t p = i / words, s = p / t_width;
        const int64_t *vs = newv + s * v_width + i % words * 64;
        for (uint64_t hit = masks[i]; hit; hit &= hit - 1) {
            *out++ = s;
            *out++ = transits[p];
            *out++ = vs[__builtin_ctzll(hit)];
        }
    }
}

/* LADIES' two-level inverse transform over pre-drawn, pre-scaled
   draws: per live sample i, m draws into local_mass[lo[i]:hi[i]), then
   into the chosen transit's CSR row. */
void repro_two_level_pick(const double *local_mass, const int64_t *lo,
                          const int64_t *hi, const int64_t *pair_t,
                          const double *draws, int64_t nlive, int64_t m,
                          const int64_t *indptr, const int64_t *indices,
                          const int64_t *degrees, const double *ecs,
                          int64_t *out) {
    for (int64_t q = 0; q < nlive * m; q++) {
        int64_t i = q / m, a = lo[i], b = hi[i];
        double d = draws[q];
        while (a < b) {
            int64_t mid = (a + b) >> 1;
            if (local_mass[mid] < d)
                a = mid + 1;
            else
                b = mid;
        }
        if (a > hi[i] - 1)
            a = hi[i] - 1;
        double rem = d - (a > lo[i] ? local_mass[a - 1] : 0.0);
        int64_t x = indptr[pair_t[a]], last = x + degrees[pair_t[a]] - 1;
        int64_t y = last + 1;
        double ebase = x > 0 ? ecs[x - 1] : 0.0;
        while (x < y) {
            int64_t mid = (x + y) >> 1;
            if (ecs[mid] - ebase < rem)
                x = mid + 1;
            else
                y = mid;
        }
        out[q] = indices[x > last ? last : x];
    }
}
"""
