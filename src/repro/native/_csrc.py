"""The compiled kernels: embedded C, the one source of truth.

Compiled once per host by :mod:`repro.native.cnative` (``cc -O1
-fPIC -shared -ffp-contract=off``) and called through ctypes by
:class:`repro.native.backend.CNativeBackend`.  Every kernel is a plain
loop over raw arrays; lengths arrive as explicit arguments.

Contract with the numpy kernels in ``repro/api/apps/_kernels.py``
(see ``docs/PERF.md``) — what keeps samples bitwise-identical:

* no kernel draws: each consumes a block ``r`` of doubles its hook
  drew from the chunk's numpy generator, in exactly the order the
  numpy code draws them.  ``uniform_fill`` and ``weighted_fill`` take
  ``(count, m)`` C-order and ``(m, count)`` blocks, where ``count`` is
  what ``uniform_count`` reports: live transits with at least one edge
  (a collective segment choice is the uniform draw over the segments
  as CSR rows).  ``node2vec_round`` runs one rejection round per call
  on ``2 * n`` doubles for its ``n`` pending pairs: the picks, then the
  accept draws — numpy's two ``rng.random(n)`` calls of that round;
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
  ``uniform_count`` and ``node2vec_round``'s round 0 return -1 at a
  row outside ``[0, nrows)`` before anything is drawn or written.
"""

from __future__ import annotations

__all__ = ["SOURCE"]

SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* One round of node2vec's rejection loop, numpy's vectorised one.
   Round 0 (r NULL) writes NULL to every row of the destination of
   repro_uniform_fill (m = 1) and lists the pairs with an edge in
   pending; it returns their count, or -1 before writing anything when
   a row lies outside [0, nrows).  A later round reads the n pending
   pairs' picks in r[0, n) and their accept draws in r[n, 2n), writes
   the accepted proposals (all of them when last), keeps the rest in
   pending and returns how many; counters gain its proposals and
   membership probes.  prev NULL: no previous transits; weights NULL:
   unweighted.  The pick's edge and the first probe are prefetched
   N2V_AHEAD pairs on. */
#define N2V_AHEAD 16
int64_t repro_node2vec_round(const int64_t *indptr, const int64_t *indices,
                             const int64_t *degrees, const double *weights,
                             const double *row_max, const int64_t *transits,
                             const int64_t *prev, double bias_env, double p,
                             double inv_q, int64_t null_v, int64_t *out,
                             const int64_t *rows, int64_t nrows,
                             int64_t *pending, int64_t *counters,
                             const double *r, int64_t n, int64_t last) {
    if (!r) {
        int64_t count = 0;
        if (rows)
            for (int64_t i = 0; i < n; i++)
                if ((uint64_t)rows[i] >= (uint64_t)nrows)
                    return -1;
        for (int64_t i = 0; i < n; i++) {
            int64_t t = transits[i];
            out[rows ? rows[i] : i] = null_v;
            if (t != null_v && degrees[t] > 0)
                pending[count++] = i;
        }
        return count;
    }
    int64_t left = 0;
    for (int64_t k = 0; k < n; k++) {
        if (k + N2V_AHEAD < n) {
            int64_t j = pending[k + N2V_AHEAD], tj = transits[j];
            int64_t dj = degrees[tj], pv = prev ? prev[j] : null_v;
            int64_t pj = (int64_t)(r[k + N2V_AHEAD] * (double)dj);
            int64_t at = indptr[tj] + (pj < dj ? pj : dj - 1);
            __builtin_prefetch(indices + at);
            if (weights)
                __builtin_prefetch(weights + at);
            if (pv != null_v)
                __builtin_prefetch(indices + ((indptr[pv] + indptr[pv + 1])
                                              >> 1));
        }
        int64_t i = pending[k], t = transits[i], d = degrees[t];
        int64_t pick = (int64_t)(r[k] * (double)d);
        if (pick > d - 1)
            pick = d - 1;
        int64_t pos = indptr[t] + pick, u = indices[pos];
        int64_t pv = prev ? prev[i] : null_v;
        double b = 1.0, env = bias_env;
        if (pv != null_v) {
            if (u == pv) {
                b = p;
            } else {
                counters[1]++;
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
        if (weights) {
            b = b * weights[pos];
            env = bias_env * row_max[t];
        }
        int acc = r[n + k] * env <= b || (!weights && pv == null_v);
        if (acc || last)
            out[rows ? rows[i] : i] = u;
        else
            pending[left++] = i;
    }
    counters[0] += n;
    return left;
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
