/* Algorithm 1 with the Theorem 1 fitter, in C: the pairs' fragments are
 * fitted in threads, then one serial sweep finds the shortest path.
 *
 * A port of the Python reference sweep (tests/partition_reference.py)
 * together with the parts of repro.core.models (Table I transforms,
 * FragmentFitter) and repro.core.convex.SegmentStabber that it drives.  Its
 * partitions must be bit-identical to the reference, so:
 *   - every float expression keeps the evaluation order of the Python one,
 *     and the file is built with -ffp-contract=off (no fused multiply-add);
 *   - logarithms and square roots call libm log/sqrt, which is what
 *     CPython's math.log/math.sqrt call;
 *   - y -+ eps and y - y0 -+ eps are exact in __int128 (Python ints do not
 *     overflow) and rounded to double once, as float(int) does;
 *   - relaxations use strict < and visit the pairs in the caller's order,
 *     so ties break the same way.
 * Parameters are returned as the solver's (m, b); the caller maps them
 * through Family.params_from_mb, as the reference does.
 */
#define _GNU_SOURCE /* sched_getaffinity, sched_getcpu, pthread_attr_setaffinity_np */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>

#include "families.h"

typedef __int128 i128;

typedef struct { double t, y; } point;

/* SegmentStabber over buffers of capacity n.  The live hulls are
 * hull_lo[lo_a, lo_b) and hull_hi[hi_a, hi_b): cutting a hull prefix moves
 * its start. */
typedef struct {
    double *ts, *los, *his;
    point *hull_lo, *hull_hi;
    long len, lo_a, lo_b, hi_a, hi_b;
    double slope_min, slope_max;
    point max_line, min_line;
} stabber;

/* One fragment of a pair's tiling of [0, n): it ends at end (its start
 * is the previous tile's end), and its fit (m, b) counts if valid. */
typedef struct { long end; int valid; double m, b; } tile;

/* The best edge (i, j) found so far into node j, with the function fitted
 * at fit_start that it uses. */
typedef struct { long i, fit_start; int pair; double m, b; } edge;

static double cross(point o, point a, point b)
{
    return (a.t - o.t) * (b.y - o.y) - (a.y - o.y) * (b.t - o.t);
}

static void stab_reset(stabber *s)
{
    s->len = s->lo_a = s->lo_b = s->hi_a = s->hi_b = 0;
    s->slope_min = -INFINITY;
    s->slope_max = INFINITY;
}

static void stab_accept(stabber *s, double t, double lo, double hi)
{
    point p = {t, lo}, q = {t, hi};
    s->ts[s->len] = t;
    s->los[s->len] = lo;
    s->his[s->len] = hi;
    s->len++;
    while (s->lo_b - s->lo_a >= 2 && cross(s->hull_lo[s->lo_b - 2], s->hull_lo[s->lo_b - 1], p) >= 0)
        s->lo_b--;
    s->hull_lo[s->lo_b++] = p;
    while (s->hi_b - s->hi_a >= 2 && cross(s->hull_hi[s->hi_b - 2], s->hull_hi[s->hi_b - 1], q) <= 0)
        s->hi_b--;
    s->hull_hi[s->hi_b++] = q;
}

/* SegmentStabber.add; 0 where the reference returns False or raises. */
static int stab_add(stabber *s, double t, double lo, double hi)
{
    long n = s->len;
    if (lo > hi || (n && t <= s->ts[n - 1]))
        return 0;
    if (n == 0) {
        stab_accept(s, t, lo, hi);
        return 1;
    }
    if (n >= 2) { /* the support lines exist from the second point on */
        point l = s->max_line;
        if (lo > l.y + s->slope_max * (t - l.t) + 1e-12 * (fabs(l.y) + 1))
            return 0;
        l = s->min_line;
        if (hi < l.y + s->slope_min * (t - l.t) - 1e-12 * (fabs(l.y) + 1))
            return 0;
    }
    if (n == 1) {
        double t1 = s->ts[0], lo1 = s->los[0], hi1 = s->his[0];
        s->slope_max = (hi - lo1) / (t - t1);
        s->slope_min = (lo - hi1) / (t - t1);
        s->max_line = (point){t1, lo1};
        s->min_line = (point){t1, hi1};
        stab_accept(s, t, lo, hi);
        return 1;
    }

    double new_smax = s->slope_max, new_smin = s->slope_min;
    point new_max_line = s->max_line, new_min_line = s->min_line;
    long cut_lo = s->lo_a, cut_hi = s->hi_a;
    if (hi < s->max_line.y + s->slope_max * (t - s->max_line.t)) {
        const point *h = s->hull_lo;
        long i = s->lo_a;
        while (i + 1 < s->lo_b) {
            double s0 = (hi - h[i].y) / (t - h[i].t);
            double s1 = (hi - h[i + 1].y) / (t - h[i + 1].t);
            if (s1 <= s0)
                i++;
            else
                break;
        }
        new_smax = (hi - h[i].y) / (t - h[i].t);
        new_max_line = h[i];
        cut_lo = i;
    }
    if (lo > s->min_line.y + s->slope_min * (t - s->min_line.t)) {
        const point *h = s->hull_hi;
        long i = s->hi_a;
        while (i + 1 < s->hi_b) {
            double s0 = (lo - h[i].y) / (t - h[i].t);
            double s1 = (lo - h[i + 1].y) / (t - h[i + 1].t);
            if (s1 >= s0)
                i++;
            else
                break;
        }
        new_smin = (lo - h[i].y) / (t - h[i].t);
        new_min_line = h[i];
        cut_hi = i;
    }
    if (new_smin > new_smax)
        return 0;
    s->lo_a = cut_lo;
    s->hi_a = cut_hi;
    s->slope_max = new_smax;
    s->max_line = new_max_line;
    s->slope_min = new_smin;
    s->min_line = new_min_line;
    stab_accept(s, t, lo, hi);
    return 1;
}

/* The intercept range [b_lo, b_hi] at slope m; ties keep the first point,
 * as Python's max/min do. */
static void stab_bounds(const stabber *s, double m, double *b_lo, double *b_hi)
{
    double lo = s->los[0] - m * s->ts[0], hi = s->his[0] - m * s->ts[0];
    for (long k = 1; k < s->len; k++) {
        double v = s->los[k] - m * s->ts[k], w = s->his[k] - m * s->ts[k];
        if (v > lo)
            lo = v;
        if (w < hi)
            hi = w;
    }
    *b_lo = lo;
    *b_hi = hi;
}

/* SegmentStabber.solve, for len >= 1. */
static void stab_solve(const stabber *s, double *m_out, double *b_out)
{
    double b_lo, b_hi;
    if (s->len == 1) {
        *m_out = 0.0;
        *b_out = (s->los[0] + s->his[0]) / 2.0;
        return;
    }
    double lo_m = s->slope_min > -INFINITY ? s->slope_min : 0.0;
    double hi_m = s->slope_max < INFINITY ? s->slope_max : lo_m;
    double cand[3] = {(lo_m + hi_m) / 2.0, lo_m, hi_m};
    for (int c = 0; c < 3; c++) {
        stab_bounds(s, cand[c], &b_lo, &b_hi);
        if (b_lo <= b_hi) {
            *m_out = cand[c];
            *b_out = (b_lo + b_hi) / 2.0;
            return;
        }
    }
    /* numerical corner: the least-infeasible midpoint */
    stab_bounds(s, cand[0], &b_lo, &b_hi);
    *m_out = cand[0];
    *b_out = (b_lo + b_hi) / 2.0;
}

/* (double)v, through int64 where v fits: the same rounding, in one
 * instruction instead of a libgcc call (__floattidf). */
static inline double to_double(i128 v)
{
    return v == (int64_t)v ? (double)(int64_t)v : (double)v;
}

/* Family.constraint for local x (>= 1) of a fragment whose first value is
 * y0.  Returns 1 with (t, lo, hi), 2 for the anchored family's first point
 * (accepted without a segment), 0 where the reference raises ValueError. */
static int constraint(int kind, long x, int64_t y, uint64_t eps, int64_t y0,
                      double *t, double *lo, double *hi)
{
    i128 ylo = (i128)y - eps, yhi = (i128)y + eps;
    double fx = (double)x;
    switch (kind) {
    case LINEAR:
        *t = fx;
        break;
    case RADICAL:
        *t = sqrt(fx);
        break;
    case QUADRATIC2:
        *t = fx * fx;
        break;
    case QUADRATIC3: {
        if (x == 1)
            return 2;
        double dx = (double)(x - 1);
        *t = (double)(x + 1);
        *lo = to_double(ylo - y0) / dx;
        *hi = to_double(yhi - y0) / dx;
        return 1;
    }
    case EXPONENTIAL:
    case POWER:
        if (ylo <= 0)
            return 0;
        *t = kind == EXPONENTIAL ? fx : log(fx);
        *lo = log(to_double(ylo));
        *hi = log(to_double(yhi));
        return 1;
    case LOGARITHMIC:
        *t = log(fx);
        break;
    case CUBIC_ODD:
        *t = fx * fx;
        *lo = to_double(ylo) / fx;
        *hi = to_double(yhi) / fx;
        return 1;
    default:
        return 0;
    }
    *lo = to_double(ylo);
    *hi = to_double(yhi);
    return 1;
}

/* MakeApproximation(T, k, f, eps): the greedy maximal fragment from k,
 * as the tile [k, end). */
static tile refresh(int kind, uint64_t eps, const int64_t *ys, long n, long k, stabber *s)
{
    long j;
    stab_reset(s);
    for (j = k; j < n; j++) {
        double t, lo, hi;
        int c = constraint(kind, j - k + 1, ys[j], eps, ys[k], &t, &lo, &hi);
        if (c == 2)
            continue;
        if (c == 0 || !isfinite(t) || !isfinite(lo) || !isfinite(hi) || !stab_add(s, t, lo, hi))
            break;
    }
    tile r = {.end = j > k ? j : k + 1, .valid = j > k}; /* m = b = 0: anchor-only fragment */
    if (r.valid && s->len)
        stab_solve(s, &r.m, &r.b);
    return r;
}

/* Phase 1's shared state: the pairs, a counter that hands them out, and
 * each pair's tiling, written once by the worker that fitted it. */
typedef struct {
    const int64_t *ys;
    const int32_t *kinds;
    const uint64_t *eps;
    long n, npairs;
    tile **tiles;
    atomic_long next;
    atomic_int failed;
} fit_job;

/* A phase 1 worker: tiles [0, n) for every pair it takes, with its own
 * stabber.  An invalid tile is merged into an invalid predecessor; the
 * sweep skips both alike. */
static void *fit_pairs(void *arg)
{
    fit_job *job = arg;
    long n = job->n;
    double *seg = malloc((3 * n + 1) * sizeof *seg);
    point *hulls = malloc((2 * n + 1) * sizeof *hulls);
    stabber s = {.ts = seg, .los = seg + n, .his = seg + 2 * n, .hull_lo = hulls, .hull_hi = hulls + n};
    if (!seg || !hulls)
        atomic_store(&job->failed, 1);
    for (long q; !atomic_load(&job->failed) && (q = atomic_fetch_add(&job->next, 1)) < job->npairs;) {
        tile *list = NULL;
        long count = 0, cap = 0;
        for (long k = 0; k < n;) {
            tile t = refresh(job->kinds[q], job->eps[q], job->ys, n, k, &s);
            k = t.end;
            if (!t.valid && count && !list[count - 1].valid) {
                list[count - 1].end = t.end;
                continue;
            }
            if (count == cap) {
                tile *grown = realloc(list, (cap = cap ? 2 * cap : 64) * sizeof *list);
                if (!grown) {
                    atomic_store(&job->failed, 1);
                    break;
                }
                list = grown;
            }
            list[count++] = t;
        }
        tile *fitted = count ? realloc(list, count * sizeof *list) : NULL; /* drop the slack */
        job->tiles[q] = fitted ? fitted : list;
    }
    free(seg);
    free(hulls);
    return NULL;
}

/* min(CPUs this thread may run on, npairs), at least 1.  When there are
 * other CPUs, *attr is set to create the workers on those CPUs only: where
 * the scheduler does not balance load (a cpuset with sched_load_balance =
 * 0), a new thread stays on its creator's CPU and the workers would run
 * one after another.  The caller itself stays unpinned. */
static long fit_threads(long npairs, pthread_attr_t *attr)
{
    cpu_set_t set;
    long cpus = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
    long nthreads = npairs < 1 ? 1 : cpus < npairs ? cpus : npairs;
    int self = sched_getcpu();
    if (nthreads > 1 && self >= 0 && CPU_ISSET(self, &set)) {
        CPU_CLR(self, &set);
        pthread_attr_setaffinity_np(attr, sizeof set, &set);
    }
    return nthreads;
}

/* Algorithm 1 over ys[0, n) and the (kind, eps) pairs.  An edge (i, j) of
 * pair p weighs (j - i) * corr_bits[p] + kappa[p] bits (pass corr_bits 0
 * for the lossy weights).  Writes the path's fragments in order as rows
 * (start, end, pair, fit_start, m, b) into arrays of capacity n and returns
 * their count; -1 if out of memory, -2 if some node is unreachable.
 *
 * Phase 1 fits every pair's tiling in threads: a pair refreshes exactly
 * when the sweep reaches the end of its fragment, so the tiling depends on
 * the series alone.  The threads are joined before phase 2, the serial
 * sweep, which replays the refreshes from the tiles. */
long neats_alg1(const int64_t *ys, long n, const int32_t *kinds, const uint64_t *eps,
                const int64_t *corr_bits, const int64_t *kappa, long npairs,
                int64_t *out_start, int64_t *out_end, int32_t *out_pair, int64_t *out_fit,
                double *out_m, double *out_b)
{
    long ret = -1, np = npairs ? npairs : 1;
    fit_job job = {.ys = ys, .kinds = kinds, .eps = eps, .n = n, .npairs = npairs,
                   .tiles = calloc(np, sizeof(tile *))};
    double *dist = malloc((n + 1) * sizeof *dist);
    edge *prev = malloc((n + 1) * sizeof *prev);
    long *next = calloc(np, sizeof *next), *start = calloc(np, sizeof *start);
    tile *cur = calloc(np, sizeof *cur); /* end = 0: every pair refreshes at k = 0 */
    pthread_attr_t attr;
    int have_attr = pthread_attr_init(&attr) == 0;
    long nthreads = have_attr ? fit_threads(npairs, &attr) : 1, started = 0;
    pthread_t *threads = malloc(nthreads * sizeof *threads);
    if (!job.tiles || !dist || !prev || !next || !start || !cur || !threads)
        goto out;

    /* phase 1: the calling thread is worker 0 */
    atomic_init(&job.next, 0);
    atomic_init(&job.failed, 0);
    while (started < nthreads - 1 && pthread_create(&threads[started], &attr, fit_pairs, &job) == 0)
        started++;
    fit_pairs(&job);
    for (long t = 0; t < started; t++)
        pthread_join(threads[t], NULL);
    if (atomic_load(&job.failed))
        goto out;

    /* phase 2: pair q's current tile is cur[q], from start[q]; next[q]
     * indexes its following tile */
    for (long i = 0; i <= n; i++) {
        dist[i] = INFINITY;
        prev[i].pair = -1;
    }
    dist[0] = 0.0;

    ret = -2;
    for (long k = 0; k < n; k++) {
        for (long q = 0; q < npairs; q++) { /* prefix edges (start, k) */
            if (cur[q].end <= k) {
                start[q] = cur[q].end;
                cur[q] = job.tiles[q][next[q]++];
            }
            if (!cur[q].valid)
                continue;
            long i = start[q];
            double w = (double)((k - i) * corr_bits[q] + kappa[q]);
            if (i < k && dist[i] + w < dist[k]) {
                dist[k] = dist[i] + w;
                prev[k] = (edge){i, i, (int)q, cur[q].m, cur[q].b};
            }
        }
        double dk = dist[k];
        if (dk == INFINITY)
            goto out;
        for (long q = 0; q < npairs; q++) { /* suffix edges (k, end) */
            if (!cur[q].valid)
                continue;
            long j = cur[q].end;
            double w = (double)((j - k) * corr_bits[q] + kappa[q]);
            if (dk + w < dist[j]) {
                dist[j] = dk + w;
                prev[j] = (edge){k, start[q], (int)q, cur[q].m, cur[q].b};
            }
        }
    }

    /* read the shortest path backwards: count its edges, then fill */
    long m = 0;
    for (long k = n; k != 0; k = prev[k].i, m++)
        if (prev[k].pair < 0)
            goto out;
    for (long k = n, r = m - 1; k != 0; k = prev[k].i, r--) {
        out_start[r] = prev[k].i;
        out_end[r] = k;
        out_pair[r] = prev[k].pair;
        out_fit[r] = prev[k].fit_start;
        out_m[r] = prev[k].m;
        out_b[r] = prev[k].b;
    }
    ret = m;
out:
    for (long q = 0; job.tiles && q < npairs; q++)
        free(job.tiles[q]);
    free(job.tiles);
    free(dist);
    free(prev);
    free(next);
    free(start);
    free(cur);
    free(threads);
    if (have_attr)
        pthread_attr_destroy(&attr);
    return ret;
}
