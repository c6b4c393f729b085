/* The Table I evaluator and Algorithms 2-3 of NeaTS, over a serialised
 * payload (the byte layout of repro.core.neats.NeaTS.to_bytes).
 *
 * eval_kind is the only copy of the Table I formulas.  The NeaTS encoder
 * computes its corrections from floor(f(x)) through neats_eval and the
 * decoder adds them back through neats_scan/neats_access, so both see the
 * same floor(f(x)) whatever the host's numpy dispatches to; NeaTS-L, PLA and
 * AA rebuild their approximations from the unfloored f(x) of neats_approx.
 * All four run one fragment at a time (run): the switch on the fragment's
 * kind is taken once, and a loop with that kind's formula fixed walks its
 * indexes and, when decoding, its corrections at a running bit position.
 * To keep floor(f(x)) a property of the payload format (NTS2), the file is
 * built with -ffp-contract=off (no fused multiply-add), each expression
 * keeps the left-to-right order of its Python transcription, and
 * exp/log/pow/sqrt are the libm calls that CPython's math module makes;
 * x**3 is pow(x, 3.0).  The floor itself is computed by truncating to
 * int64 and stepping down below a negative non-integer (eval_floor), which
 * is libm's floor at every double in int64's range.
 *
 * Memory: the caller owns every buffer.  neats_view reads the payload with
 * memcpy (its arrays start at unaligned offsets), checks every length field
 * against the buffer before reading, and fills one frag row per fragment
 * plus a sentinel row m with start = n and off = |C|.  neats_encode writes
 * the same layout from those rows, within the capacity it is given.
 * Integers are little-endian, as the payload is written on little-endian
 * hosts.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#include "families.h"

typedef __int128 i128;

/* One fragment, decoded once from S, O, D, B, K and P.  The local x of
 * index k is delta + (k - start) + 1. */
typedef struct {
    int64_t start, off, delta;
    double p[3];
    int64_t kind, width;
} frag;

typedef struct {
    const uint8_t *payload; /* in: the serialised bytes */
    int64_t len;            /* in */
    frag *frags;            /* in: cap rows */
    int64_t cap;            /* in */
    int64_t n, shift, m;    /* out */
    int64_t cwords;         /* out: byte offset of C's first word */
} view;

/* neats_view's and neats_encode's error codes; repro.core.neats maps them
 * to messages. */
enum { OK, BAD_MAGIC = -1, OVERRUN = -2, BAD_COUNT = -3, BAD_KIND = -4, SHORT_PARAMS = -5,
       BAD_EF = -6, INCONSISTENT = -7, WIDE = -8 };

static const int N_PARAMS[N_KINDS] = {2, 2, 2, 3, 2, 2, 2, 2};

#define ALWAYS_INLINE static inline __attribute__((always_inline))

/* f(x) of the fragment's function as a function of the given kind, the
 * Table I formula: a constant kind folds the switch away. */
ALWAYS_INLINE double eval_kind(int64_t kind, const frag *fr, double x)
{
    const double a = fr->p[0], b = fr->p[1];
    double t;
    switch (kind) {
    case LINEAR:
        return a * x + b;
    case RADICAL:
        return a * sqrt(x) + b;
    case QUADRATIC2:
        return a * x * x + b;
    case QUADRATIC3: /* p = (th1, th2, y0), anchored at local x = 1 */
        return a * x * x + b * x + (fr->p[2] - a - b);
    case EXPONENTIAL: /* p = (th1, th2) */
        t = a * x;
        return b * exp(t > 700.0 ? 700.0 : t);
    case POWER:
        return b * pow(x, a);
    case LOGARITHMIC: /* p = (th1, ln th2) */
        return a * log(x) + b;
    default: /* CUBIC_ODD */
        return a * pow(x, 3.0) + b * x;
    }
}

/* floor(v); NaN and values outside int64 give INT64_MIN, on the encoder's
 * side and the decoder's alike.  In range, the truncation t toward zero is
 * an integer no larger in magnitude than v, so (double)t is exact and
 * exceeds v only for a negative non-integer, whose floor is t - 1: this is
 * libm's floor at every double in int64's range, without its call. */
static inline int64_t eval_floor(double v)
{
    if (!(v >= -0x1p63 && v < 0x1p63))
        return INT64_MIN;
    const int64_t t = (int64_t)v;
    return t - ((double)t > v);
}

/* x = k - start + 1 + delta; AA's delta = -1 wraps the unsigned sum to
 * k - start exactly. */
static inline double local_x(const frag *fr, int64_t k)
{
    return (double)((uint64_t)fr->delta + (uint64_t)(k - fr->start) + 1);
}

static inline uint64_t load64(const uint8_t *p)
{
    uint64_t w;
    memcpy(&w, p, 8);
    return w;
}

static inline void store64(uint8_t *p, uint64_t w)
{
    memcpy(p, &w, 8);
}

/* The w-bit field (0 <= w <= 63) at bit pos of the words at base.  A
 * zero-width field reads nothing, so one that sits at the end of the
 * stream does not touch the word after it. */
static inline uint64_t read_bits(const uint8_t *base, int64_t pos, int w)
{
    if (w == 0)
        return 0;
    const uint8_t *at = base + 8 * (pos >> 6);
    int sh = (int)(pos & 63);
    uint64_t v = load64(at) >> sh;
    if (sh + w > 64)
        v |= load64(at + 8) << (64 - sh);
    return v & ((UINT64_C(1) << w) - 1);
}

/* What a run of one fragment writes at each of its indexes: the decoded
 * value (Algorithm 3: prediction plus correction, minus the positivity
 * shift), floor(f(x)) alone (the encoder's predictions), or f(x) (a lossy
 * reconstruction). */
enum { DECODE, FLOOR, APPROX };

/* The values of mode at the indexes [lo, hi) of fragment fr, whose kind is
 * kind, into out[0, hi - lo): int64 cells, or double ones for APPROX.
 * Corrections are read from the C words cw at a running bit position; the
 * decoded sum wraps in 64 bits, as the encoder's subtraction did. */
ALWAYS_INLINE void run_kind(int mode, int64_t kind, const frag *fr, int64_t lo, int64_t hi,
                            const uint8_t *cw, uint64_t shift, void *out)
{
    const frag row = *fr; /* a copy, which no store to out can alias */
    const int w = mode == DECODE ? (int)row.width : 0;
    const uint64_t half = w ? UINT64_C(1) << (w - 1) : 0;
    int64_t pos = row.off + (lo - row.start) * w;
    for (int64_t k = lo; k < hi; k++, pos += w) {
        const double f = eval_kind(kind, &row, local_x(&row, k));
        if (mode == APPROX)
            ((double *)out)[k - lo] = f;
        else if (mode == FLOOR)
            ((int64_t *)out)[k - lo] = eval_floor(f);
        else
            ((int64_t *)out)[k - lo] = (int64_t)((uint64_t)eval_floor(f) + read_bits(cw, pos, w) - half - shift);
    }
}

/* run_kind with the fragment's kind switched on once: each case runs a loop
 * whose formula is fixed. */
ALWAYS_INLINE void run(int mode, const frag *fr, int64_t lo, int64_t hi, const uint8_t *cw, uint64_t shift,
                       void *out)
{
#define KIND(K)                                        \
    case K:                                            \
        run_kind(mode, K, fr, lo, hi, cw, shift, out); \
        return;
    switch (fr->kind) {
        KIND(LINEAR)
        KIND(RADICAL)
        KIND(QUADRATIC2)
        KIND(QUADRATIC3)
        KIND(EXPONENTIAL)
        KIND(POWER)
        KIND(LOGARITHMIC)
    default:
        run_kind(mode, CUBIC_ODD, fr, lo, hi, cw, shift, out);
    }
#undef KIND
}

/* floor(f(x)) at every index of frags[0, m), with frags[m].start = n, into
 * out[0, n): the encoder's half of the shared evaluator. */
void neats_eval(const frag *frags, int64_t m, int64_t *out)
{
    for (const frag *fr = frags; fr < frags + m; fr++)
        run(FLOOR, fr, fr[0].start, fr[1].start, NULL, 0, out + fr[0].start);
}

/* f(x), unfloored, at every index of frags[0, m) into out[0, n): the lossy
 * reconstruction of NeaTS-L, PLA and AA. */
void neats_approx(const frag *frags, int64_t m, double *out)
{
    for (const frag *fr = frags; fr < frags + m; fr++)
        run(APPROX, fr, fr[0].start, fr[1].start, NULL, 0, out + fr[0].start);
}

/* S.rank(k) - 1: the fragment covering 0 <= k < n. */
static inline const frag *locate(const view *v, int64_t k)
{
    int64_t lo = 0, hi = v->m;
    while (hi - lo > 1) {
        int64_t mid = lo + (hi - lo) / 2;
        if (v->frags[mid].start <= k)
            lo = mid;
        else
            hi = mid;
    }
    return &v->frags[lo];
}

/* T[k] for 0 <= k < n (the caller checks the range). */
int64_t neats_access(const view *v, int64_t k)
{
    int64_t y;
    run(DECODE, locate(v, k), k, k + 1, v->payload + v->cwords, (uint64_t)v->shift, &y);
    return y;
}

/* out[j] = T[ks[j]]; -1 (and out undefined) if some key is out of range. */
int neats_access_many(const view *v, const int64_t *ks, int64_t count, int64_t *out)
{
    for (int64_t j = 0; j < count; j++) {
        if (ks[j] < 0 || ks[j] >= v->n)
            return -1;
        out[j] = neats_access(v, ks[j]);
    }
    return 0;
}

/* Algorithm 2 over T[lo, hi), 0 <= lo <= hi <= n: locate the first
 * fragment once, then decode fragment by fragment, each in one loop. */
void neats_scan(const view *v, int64_t lo, int64_t hi, int64_t *out)
{
    if (lo >= hi)
        return;
    for (const frag *fr = locate(v, lo); lo < hi; fr++) {
        const int64_t end = fr[1].start < hi ? fr[1].start : hi;
        run(DECODE, fr, lo, end, v->payload + v->cwords, (uint64_t)v->shift, out);
        out += end - lo;
        lo = end;
    }
}

/* -- parsing -------------------------------------------------------------- */

typedef struct {
    const uint8_t *p;
    int64_t len, off;
} cursor;

/* The next nbytes, or NULL if they overrun the buffer. */
static const uint8_t *take(cursor *c, int64_t nbytes)
{
    if (nbytes < 0 || nbytes > c->len - c->off)
        return NULL;
    const uint8_t *at = c->p + c->off;
    c->off += nbytes;
    return at;
}

static int take_i32(cursor *c, int32_t *x)
{
    const uint8_t *at = take(c, 4);
    if (at)
        memcpy(x, at, 4);
    return at != NULL;
}

static int take_i64(cursor *c, int64_t *x)
{
    const uint8_t *at = take(c, 8);
    if (at)
        memcpy(x, at, 8);
    return at != NULL;
}

/* nwords 64-bit words, at least need of them. */
static int take_words(cursor *c, int64_t nwords, int64_t need, const uint8_t **at)
{
    if (nwords < need || nwords > (c->len - c->off) / 8)
        return OVERRUN;
    *at = take(c, 8 * nwords);
    return OK;
}

/* A PackedArray (count, width, words) of exactly m cells, decoded into
 * out[i * stride] as int64. */
static int packed(cursor *c, int64_t m, int64_t *out, size_t stride)
{
    int32_t count, width;
    int64_t nwords;
    const uint8_t *words;
    if (!take_i32(c, &count) || !take_i32(c, &width) || !take_i64(c, &nwords))
        return OVERRUN;
    if (count != m)
        return BAD_COUNT;
    if (width < 0 || width > 63)
        return INCONSISTENT;
    if (take_words(c, nwords, (count * (int64_t)width + 63) / 64, &words))
        return OVERRUN;
    for (int64_t i = 0; i < m; i++)
        out[i * stride] = (int64_t)read_bits(words, i * width, width);
    return OK;
}

/* An Elias-Fano sequence (n, universe, l, low words, upper words) of
 * exactly m values, decoded into out[i * stride]: value i is
 * ((position of the i-th set upper bit) - i) << l | (i-th low field). */
static int elias_fano(cursor *c, int64_t m, int64_t *out, size_t stride)
{
    int64_t count, universe, nlow, nup;
    int32_t l;
    const uint8_t *low, *up;
    if (!take_i64(c, &count) || !take_i64(c, &universe) || !take_i32(c, &l)
        || !take_i64(c, &nlow) || !take_i64(c, &nup))
        return OVERRUN;
    if (count != m)
        return BAD_COUNT;
    if (l < 0 || l > 63)
        return BAD_EF;
    if (take_words(c, nlow, (count * l + 63) / 64, &low) || take_words(c, nup, 0, &up))
        return OVERRUN;
    int64_t i = 0;
    for (int64_t w = 0; w < nup; w++) {
        uint64_t word = load64(up + 8 * w);
        while (word) {
            if (i == count)
                return BAD_EF; /* more set bits than values */
            int64_t high = 64 * w + __builtin_ctzll(word) - i;
            out[i * stride] = (int64_t)(((uint64_t)high << l) | read_bits(low, i * l, l));
            word &= word - 1;
            i++;
        }
    }
    return i == count ? OK : BAD_EF;
}

#define TRY(call)                 \
    do {                          \
        int err_ = (call);        \
        if (err_)                 \
            return err_;          \
    } while (0)

/* fr[0].f as the first of a column of int64 cells, one per row */
#define COLUMN(f) &fr[0].f, sizeof(frag) / sizeof(int64_t)

/* Parse and validate v->payload; fill v->frags[0, m] and the out fields.
 * Returns OK or a negative error code, never reading outside the buffer. */
int neats_view(view *v)
{
    cursor c = {v->payload, v->len, 0};
    const uint8_t *at = take(&c, 4);
    int32_t m32, kind_id, count[N_KINDS] = {0};
    int64_t cbits, nwords, used[N_KINDS] = {0};
    const uint8_t *params[N_KINDS] = {NULL};
    if (!at)
        return OVERRUN;
    if (memcmp(at, "NTS2", 4) != 0)
        return BAD_MAGIC;
    if (!take_i64(&c, &v->n) || !take_i64(&c, &v->shift) || !take_i32(&c, &m32) || !(at = take(&c, 1)))
        return OVERRUN;
    const int64_t m = v->m = m32, n = v->n;
    if (m <= 0 || m > n || m + 1 > v->cap)
        return BAD_COUNT;
    if (*at != 0) /* reserved: the constant-time S variant is not stored */
        return INCONSISTENT;
    frag *fr = v->frags;

    TRY(packed(&c, m, COLUMN(width)));
    TRY(packed(&c, m, COLUMN(delta)));
    TRY(elias_fano(&c, m, COLUMN(start)));
    TRY(elias_fano(&c, m + 1, COLUMN(off)));
    TRY(packed(&c, m, COLUMN(kind)));
    fr[m].start = n;
    /* S starts at 0 and increases; O[i + 1] - O[i] is fragment i's bits */
    if (fr[0].start != 0 || fr[0].off != 0)
        return INCONSISTENT;
    for (int64_t i = 0; i < m; i++) {
        if (fr[i].kind >= N_KINDS)
            return BAD_KIND;
        if (fr[i].start >= fr[i + 1].start || fr[i].width > 63 || fr[i].delta >= n
            || (i128)fr[i + 1].off - fr[i].off != (i128)fr[i].width * (fr[i + 1].start - fr[i].start))
            return INCONSISTENT;
    }
    if (!take_i64(&c, &cbits))
        return OVERRUN;
    if (cbits != fr[m].off)
        return INCONSISTENT;
    nwords = cbits > 0 ? cbits / 64 + (cbits % 64 != 0) : 1; /* never fewer than one word */
    v->cwords = c.off;
    if (!take(&c, 8 * nwords))
        return OVERRUN;

    /* P: (kind id, count, count * n_params doubles) per kind, in increasing
     * kind order, then -1 */
    for (int32_t last = -1;; last = kind_id) {
        if (!take_i32(&c, &kind_id))
            return OVERRUN;
        if (kind_id == -1)
            break;
        if (kind_id <= last || kind_id >= N_KINDS)
            return BAD_KIND;
        if (!take_i32(&c, &count[kind_id]))
            return OVERRUN;
        if (count[kind_id] < 0)
            return SHORT_PARAMS;
        if (!(params[kind_id] = take(&c, 8 * N_PARAMS[kind_id] * (int64_t)count[kind_id])))
            return OVERRUN;
    }
    if (c.off != c.len)
        return INCONSISTENT;
    for (int64_t i = 0; i < m; i++) {
        int64_t k = fr[i].kind, r = used[k]++;
        if (r >= count[k])
            return SHORT_PARAMS;
        fr[i].p[2] = 0.0;
        memcpy(fr[i].p, params[k] + 8 * N_PARAMS[k] * r, 8 * N_PARAMS[k]);
    }
    for (int k = 0; k < N_KINDS; k++)
        if (used[k] != count[k])
            return INCONSISTENT;
    return OK;
}

/* -- serialising ---------------------------------------------------------- */

typedef struct {
    uint8_t *p;
    int64_t cap, off;
} sink;

/* The next nbytes of the output, zeroed, or NULL if they overrun it. */
static uint8_t *put(sink *s, int64_t nbytes)
{
    if (nbytes > s->cap - s->off)
        return NULL;
    uint8_t *at = s->p + s->off;
    memset(at, 0, nbytes);
    s->off += nbytes;
    return at;
}

static int put_i32(sink *s, int32_t x)
{
    uint8_t *at = put(s, 4);
    if (at)
        memcpy(at, &x, 4);
    return at != NULL;
}

static int put_i64(sink *s, int64_t x)
{
    uint8_t *at = put(s, 8);
    if (at)
        memcpy(at, &x, 8);
    return at != NULL;
}

/* The one bit packer: ORs the field v < 2^w (0 <= w <= 63) into the zeroed
 * words at base, at bit pos; read_bits reads it back. */
static inline void write_bits(uint8_t *base, int64_t pos, uint64_t v, int w)
{
    if (w == 0)
        return;
    uint8_t *at = base + 8 * (pos >> 6);
    int sh = (int)(pos & 63);
    store64(at, load64(at) | v << sh);
    if (sh + w > 64)
        store64(at + 8, load64(at + 8) | v >> (64 - sh));
}

static inline int bit_length(uint64_t x)
{
    return x ? 64 - __builtin_clzll(x) : 0;
}

/* The PackedArray (count, width, words) of the m non-negative cells
 * col[i * stride], in the smallest width >= 1 that holds the largest. */
static int put_packed(sink *s, int64_t m, const int64_t *col, size_t stride)
{
    uint64_t top = 0;
    for (int64_t i = 0; i < m; i++)
        top |= (uint64_t)col[i * stride];
    int width = bit_length(top) ? bit_length(top) : 1;
    int64_t nwords = (m * width + 63) / 64;
    nwords = nwords > 1 ? nwords : 1;
    uint8_t *words;
    if (!put_i32(s, (int32_t)m) || !put_i32(s, width) || !put_i64(s, nwords) || !(words = put(s, 8 * nwords)))
        return OVERRUN;
    for (int64_t i = 0; i < m; i++)
        write_bits(words, i * width, (uint64_t)col[i * stride], width);
    return OK;
}

/* The Elias-Fano sequence (count, universe, l, low words, upper words) of
 * the count >= 1 non-decreasing, non-negative values col[i * stride], with
 * l = floor(log2(universe / count)); the inverse of elias_fano. */
static int put_elias_fano(sink *s, int64_t count, const int64_t *col, size_t stride)
{
    const uint64_t last = (uint64_t)col[(count - 1) * stride], universe = last + 1;
    int l = bit_length(universe / (uint64_t)count);
    l = l > 0 ? l - 1 : 0;
    int64_t nlow = (count * l + 63) / 64, nup = (int64_t)((last >> l) + count + 64) / 64 + 1;
    nlow = nlow > 1 ? nlow : 1;
    uint8_t *low, *up;
    if (!put_i64(s, count) || !put_i64(s, (int64_t)universe) || !put_i32(s, l) || !put_i64(s, nlow)
        || !put_i64(s, nup) || !(low = put(s, 8 * nlow)) || !(up = put(s, 8 * nup)))
        return OVERRUN;
    for (int64_t i = 0; i < count; i++) {
        uint64_t v = (uint64_t)col[i * stride], bit = (v >> l) + (uint64_t)i;
        write_bits(low, i * l, v & ((UINT64_C(1) << l) - 1), l);
        write_bits(up, (int64_t)bit, 1, 1);
    }
    return OK;
}

/* The smallest w such that every correction of fr fits two's-complement in
 * w bits (0 when they are all 0). */
static int correction_width(const frag *fr, const int64_t *cs)
{
    int64_t lo = 0, hi = 0;
    for (int64_t k = fr[0].start; k < fr[1].start; k++) {
        lo = cs[k] < lo ? cs[k] : lo;
        hi = cs[k] > hi ? cs[k] : hi;
    }
    int wl = lo < 0 ? bit_length(~(uint64_t)lo) + 1 : 0, wh = hi > 0 ? bit_length((uint64_t)hi) + 1 : 0;
    return wl > wh ? wl : wh;
}

/* Serialise frags[0, m) (start, delta, kind and p set; frags[m].start = n)
 * and the corrections cs[0, n) into out[0, cap) in the layout neats_view
 * parses, setting each row's width and off on the way.  Returns the
 * payload's length; WIDE if some fragment's corrections need more than 63
 * bits, OVERRUN if cap is too small. */
int64_t neats_encode(frag *frags, int64_t m, const int64_t *cs, int64_t shift, uint8_t *out, int64_t cap)
{
    sink s = {out, cap, 0};
    const int64_t n = frags[m].start;
    frags[0].off = 0;
    for (int64_t i = 0; i < m; i++) {
        frags[i].width = correction_width(&frags[i], cs);
        if (frags[i].width > 63)
            return WIDE;
        frags[i + 1].off = frags[i].off + frags[i].width * (frags[i + 1].start - frags[i].start);
    }
    uint8_t *at = put(&s, 4);
    if (!at || !put_i64(&s, n) || !put_i64(&s, shift) || !put_i32(&s, (int32_t)m) || !put(&s, 1))
        return OVERRUN;
    memcpy(at, "NTS2", 4);
    frag *fr = frags;
    TRY(put_packed(&s, m, COLUMN(width)));
    TRY(put_packed(&s, m, COLUMN(delta)));
    TRY(put_elias_fano(&s, m, COLUMN(start)));
    TRY(put_elias_fano(&s, m + 1, COLUMN(off)));
    TRY(put_packed(&s, m, COLUMN(kind)));
    const int64_t cbits = fr[m].off, nwords = (cbits + 63) / 64;
    uint8_t *words;
    if (!put_i64(&s, cbits) || !(words = put(&s, 8 * (nwords > 1 ? nwords : 1))))
        return OVERRUN;
    for (int64_t i = 0; i < m; i++) {
        const int w = (int)fr[i].width;
        const uint64_t half = w ? UINT64_C(1) << (w - 1) : 0;
        for (int64_t k = fr[i].start; k < fr[i + 1].start; k++)
            write_bits(words, fr[i].off + (k - fr[i].start) * w, (uint64_t)cs[k] + half, w);
    }
    for (int32_t k = 0; k < N_KINDS; k++) {
        int32_t count = 0;
        for (int64_t i = 0; i < m; i++)
            count += fr[i].kind == k;
        if (!count)
            continue;
        if (!put_i32(&s, k) || !put_i32(&s, count))
            return OVERRUN;
        for (int64_t i = 0; i < m; i++) {
            if (fr[i].kind != k)
                continue;
            if (!(at = put(&s, 8 * N_PARAMS[k])))
                return OVERRUN;
            memcpy(at, fr[i].p, 8 * N_PARAMS[k]);
        }
    }
    return put_i32(&s, -1) ? s.off : OVERRUN;
}
