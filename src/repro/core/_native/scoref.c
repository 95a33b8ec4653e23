/* Native kernels: the Section-4.4 F score and the Section-3 ancestral
 * sampler.
 *
 * repro_score_f_batch: exact batched F scores for binary-child
 * candidates.  For each candidate the dynamic program of Section 4.4
 * extends a Pareto frontier of
 * (K0, K1) mass states (Equation 10) over the parent cells, with
 * dominated states pruned per Definition 4.6.  This is the same
 * computation as the NumPy kernel's blocked-bitset path and the
 * per-candidate reference DP (repro.core.score_kernels.score_F_dp) —
 * every coordinate is an exact int64 until the final shortfall floats,
 * which use the identical IEEE-754 double expression
 *
 *     max(0, 0.5 - K0/n) + max(0, 0.5 - K1/n)
 *
 * so the returned score is bit-equal to both Python paths (see
 * README.md in this directory for the full bit-identity argument).
 *
 * The merge is bounded: each candidate's mixed cells run largest first,
 * an achievable incumbent objective U is tracked, and every state whose
 * lower bound is strictly above U is dropped.  The final frontier still
 * holds every Pareto-optimal state of minimum objective, so the minimum
 * is the same double (see BOUND_MAX_N below).
 *
 * repro_sample_block: one ancestral draw of a block of tuples, every
 * attribute in network order — mixed-radix parent rows, generalization
 * maps and CDF inversion — returning the codes sampler.py's NumPy loop
 * returns on the same uniforms (see repro_sample_block below).
 *
 * Deliberately free of Python.h: the ABI is flat int64/double arrays
 * driven through ctypes, so the file compiles with any C99 toolchain
 * ("cc -O2 -fPIC -shared") and the pure-Python install never needs it.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Bumped whenever the exported signatures change; checked at load time
 * so a stale cached artifact can never be driven with the wrong ABI. */
#define REPRO_SCOREF_ABI 2

int64_t repro_scoref_abi_version(void) { return REPRO_SCOREF_ABI; }

/* Largest n at which the merge drops states against the incumbent.
 *
 * Every comparison runs on the integer objective
 *
 *     obj(a, b) = max(0, n - 2a) + max(0, n - 2b),
 *
 * exactly 2n times the real shortfall max(0, 1/2 - a/n) + max(0, 1/2 -
 * b/n) (capping a or b at ceil(n/2) changes neither term).  The bound
 * keeps the returned double bit-identical because:
 *
 * 1. Distinct integer objectives differ by at least 1/(2n) in real
 *    shortfall, and the double expression of the final loop is within
 *    2^-51 of the real value.  For n <= 2^48, 1/(2n) >= 2^-49 exceeds
 *    twice that error, so a larger integer objective always gives a
 *    larger double: the double minimum lies among the states of minimum
 *    integer objective OPT.
 * 2. U is always achieved by some completion, so U >= OPT.  A state is
 *    dropped only when a lower bound on every one of its completions is
 *    strictly above U, so no completion of a dropped state reaches OPT.
 *    The bound is non-increasing in (a, b): a state that Pareto-dominates
 *    the prefix of an optimal state has a bound no larger than that
 *    prefix's, which is at most OPT, so it survives.  By induction every
 *    Pareto-optimal final state of objective OPT is in the final frontier.
 * 3. The final frontier is a subset of the reachable states and holds
 *    every Pareto-optimal one of objective OPT, so its double minimum is
 *    the unbounded frontier's.  Floats appear only in that final loop.
 *
 * Above this n the merge runs unbounded.  The largest-first order applies
 * at every n: capping composes (min(min(a+x, cap)+y, cap) = min(a+x+y,
 * cap)), so the final frontier does not depend on the cell order. */
#define BOUND_MAX_N ((int64_t)1 << 48)

/* One frontier: a[] strictly decreasing, b[] strictly increasing (the
 * canonical form Definition-4.6 pruning leaves), size >= 1. */
typedef struct {
    int64_t *a;
    int64_t *b;
    int64_t capacity;
} buffer_t;

static int ensure_capacity(buffer_t *buf, int64_t need)
{
    int64_t capacity = buf->capacity;
    int64_t *grown;
    if (need <= capacity) {
        return 0;
    }
    while (capacity < need) {
        capacity *= 2;
    }
    grown = realloc(buf->a, (size_t)capacity * sizeof(int64_t));
    if (grown == NULL) {
        return 1;
    }
    buf->a = grown;
    grown = realloc(buf->b, (size_t)capacity * sizeof(int64_t));
    if (grown == NULL) {
        return 1;
    }
    buf->b = grown;
    buf->capacity = capacity;
    return 0;
}

/* One mixed cell in processing order: largest total first, ties broken
 * by cell index so the order is a pure function of the counts. */
typedef struct {
    int64_t total;
    int64_t index;
} cell_t;

static int larger_first(const void *left, const void *right)
{
    const cell_t *x = (const cell_t *)left;
    const cell_t *y = (const cell_t *)right;
    if (x->total != y->total) {
        return x->total > y->total ? -1 : 1;
    }
    return (x->index > y->index) - (x->index < y->index);
}

/* 2n times the shortfall of state (a, b); see BOUND_MAX_N. */
static int64_t objective(int64_t a, int64_t b, int64_t n)
{
    int64_t sa = n - 2 * a;
    int64_t sb = n - 2 * b;
    return (sa > 0 ? sa : 0) + (sb > 0 ? sb : 0);
}

/* Exact F scores for `count` candidates of `m` parent cells each.
 *
 * c0 / c1:  [count * m] int64, candidate-major — cell j of candidate c is
 *           (c0[c*m + j], c1[c*m + j]) = (X=0 count, X=1 count).
 * n:        number of tuples (> 0; every candidate's counts sum to n —
 *           the caller validates, exactly as the NumPy paths do).
 * out:      [count] double, the (non-positive) F scores.
 *
 * Returns 0 on success, 1 on allocation failure, 2 on invalid arguments.
 */
int repro_score_f_batch(const int64_t *c0, const int64_t *c1,
                        int64_t count, int64_t m, int64_t n,
                        double *out)
{
    /* Masses at or above n/2 saturate the shortfall, so coordinates are
     * capped at ceil(n/2): capping only merges states whose shortfall
     * terms are already exactly zero (same argument as score_F_dp). */
    int64_t cap, c, j, i;
    buffer_t bufs[2];
    cell_t *cells;
    int64_t *rest0, *rest1 = NULL, *major0 = NULL, *major1 = NULL;
    int bounded;
    int cur = 0;
    int status = 0;

    if (n <= 0 || count < 0 || m < 0 || c0 == NULL || c1 == NULL ||
        out == NULL) {
        return 2;
    }
    cap = (n + 1) / 2;
    bounded = n <= BOUND_MAX_N;

    for (i = 0; i < 2; i++) {
        bufs[i].capacity = 1024;
        bufs[i].a = malloc((size_t)bufs[i].capacity * sizeof(int64_t));
        bufs[i].b = malloc((size_t)bufs[i].capacity * sizeof(int64_t));
        if (bufs[i].a == NULL || bufs[i].b == NULL) {
            status = 1;
        }
    }
    /* Suffix sums over the mixed cells in processing order: entry t sums
     * cells t.. of the order.  rest0 / rest1 are the X=0 / X=1 counts,
     * major0 / major1 the majority completion (each cell to its larger
     * side, ties to X=0); major0 + major1 is the sum of max(c0, c1). */
    cells = malloc((size_t)(m + 1) * sizeof(cell_t));
    rest0 = malloc((size_t)(4 * (m + 1)) * sizeof(int64_t));
    if (cells == NULL || rest0 == NULL) {
        status = 1;
    } else {
        rest1 = rest0 + (m + 1);
        major0 = rest1 + (m + 1);
        major1 = major0 + (m + 1);
    }

    for (c = 0; c < count && status == 0; c++) {
        const int64_t *r0 = c0 + c * m;
        const int64_t *r1 = c1 + c * m;
        int64_t base_a = 0, base_b = 0, mixed = 0, incumbent, t;
        int64_t *fa, *fb;
        int64_t size;
        double best;

        /* One-sided cells are forced (the other branch is dominated):
         * fold them into the start state, exactly like the NumPy
         * kernel's base_a / base_b.  The rest are mixed. */
        for (j = 0; j < m; j++) {
            if (r1[j] == 0) {
                base_a += r0[j];
            } else if (r0[j] == 0) {
                base_b += r1[j];
            } else {
                cells[mixed].total = r0[j] + r1[j];
                cells[mixed].index = j;
                mixed++;
            }
        }
        if (base_a > cap) {
            base_a = cap;
        }
        if (base_b > cap) {
            base_b = cap;
        }
        qsort(cells, (size_t)mixed, sizeof(cell_t), larger_first);

        rest0[mixed] = rest1[mixed] = major0[mixed] = major1[mixed] = 0;
        for (t = mixed - 1; t >= 0; t--) {
            const int64_t x = r0[cells[t].index];
            const int64_t y = r1[cells[t].index];
            rest0[t] = rest0[t + 1] + x;
            rest1[t] = rest1[t + 1] + y;
            major0[t] = major0[t + 1] + (x >= y ? x : 0);
            major1[t] = major1[t + 1] + (x < y ? y : 0);
        }
        /* The majority assignment is achievable: the first incumbent. */
        incumbent = objective(base_a + major0[0], base_b + major1[0], n);

        bufs[cur].a[0] = base_a;
        bufs[cur].b[0] = base_b;
        size = 1;

        for (t = 0; t < mixed; t++) {
            const int64_t a0 = r0[cells[t].index];
            const int64_t b1 = r1[cells[t].index];
            const int64_t left0 = rest0[t + 1], left1 = rest1[t + 1];
            const int64_t maj0 = major0[t + 1], maj1 = major1[t + 1];
            int64_t s1, e2, i1, i2, outn, bestb;
            int64_t *ta, *tb;

            fa = bufs[cur].a;
            fb = bufs[cur].b;

            /* Branch 1 sends the cell to Z0+ — states (min(a+c0, cap), b),
             * a non-increasing with a capped prefix.  All capped entries
             * share a = cap, and b grows along the frontier, so only the
             * last of them can survive pruning: start the scan there. */
            s1 = 0;
            while (s1 + 1 < size && fa[s1 + 1] + a0 >= cap) {
                s1++;
            }
            /* Branch 2 sends the cell to Z1+ — states (a, min(b+c1, cap)),
             * b non-decreasing with a capped suffix; only the first capped
             * entry (largest a) can survive: end the scan just past it. */
            e2 = size;
            while (e2 - 1 > 0 && fb[e2 - 2] + b1 >= cap) {
                e2--;
            }

            if (ensure_capacity(&bufs[1 - cur],
                                (size - s1) + e2 + 2) != 0) {
                status = 1;
                break;
            }
            ta = bufs[1 - cur].a;
            tb = bufs[1 - cur].b;

            /* Two-pointer merge in (a desc, b desc) order — the order of
             * the NumPy prune's lexsort((-b, -a)) — keeping a state iff
             * its b strictly exceeds every b seen so far (the running-max
             * scan of Definition 4.6). */
            i1 = s1;
            i2 = 0;
            outn = 0;
            bestb = INT64_MIN;
            while (i1 < size || i2 < e2) {
                int64_t aa, bb;
                int use1;
                if (i1 >= size) {
                    use1 = 0;
                } else if (i2 >= e2) {
                    use1 = 1;
                } else {
                    int64_t a1v = fa[i1] + a0;
                    int64_t b2v = fb[i2] + b1;
                    if (a1v > cap) {
                        a1v = cap;
                    }
                    if (b2v > cap) {
                        b2v = cap;
                    }
                    if (a1v != fa[i2]) {
                        use1 = (a1v > fa[i2]);
                    } else {
                        use1 = (fb[i1] >= b2v);
                    }
                }
                if (use1) {
                    aa = fa[i1] + a0;
                    if (aa > cap) {
                        aa = cap;
                    }
                    bb = fb[i1];
                    i1++;
                } else {
                    aa = fa[i2];
                    bb = fb[i2] + b1;
                    if (bb > cap) {
                        bb = cap;
                    }
                    i2++;
                }
                if (bb <= bestb) {
                    continue;
                }
                bestb = bb;
                if (bounded) {
                    /* A completion adds at most left0 to a, at most
                     * left1 to b, and at most maj0 + maj1 (the sum of
                     * the per-cell maxima) to a + b: two lower bounds on
                     * its objective. */
                    int64_t low = objective(aa + left0, bb + left1, n);
                    int64_t mass = 2 * (n - aa - bb - maj0 - maj1);
                    if (mass > low) {
                        low = mass;
                    }
                    if (low > incumbent) {
                        continue;
                    }
                    low = objective(aa + maj0, bb + maj1, n);
                    if (low < incumbent) {
                        incumbent = low;
                    }
                }
                ta[outn] = aa;
                tb[outn] = bb;
                outn++;
            }
            cur = 1 - cur;
            size = outn;
        }
        if (status != 0) {
            break;
        }

        /* Shortfall floats: the one place doubles appear, using the same
         * expression and operand order as both Python paths.  int64 ->
         * double casts round exactly like NumPy's astype(float64). */
        fa = bufs[cur].a;
        fb = bufs[cur].b;
        best = 2.0; /* shortfalls are in [0, 1] */
        for (i = 0; i < size; i++) {
            double sa = 0.5 - (double)fa[i] / (double)n;
            double sb = 0.5 - (double)fb[i] / (double)n;
            double value;
            if (sa < 0.0) {
                sa = 0.0;
            }
            if (sb < 0.0) {
                sb = 0.0;
            }
            value = sa + sb;
            if (value < best) {
                best = value;
            }
        }
        out[c] = -best;
    }

    for (i = 0; i < 2; i++) {
        free(bufs[i].a);
        free(bufs[i].b);
    }
    free(cells);
    free(rest0);
    return status;
}

/* ------------------------------------------------------------------ */
/* Ancestral sampling (Section 3)                                      */

/* Fields of one attribute header (attrs is d x ATTR_FIELDS) and of one
 * parent entry (parents is nparents x PARENT_FIELDS). */
enum { CDF_OFFSET, CDF_ROWS, CDF_WIDTH, FIRST_PARENT, PARENT_COUNT,
       ATTR_FIELDS };
enum { SOURCE, MAP_OFFSET, MAP_LENGTH, RADIX, PARENT_FIELDS };

/* Index of the first CDF column >= x, for a row-CDF row on which
 * `row[j] < x` holds for a prefix of j.  The last column is 1.0 in every
 * row CDF and every uniform is below it, so the answer is at most
 * width - 1 and only the first width - 1 columns are searched: a binary
 * child costs one comparison, and every code returned is below width
 * whatever the inputs.  Each step keeps the half holding the answer
 * without a branch; the answer always lies in [base, base + len] with
 * base + len <= width - 1, so every probe is in range. */
static int64_t lower_bound(const double *row, int64_t width, double x)
{
    int64_t base = 0, len = width - 1;
    if (len == 0) {
        return 0;
    }
    while (len > 1) {
        const int64_t half = len / 2;
        base += (row[base + half - 1] < x) * half;
        len -= half;
    }
    return base + (row[base] < x);
}

/* One ancestral draw of n tuples over d attributes, in place.
 *
 * attrs:    [d * 5] int64, per attribute in network order: CDF offset
 *           into cdfs, CDF rows, CDF width (the child's domain size),
 *           first parent entry, parent count.
 * parents:  [nparents * 4] int64, one entry per parent, in the
 *           conditional's mixed-radix order: source attribute index
 *           (below the child's), map offset into maps or -1 for a raw
 *           parent, map length, radix.
 * maps:     [nmaps] int64 generalization maps, raw code -> level code.
 * cdfs:     [ncdfs] double, row-major row-CDF matrices.
 * block:    [d * n] double.  Row i holds attribute i's uniforms on entry
 *           and its int64 codes on exit, moved with memcpy so the reuse
 *           of the storage is well defined.
 * rows:     [n] int64 scratch.
 *
 * Per attribute, rows[t] accumulates tuple t's CDF row over the parents,
 * rows[t] = rows[t] * radix + code, each code mapped through its
 * parent's generalization map first; then each tuple's code is the first
 * column of its CDF row at or above its uniform: the number of columns
 * on which `cdf < u` holds, exactly what the NumPy inversions return.
 *
 * Every gather is checked before any tuple is touched, which the code
 * range makes possible: every code this call writes for attribute j is
 * below j's CDF width (see lower_bound).  So the checks are that headers
 * and buffers agree; that every source index is below its child's; that
 * a raw parent's width is at most its radix (parent code < radix); that
 * a map is at least as long as its source's width (map index < map
 * length) and holds only values in [0, radix); and that an attribute's
 * radices multiply to its CDF rows (row < rows, and no row overflows).
 *
 * Returns 0 on success, 2 on a violated check (the block is unchanged).
 */
int repro_sample_block(int64_t d, int64_t n, const int64_t *attrs,
                       const int64_t *parents, int64_t nparents,
                       const int64_t *maps, int64_t nmaps,
                       const double *cdfs, int64_t ncdfs, double *block,
                       int64_t *rows)
{
    int64_t i, p, t;

    if (d < 0 || n < 0 || nparents < 0 || nmaps < 0 || ncdfs < 0 ||
        attrs == NULL || parents == NULL || maps == NULL || cdfs == NULL ||
        block == NULL || rows == NULL) {
        return 2;
    }
    for (i = 0; i < d; i++) {
        const int64_t *attr = attrs + i * ATTR_FIELDS;
        const int64_t offset = attr[CDF_OFFSET], height = attr[CDF_ROWS];
        const int64_t width = attr[CDF_WIDTH], first = attr[FIRST_PARENT];
        const int64_t count = attr[PARENT_COUNT];
        int64_t product = 1;
        if (offset < 0 || height < 1 || width < 1 ||
            height > (ncdfs - offset) / width || first < 0 || count < 0 ||
            count > nparents - first) {
            return 2;
        }
        for (p = first; p < first + count; p++) {
            const int64_t *parent = parents + p * PARENT_FIELDS;
            const int64_t source = parent[SOURCE], map = parent[MAP_OFFSET];
            const int64_t length = parent[MAP_LENGTH], radix = parent[RADIX];
            int64_t reach, j;
            if (source < 0 || source >= i || radix < 1 ||
                product > height / radix) {
                return 2;
            }
            product *= radix;
            /* Codes of the source lie in [0, reach). */
            reach = attrs[source * ATTR_FIELDS + CDF_WIDTH];
            if (map >= 0) {
                if (length < reach || length > nmaps - map) {
                    return 2;
                }
                reach = 0;
                for (j = map; j < map + length; j++) {
                    if (maps[j] < 0) {
                        return 2;
                    }
                    reach = maps[j] >= reach ? maps[j] + 1 : reach;
                }
            } else if (map != -1) {
                return 2;
            }
            if (reach > radix) {
                return 2;
            }
        }
        if (product != height) {
            return 2;
        }
    }

    for (i = 0; i < d; i++) {
        const int64_t *attr = attrs + i * ATTR_FIELDS;
        const int64_t *parent = parents + attr[FIRST_PARENT] * PARENT_FIELDS;
        const int64_t count = attr[PARENT_COUNT];
        const double *cdf = cdfs + attr[CDF_OFFSET];
        const int64_t width = attr[CDF_WIDTH];
        double *out = block + i * n;
        for (t = 0; t < n; t++) {
            rows[t] = 0;
        }
        for (p = 0; p < count; p++, parent += PARENT_FIELDS) {
            const int64_t *after = parent + PARENT_FIELDS;
            const double *source = block + parent[SOURCE] * n;
            const int64_t radix = parent[RADIX];
            int64_t code, next;
            if (parent[MAP_OFFSET] >= 0) {
                const int64_t *map = maps + parent[MAP_OFFSET];
                for (t = 0; t < n; t++) {
                    memcpy(&code, source + t, sizeof code);
                    rows[t] = rows[t] * radix + map[code];
                }
            } else if (p + 1 < count && after[MAP_OFFSET] < 0) {
                /* Two raw parents in one pass halve the traffic over rows
                 * (binary tables have nothing but raw parents). */
                const double *second = block + after[SOURCE] * n;
                const int64_t radix2 = after[RADIX];
                for (t = 0; t < n; t++) {
                    memcpy(&code, source + t, sizeof code);
                    memcpy(&next, second + t, sizeof next);
                    rows[t] = (rows[t] * radix + code) * radix2 + next;
                }
                p++;
                parent = after;
            } else {
                for (t = 0; t < n; t++) {
                    memcpy(&code, source + t, sizeof code);
                    rows[t] = rows[t] * radix + code;
                }
            }
        }
        for (t = 0; t < n; t++) {
            const int64_t code = lower_bound(cdf + rows[t] * width, width,
                                             out[t]);
            memcpy(out + t, &code, sizeof code);
        }
    }
    return 0;
}
