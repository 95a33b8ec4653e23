/* Native frontier-merge backend for the Section-4.4 F score.
 *
 * Exact batched F scores for binary-child candidates: for each candidate
 * the dynamic program of Section 4.4 extends a Pareto frontier of
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
 * Deliberately free of Python.h: the ABI is flat int64/double arrays
 * driven through ctypes, so the file compiles with any C99 toolchain
 * ("cc -O2 -fPIC -shared") and the pure-Python install never needs it.
 */

#include <stdint.h>
#include <stdlib.h>

/* Bumped whenever the exported signatures change; checked at load time
 * so a stale cached artifact can never be driven with the wrong ABI. */
#define REPRO_SCOREF_ABI 1

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
