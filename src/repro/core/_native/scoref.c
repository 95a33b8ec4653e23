/* Native kernels: the Section-4.4 F score, the Section-3 ancestral
 * sampler, and the CSV codec of the release path.
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
 * The merge is bounded: each candidate's mixed cells run by x/y
 * descending, an achievable incumbent objective U is tracked, and every
 * state whose fractional relaxation (Equation 10 with each remaining cell
 * split between Z0 and Z1) is strictly above U is dropped.  A candidate
 * whose majority assignment is the unique optimum is scored without a
 * merge.  Either way the minimum is the same double (see BOUND_MAX_N).
 *
 * repro_sample_block: one ancestral draw of a block of tuples, every
 * attribute in network order — mixed-radix parent rows, generalization
 * maps and CDF inversion — returning the codes sampler.py's NumPy loop
 * returns on the same uniforms (see repro_sample_block below).
 *
 * repro_csv_tokenize / repro_csv_assemble: the CSV reader and writer of
 * repro.data.io — UTF-8 bytes parsed exactly as csv.reader parses them,
 * each field numbered by first appearance in its column, and rows joined
 * from csv.writer-quoted label bytes (see the CSV section below).
 *
 * Deliberately free of Python.h: the ABI is flat int64/double/byte
 * arrays driven through ctypes, so the file compiles with any C99
 * toolchain ("cc -O2 -fPIC -shared") and the pure-Python install never
 * needs it.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Bumped whenever the exported signatures change; checked at load time
 * so a stale cached artifact can never be driven with the wrong ABI. */
#define REPRO_SCOREF_ABI 3

int64_t repro_scoref_abi_version(void) { return REPRO_SCOREF_ABI; }

/* Largest n at which the merge drops states and scores a candidate in
 * closed form.
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
 *    strictly above U.  A state that Pareto-dominates the prefix of an
 *    optimal state inherits that state's completion, so its bound is at
 *    most OPT <= U and it survives.  By induction every Pareto-optimal
 *    final state of objective OPT is in the final frontier.
 * 3. The final frontier is a subset of the reachable states and holds
 *    every Pareto-optimal one of objective OPT, so its double minimum is
 *    the unbounded frontier's.  Floats appear only in that final loop.
 *
 * Every ratio and bound comparison is exact: operands stay below 2^50
 * here, and products past int64 are formed in 128 bits (see exceeds).
 *
 * Above this n the merge runs unbounded.  The ratio order applies at
 * every n: capping composes (min(min(a+x, cap)+y, cap) = min(a+x+y,
 * cap)), so the final frontier does not depend on the cell order. */
#define BOUND_MAX_N ((int64_t)1 << 48)

/* Mixed cells up to which the ratio order is an insertion sort, and above
 * which qsort with the same comparator.  Timed alone on uniform counts
 * (gcc 12 -O2, 2-vCPU Xeon VM), insertion is 4-6x faster at 32 cells,
 * even with qsort at 450-500 and 1.6x slower at 1,024. */
#define INSERTION_MAX_CELLS 512

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

/* An unsigned 128-bit value in two halves: C99 has no wider integer. */
typedef struct {
    uint64_t hi;
    uint64_t lo;
} wide_t;

/* p * q for p, q in [0, 2^63), from 32-bit limbs. */
static wide_t wide_product(int64_t p, int64_t q)
{
    const uint64_t mask = 0xFFFFFFFFu;
    const uint64_t p0 = (uint64_t)p & mask, p1 = (uint64_t)p >> 32;
    const uint64_t q0 = (uint64_t)q & mask, q1 = (uint64_t)q >> 32;
    const uint64_t low = p0 * q0, cross0 = p1 * q0, cross1 = p0 * q1;
    const uint64_t middle = (low >> 32) + (cross0 & mask) + (cross1 & mask);
    wide_t out;
    out.lo = (middle << 32) | (low & mask);
    out.hi = p1 * q1 + (cross0 >> 32) + (cross1 >> 32) + (middle >> 32);
    return out;
}

/* Whether p * q + r * s > u * v, exactly, for operands in [0, 2^63). */
static int wide_exceeds(int64_t p, int64_t q, int64_t r, int64_t s,
                        int64_t u, int64_t v)
{
    wide_t left = wide_product(p, q), term = wide_product(r, s), right;
    left.lo += term.lo;
    left.hi += term.hi + (left.lo < term.lo);
    right = wide_product(u, v);
    return left.hi > right.hi || (left.hi == right.hi && left.lo > right.lo);
}

/* The same, as a plain int64 sum when every operand is below 2^31. */
static inline int exceeds(int64_t p, int64_t q, int64_t r, int64_t s,
                          int64_t u, int64_t v)
{
    if ((p | q | r | s | u | v) < ((int64_t)1 << 31)) {
        return p * q + r * s > u * v;
    }
    return wide_exceeds(p, q, r, s, u, v);
}

/* One mixed cell: its X=0 and X=1 counts and its index. */
typedef struct {
    int64_t x;
    int64_t y;
    int64_t index;
} cell_t;

/* Whether cell p has the larger x/y, exactly. */
static int ratio_above(const cell_t *p, const cell_t *q)
{
    return exceeds(p->x, q->y, 0, 0, q->x, p->y);
}

/* The path order: x/y descending, ties by cell index, so the order is a
 * pure function of the counts. */
static int ratio_order(const void *left, const void *right)
{
    const cell_t *p = (const cell_t *)left;
    const cell_t *q = (const cell_t *)right;
    if (ratio_above(p, q)) {
        return -1;
    }
    if (ratio_above(q, p)) {
        return 1;
    }
    return (p->index > q->index) - (p->index < q->index);
}

/* Cells arrive by index, so an insertion sort that moves a cell only past
 * a smaller ratio keeps ties by index. */
static void sort_cells(cell_t *cells, int64_t count)
{
    int64_t i, j;
    if (count > INSERTION_MAX_CELLS) {
        qsort(cells, (size_t)count, sizeof(cell_t), ratio_order);
        return;
    }
    for (i = 1; i < count; i++) {
        const cell_t cell = cells[i];
        for (j = i; j > 0 && ratio_above(&cell, &cells[j - 1]); j--) {
            cells[j] = cells[j - 1];
        }
        cells[j] = cell;
    }
}

/* 2n times the shortfall of state (a, b); see BOUND_MAX_N. */
static int64_t objective(int64_t a, int64_t b, int64_t n)
{
    int64_t sa = n - 2 * a;
    int64_t sb = n - 2 * b;
    return (sa > 0 ? sa : 0) + (sb > 0 ? sb : 0);
}

/* The fractional completions of a state at step t, over the mixed cells
 * t.. in ratio order.  The Pareto frontier of the relaxation is a path:
 * from every remaining cell in Z1, the cells move to Z0 one at a time in
 * that order.  Vertex u sends cells t..u-1 to Z0,
 *
 *     A(u) = a + px[u] - px[t],   B(u) = b + py[m] - py[u],
 *
 * and segment u moves cell u.  Along the path B is a concave function of
 * A, and h(z) = max(0, n - 2z) is convex and non-increasing, so the
 * objective h(A) + h(B(A)) is convex: it falls while the path crosses a
 * segment in full with 2A(u+1) <= n and (x_u > y_u, or 2B(u+1) >= n),
 * and its minimum lies on the first segment it does not cross, the stop.
 * A state is written (alpha, beta) = (a - px[t], b + py[m]), so vertex u
 * is (alpha + px[u], beta - py[u]). */
typedef struct {
    int64_t n;
    int64_t m;     /* mixed cells */
    int64_t above; /* cells with x > y, a prefix of the order */
    const cell_t *cells;    /* in ratio order */
    const int64_t *px, *py; /* prefix sums: px[u] = x[0] + ... + x[u-1] */
} path_t;

static int crosses(const path_t *p, int64_t alpha, int64_t beta, int64_t u)
{
    return 2 * (alpha + p->px[u + 1]) <= p->n &&
           (u < p->above || 2 * (beta - p->py[u + 1]) >= p->n);
}

/* The stop of a state, at or after segment u: the segments it crosses
 * form a prefix (every condition above holds on a prefix of u). */
static int64_t find_stop(const path_t *p, int64_t alpha, int64_t beta,
                         int64_t u)
{
    int64_t hi = p->m;
    while (u < hi) {
        const int64_t mid = u + (hi - u) / 2;
        if (crosses(p, alpha, beta, mid)) {
            u = mid + 1;
        } else {
            hi = mid;
        }
    }
    return u;
}

/* Whether the least objective over the path is strictly above U, for a
 * state whose stop s is at vertex (A, B).  A vertex and the cell after it
 * never hold more than the n tuples, A + x_s + B <= n, so the least
 * objective is one of:
 *
 * - obj(A, B), when s is the last vertex or the objective rises from it
 *   (2A >= n, or x_s <= y_s and 2B <= n);
 * - n - 2B + y_s (n - 2A) / x_s, when x_s > y_s: A would pass n/2 on the
 *   segment, with B at most n/2, and the least value is where A reaches
 *   n/2;
 * - n - 2A - x_s (2B - n) / y_s, when x_s <= y_s and 2B > n: the
 *   objective falls until B reaches n/2.
 *
 * Each is compared with U by cross-multiplying. */
static int bound_exceeds(const path_t *p, int64_t A, int64_t B, int64_t s,
                         int64_t U)
{
    const int64_t n = p->n;
    int64_t x, y;
    if (s == p->m || 2 * A >= n) {
        return objective(A, B, n) > U;
    }
    x = p->cells[s].x;
    y = p->cells[s].y;
    if (x > y) {
        return exceeds(x, n - 2 * B, y, n - 2 * A, x, U);
    }
    if (2 * B <= n) {
        return objective(A, B, n) > U;
    }
    return n - 2 * A > U && exceeds(y, n - 2 * A - U, 0, 0, x, 2 * B - n);
}

/* An incumbent for the start state (a, b) with stop s: vertices s and
 * s + 1, each improved by giving the side above n/2 away, cell by cell,
 * while that side stays at n/2 or more. */
static int64_t start_incumbent(const path_t *p, int64_t a, int64_t b,
                               int64_t s)
{
    const int64_t n = p->n;
    int64_t best = 2 * n, v, u;
    for (v = s; v <= s + 1 && v <= p->m; v++) {
        int64_t A = a + p->px[v], B = b + p->py[p->m] - p->py[v], value;
        if (2 * B > n) {
            for (u = v; u < p->m; u++) {
                if (2 * (B - p->cells[u].y) >= n) {
                    A += p->cells[u].x;
                    B -= p->cells[u].y;
                }
            }
        } else if (2 * A > n) {
            for (u = v - 1; u >= 0; u--) {
                if (2 * (A - p->cells[u].x) >= n) {
                    A -= p->cells[u].x;
                    B += p->cells[u].y;
                }
            }
        }
        value = objective(A, B, n);
        if (value < best) {
            best = value;
        }
    }
    return best;
}

/* The F score of state (a, b): the one expression, and operand order, of
 * both Python paths.  int64 -> double casts round exactly like NumPy's
 * astype(float64). */
static double shortfall(int64_t a, int64_t b, int64_t n)
{
    double sa = 0.5 - (double)a / (double)n;
    double sb = 0.5 - (double)b / (double)n;
    if (sa < 0.0) {
        sa = 0.0;
    }
    if (sb < 0.0) {
        sb = 0.0;
    }
    return sa + sb;
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
    int64_t *px, *py = NULL;
    path_t path;
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
    cells = malloc((size_t)(m + 1) * sizeof(cell_t));
    px = malloc((size_t)(2 * (m + 1)) * sizeof(int64_t));
    if (cells == NULL || px == NULL) {
        status = 1;
    } else {
        py = px + (m + 1);
    }
    path.n = n;
    path.cells = cells;
    path.px = px;
    path.py = py;

    for (c = 0; c < count && status == 0; c++) {
        const int64_t *r0 = c0 + c * m;
        const int64_t *r1 = c1 + c * m;
        int64_t base_a = 0, base_b = 0, major_a, major_b, mixed = 0;
        int64_t incumbent, t, size;
        int64_t *fa, *fb;
        int tie = 0;
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
                cells[mixed].x = r0[j];
                cells[mixed].y = r1[j];
                cells[mixed].index = j;
                mixed++;
            }
        }

        /* The majority assignment sends each mixed cell to its larger
         * side.  Every assignment has objective at least 2n - 2(a + b),
         * and the majority one has the largest a + b; with no equal-sided
         * cell every other assignment has a smaller one.  So when both
         * majority masses are at most n/2, its objective 2n - 2(a + b) is
         * OPT and no other state reaches it, and at n <= BOUND_MAX_N the
         * double minimum is its score.  An equal-sided cell would give two
         * such states, whose doubles can differ by an ulp. */
        major_a = base_a;
        major_b = base_b;
        for (j = 0; j < mixed; j++) {
            if (cells[j].x > cells[j].y) {
                major_a += cells[j].x;
            } else {
                major_b += cells[j].y;
                tie |= cells[j].x == cells[j].y;
            }
        }
        if (bounded && !tie && 2 * major_a <= n && 2 * major_b <= n) {
            out[c] = -shortfall(major_a, major_b, n);
            continue;
        }

        if (base_a > cap) {
            base_a = cap;
        }
        if (base_b > cap) {
            base_b = cap;
        }
        sort_cells(cells, mixed);
        path.m = mixed;
        path.above = 0;
        px[0] = py[0] = 0;
        for (t = 0; t < mixed; t++) {
            px[t + 1] = px[t] + cells[t].x;
            py[t + 1] = py[t] + cells[t].y;
            path.above += cells[t].x > cells[t].y;
        }
        incumbent = 0;
        if (bounded) {
            incumbent = start_incumbent(
                &path, base_a, base_b,
                find_stop(&path, base_a, base_b + py[mixed], 0));
        }

        bufs[cur].a[0] = base_a;
        bufs[cur].b[0] = base_b;
        size = 1;

        for (t = 0; t < mixed; t++) {
            const int64_t a0 = cells[t].x;
            const int64_t b1 = cells[t].y;
            const int64_t shift = px[t + 1], total = py[mixed];
            int64_t s1, e2, i1, i2, outn, bestb, stop = -1;
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
                    /* States arrive with a falling and b rising, which
                     * only lets the path cross more segments: the stop
                     * never moves back. */
                    const int64_t alpha = aa - shift, beta = bb + total;
                    int64_t A, B;
                    if (stop < 0) {
                        stop = find_stop(&path, alpha, beta, t + 1);
                    }
                    while (stop < mixed && crosses(&path, alpha, beta, stop)) {
                        stop++;
                    }
                    A = alpha + px[stop];
                    B = beta - py[stop];
                    if (bound_exceeds(&path, A, B, stop, incumbent)) {
                        continue;
                    }
                    /* The stop's two vertices are completions of this
                     * state.  Those of a dropped state cannot lower U:
                     * both lie on the path, at or above its minimum. */
                    if (objective(A, B, n) < incumbent) {
                        incumbent = objective(A, B, n);
                    }
                    if (stop < mixed) {
                        A += cells[stop].x;
                        B -= cells[stop].y;
                        if (objective(A, B, n) < incumbent) {
                            incumbent = objective(A, B, n);
                        }
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

        /* Shortfall floats: the one place doubles appear. */
        fa = bufs[cur].a;
        fb = bufs[cur].b;
        best = 2.0; /* shortfalls are in [0, 1] */
        for (i = 0; i < size; i++) {
            const double value = shortfall(fa[i], fb[i], n);
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
    free(px);
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

/* ------------------------------------------------------------------ */
/* CSV tokenizer and row assembler                                     */

/* Statuses of repro_csv_tokenize.  CSV_CUT never leaves this file: a
 * record that runs past the end of a non-final block is undone and left
 * for the next call. */
enum { CSV_OK, CSV_FULL, CSV_BAD_ARGS, CSV_RAGGED, CSV_FIELD_LIMIT,
       CSV_NOT_UTF8, CSV_CUT = -1 };

/* The tokenizer's state vector: in/out byte position (always a record
 * start), rows in the id block, entries used, entries indexed in the
 * hash slots, arena bytes used; out: the buffer a CSV_FULL names, the
 * offset of the sequence a CSV_NOT_UTF8 rejects. */
enum { TK_POS, TK_ROWS, TK_USED, TK_INDEXED, TK_ARENA, TK_FULL, TK_AT,
       TK_FIELDS };

/* Buffers a CSV_FULL status names. */
enum { FULL_IDS, FULL_SLOTS, FULL_ENTRIES, FULL_ARENA };

/* Fields of one distinct-field entry: hash, arena offset, byte length,
 * column, first-appearance id within the column. */
enum { EN_HASH, EN_OFFSET, EN_LENGTH, EN_COLUMN, EN_ID, EN_FIELDS };

/* Byte classes: ordinary, the quote, a UTF-8 lead or continuation byte,
 * the delimiter, CR or LF.  Everything at or above BYTE_DELIMITER ends an
 * unquoted field. */
enum { BYTE_PLAIN, BYTE_QUOTE, BYTE_HIGH, BYTE_DELIMITER, BYTE_EOL };

/* How a field ended: at a delimiter, at CR or LF, or at the end of the
 * final block. */
enum { ENDS_FIELD, ENDS_RECORD, ENDS_DATA };

typedef struct {
    const uint8_t *data;
    int64_t end;
    int final;
    uint8_t delimiter;
    int64_t width; /* fields per record; -1 reads the header record */
    int64_t limit; /* csv.field_size_limit(), in code points */
    int64_t *slots;
    int64_t mask;
    int64_t *entries;
    int64_t capacity;
    uint8_t *arena;
    int64_t arena_size;
    int64_t *counts;
    int32_t *ids;
    int64_t stride;
    int64_t rows;
    int64_t used;
    int64_t arena_used;
    int64_t full;
    int64_t at;
    uint8_t kind[256];
} csv_t;

typedef struct {
    const uint8_t *bytes;
    int64_t length;
    int in_arena; /* built at arena + arena_used by the slow path */
    int64_t next; /* first byte after the field's terminator */
    int ends;
} field_t;

/* Length of the UTF-8 sequence whose lead byte (>= 0x80) is data[p], as
 * CPython's strict decoder accepts it: 2 to 4; 0 when it is invalid; -1
 * when a non-final block ends inside it. */
static int64_t utf8_length(const csv_t *t, int64_t p)
{
    const uint8_t *s = t->data + p;
    const uint8_t lead = s[0];
    uint8_t low = 0x80, high = 0xBF;
    int64_t need, k;
    if (lead >= 0xC2 && lead <= 0xDF) {
        need = 2;
    } else if (lead >= 0xE0 && lead <= 0xEF) {
        need = 3;
        if (lead == 0xE0) {
            low = 0xA0; /* no overlong forms */
        } else if (lead == 0xED) {
            high = 0x9F; /* no surrogates */
        }
    } else if (lead >= 0xF0 && lead <= 0xF4) {
        need = 4;
        if (lead == 0xF0) {
            low = 0x90;
        } else if (lead == 0xF4) {
            high = 0x8F; /* nothing above U+10FFFF */
        }
    } else {
        return 0;
    }
    for (k = 1; k < need; k++) {
        if (p + k >= t->end) {
            return t->final ? 0 : -1;
        }
        if (s[k] < low || s[k] > high) {
            return 0;
        }
        low = 0x80;
        high = 0xBF;
    }
    return need;
}

/* The status for a UTF-8 sequence at p that utf8_length did not accept. */
static int utf8_status(csv_t *t, int64_t p, int64_t length)
{
    if (length < 0) {
        return CSV_CUT;
    }
    t->at = p;
    return CSV_NOT_UTF8;
}

#define BYTES_ONE ((uint64_t)0x0101010101010101u)
#define BYTES_HIGH ((uint64_t)0x8080808080808080u)

/* The high bit of each byte of w equal to b; exact up to the first such
 * byte, which is all skip_words needs. */
static uint64_t has_byte(uint64_t w, uint8_t b)
{
    const uint64_t x = w ^ (BYTES_ONE * b);
    return (x - BYTES_ONE) & ~x & BYTES_HIGH;
}

/* The first q' >= q such that the eight bytes at q' (or the fewer before
 * end) may hold a, b, c or a byte >= 0x80: whole words without any are
 * skipped a load at a time. */
static int64_t skip_words(const uint8_t *data, int64_t q, int64_t end,
                          uint8_t a, uint8_t b, uint8_t c)
{
    uint64_t w;
    while (end - q >= 8) {
        memcpy(&w, data + q, 8);
        if ((has_byte(w, a) | has_byte(w, b) | has_byte(w, c) |
             (w & BYTES_HIGH)) != 0) {
            break;
        }
        q += 8;
    }
    return q;
}

/* Code points in n valid UTF-8 bytes: the bytes that do not continue a
 * sequence. */
static int64_t code_points(const uint8_t *s, int64_t n)
{
    int64_t i, points = 0;
    for (i = 0; i < n; i++) {
        points += (s[i] & 0xC0) != 0x80;
    }
    return points;
}

/* A field the fast path found in the block: bytes [start, stop), ended
 * by the delimiter, CR or LF at `term`, or by the end of the final block
 * when term == end. */
static int fast_field(csv_t *t, int64_t start, int64_t stop, int64_t term,
                      field_t *f)
{
    f->bytes = t->data + start;
    f->length = stop - start;
    f->in_arena = 0;
    if (term == t->end) {
        f->ends = ENDS_DATA;
        f->next = term;
    } else {
        f->ends = t->kind[t->data[term]] == BYTE_DELIMITER ? ENDS_FIELD
                                                           : ENDS_RECORD;
        f->next = term + 1;
    }
    if (f->length > t->limit && code_points(f->bytes, f->length) > t->limit) {
        return CSV_FIELD_LIMIT;
    }
    return CSV_OK;
}

/* A block that ends inside the field [start, end): the record is cut,
 * unless the field already holds more code points than the limit. */
static int cut_field(const csv_t *t, int64_t start)
{
    if (t->end - start > t->limit &&
        code_points(t->data + start, t->end - start) > t->limit) {
        return CSV_FIELD_LIMIT;
    }
    return CSV_CUT;
}

/* A field that opens with a quote and whose first quote after that does
 * not end it: the IN_QUOTED_FIELD, QUOTE_IN_QUOTED_FIELD and IN_FIELD
 * states of CPython 3.11's Modules/_csv.c, non-strict.  The field is built
 * at arena + arena_used, counting code points as parse_add_char does. */
static int slow_field(csv_t *t, int64_t p, field_t *f)
{
    enum { IN_QUOTED, QUOTE_IN_QUOTED, IN_FIELD } state = IN_QUOTED;
    uint8_t *out = t->arena + t->arena_used;
    const int64_t room = t->arena_size - t->arena_used;
    int64_t q, n, length = 0, points = 0;
    int kind = BYTE_PLAIN;
    for (q = p + 1; q < t->end; q += n) {
        kind = t->kind[t->data[q]];
        n = 1;
        if (state == IN_QUOTED) {
            if (kind == BYTE_QUOTE) {
                state = QUOTE_IN_QUOTED;
                continue;
            }
        } else if (state == QUOTE_IN_QUOTED) {
            if (kind >= BYTE_DELIMITER) {
                break;
            }
            /* "" adds one quote; anything else is kept, unquoted. */
            state = kind == BYTE_QUOTE ? IN_QUOTED : IN_FIELD;
        } else if (kind >= BYTE_DELIMITER) {
            break;
        }
        if (kind == BYTE_HIGH) {
            n = utf8_length(t, q);
            if (n <= 0) {
                return utf8_status(t, q, n);
            }
        }
        if (++points > t->limit) {
            return CSV_FIELD_LIMIT;
        }
        if (n > room - length) {
            t->full = FULL_ARENA;
            return CSV_FULL;
        }
        memcpy(out + length, t->data + q, (size_t)n);
        length += n;
    }
    if (q == t->end && !t->final) {
        return CSV_CUT;
    }
    f->bytes = out;
    f->length = length;
    f->in_arena = 1;
    if (q == t->end) {
        f->ends = ENDS_DATA; /* an open quote ends the last record */
        f->next = q;
    } else {
        f->ends = kind == BYTE_DELIMITER ? ENDS_FIELD : ENDS_RECORD;
        f->next = q + 1;
    }
    return CSV_OK;
}

/* One field from START_FIELD at p. */
static int parse_field(csv_t *t, int64_t p, field_t *f)
{
    const uint8_t *data = t->data;
    const int64_t end = t->end;
    int64_t q, n;
    int kind = BYTE_PLAIN;
    if (p == end) {
        /* After a delimiter: the EOL event saves an empty field. */
        return t->final ? fast_field(t, p, p, p, f) : CSV_CUT;
    }
    if (t->kind[data[p]] != BYTE_QUOTE) {
        /* IN_FIELD: a quote is an ordinary character here. */
        for (q = p;;) {
            q = skip_words(data, q, end, t->delimiter, '\r', '\n');
            while (q < end && (kind = t->kind[data[q]]) < BYTE_HIGH) {
                q++;
            }
            if (q == end || kind >= BYTE_DELIMITER) {
                break;
            }
            n = utf8_length(t, q);
            if (n <= 0) {
                return utf8_status(t, q, n);
            }
            q += n;
        }
        if (q == end && !t->final) {
            return cut_field(t, p);
        }
        return fast_field(t, p, q, q, f);
    }
    /* A quoted field whose next quote is followed by a delimiter, CR, LF
     * or the end of the data ends there, holding exactly the bytes
     * between the quotes: IN_QUOTED_FIELD adds every byte up to that
     * quote, and QUOTE_IN_QUOTED_FIELD saves the field at what follows. */
    for (q = p + 1;;) {
        q = skip_words(data, q, end, '"', '"', '"');
        while (q < end && ((kind = t->kind[data[q]]) == BYTE_PLAIN ||
                           kind >= BYTE_DELIMITER)) {
            q++;
        }
        if (q == end || kind == BYTE_QUOTE) {
            break;
        }
        n = utf8_length(t, q);
        if (n <= 0) {
            return utf8_status(t, q, n);
        }
        q += n;
    }
    if (q >= end - 1 && !t->final) {
        return q == end ? cut_field(t, p + 1) : CSV_CUT;
    }
    if (q == end) {
        return fast_field(t, p + 1, end, end, f); /* an open quote at EOF */
    }
    if (q + 1 == end || t->kind[data[q + 1]] >= BYTE_DELIMITER) {
        return fast_field(t, p + 1, q, q + 1, f);
    }
    return slow_field(t, p, f);
}

/* 64-bit hash of a field's bytes, seeded with its column; eight bytes a
 * step. */
static uint64_t field_hash(const uint8_t *s, int64_t n, int64_t column)
{
    uint64_t h = ((uint64_t)column + 1) * 0x9E3779B97F4A7C15u ^ (uint64_t)n;
    uint64_t word;
    while (n >= 8) {
        memcpy(&word, s, 8);
        h = (h ^ word) * 0xFF51AFD7ED558CCDu;
        h ^= h >> 32;
        s += 8;
        n -= 8;
    }
    for (word = 0; n > 0; n--) {
        word = word << 8 | s[n - 1];
    }
    h = (h ^ word) * 0xC4CEB9FE1A85EC53u;
    return h ^ (h >> 29);
}

/* Puts entry e in the first free slot of its probe sequence. */
static void index_entry(csv_t *t, int64_t e)
{
    uint64_t slot = (uint64_t)t->entries[e * EN_FIELDS + EN_HASH];
    slot &= (uint64_t)t->mask;
    while (t->slots[slot] >= 0) {
        slot = (slot + 1) & (uint64_t)t->mask;
    }
    t->slots[slot] = e;
}

/* The first-appearance id of a body field in its column, adding the
 * field as a new entry (the column's next id) when the column has not
 * held it yet.  In the header, every field is a new entry. */
static int field_id(csv_t *t, int64_t column, const field_t *f, int32_t *id)
{
    uint64_t h = 0, slot = 0;
    int64_t *entry;
    if (t->width >= 0) {
        h = field_hash(f->bytes, f->length, column);
        for (slot = h & (uint64_t)t->mask; t->slots[slot] >= 0;
             slot = (slot + 1) & (uint64_t)t->mask) {
            entry = t->entries + t->slots[slot] * EN_FIELDS;
            if ((uint64_t)entry[EN_HASH] == h &&
                entry[EN_LENGTH] == f->length && entry[EN_COLUMN] == column &&
                memcmp(t->arena + entry[EN_OFFSET], f->bytes,
                       (size_t)f->length) == 0) {
                *id = (int32_t)entry[EN_ID];
                return CSV_OK;
            }
        }
        if (2 * (t->used + 1) > t->mask + 1) {
            t->full = FULL_SLOTS; /* keep the load at most one half */
            return CSV_FULL;
        }
    }
    if (t->used == t->capacity) {
        t->full = FULL_ENTRIES;
        return CSV_FULL;
    }
    if (!f->in_arena) {
        if (f->length > t->arena_size - t->arena_used) {
            t->full = FULL_ARENA;
            return CSV_FULL;
        }
        memcpy(t->arena + t->arena_used, f->bytes, (size_t)f->length);
    }
    entry = t->entries + t->used * EN_FIELDS;
    entry[EN_HASH] = (int64_t)h;
    entry[EN_OFFSET] = t->arena_used;
    entry[EN_LENGTH] = f->length;
    entry[EN_COLUMN] = column;
    if (t->width >= 0) {
        entry[EN_ID] = t->counts[column]++;
        t->slots[slot] = t->used;
    } else {
        entry[EN_ID] = column;
    }
    *id = (int32_t)entry[EN_ID];
    t->arena_used += f->length;
    t->used++;
    return CSV_OK;
}

/* Undoes the entries added since `used`, newest first.  Taking the most
 * recent entries out of a linear-probing table in LIFO order restores it
 * exactly: every entry that probed past a slot was added after the slot's
 * own entry, so it is already gone when that slot is emptied. */
static void rollback(csv_t *t, int64_t used, int64_t arena_used)
{
    while (t->used > used) {
        const int64_t *entry = t->entries + --t->used * EN_FIELDS;
        if (t->width >= 0) {
            uint64_t slot = (uint64_t)entry[EN_HASH] & (uint64_t)t->mask;
            while (t->slots[slot] != t->used) {
                slot = (slot + 1) & (uint64_t)t->mask;
            }
            t->slots[slot] = -1;
            t->counts[entry[EN_COLUMN]]--;
        }
    }
    t->arena_used = arena_used;
}

/* One record from START_RECORD at *pos (< end).  Outside quotes every CR
 * or LF ends a record: a CR LF pair ends the record at the CR and leaves
 * a blank record at the LF, which is dropped as csv.reader's [] rows are.
 * So the file iterator's line splitting never needs a look-ahead. */
static int parse_record(csv_t *t, int64_t *pos, int *blank)
{
    int64_t p = *pos, column = 0;
    field_t f;
    int32_t id;
    int status;
    *blank = t->kind[t->data[p]] == BYTE_EOL;
    if (*blank) {
        *pos = p + 1;
        return CSV_OK;
    }
    for (;;) {
        status = parse_field(t, p, &f);
        if (status != CSV_OK) {
            return status;
        }
        if (t->width < 0 || column < t->width) {
            if (column == 0 && t->width > 0 && t->rows == t->stride) {
                t->full = FULL_IDS;
                return CSV_FULL;
            }
            status = field_id(t, column, &f, &id);
            if (status != CSV_OK) {
                return status;
            }
            if (t->width > 0) {
                t->ids[column * t->stride + t->rows] = id;
            }
        }
        column++;
        p = f.next;
        if (f.ends != ENDS_FIELD) {
            break;
        }
    }
    /* A whole record first, as csv.reader returns it: a bad field later
     * in a ragged record fails as that field. */
    if (t->width >= 0 && column != t->width) {
        return CSV_RAGGED;
    }
    *pos = p;
    return CSV_OK;
}

/* Tokenizes the complete records of data[state[TK_POS]:nbytes], exactly
 * as csv.reader(open(path, newline="", encoding="utf-8"), delimiter=...)
 * reads them (excel dialect, non-strict), numbering each field by first
 * appearance in its column.
 *
 * data:      [nbytes] the block; final != 0 when the file ends with it.
 * delimiter: one ASCII byte other than the quote, CR and LF.
 * width:     fields per record, or -1 to read the header record: one
 *            record (a blank one included), each field a new entry.
 * limit:     csv.field_size_limit(), in code points.
 * slots:     [nslots] hash slots (a power of two), -1 when empty.
 * entries:   [capacity * 5] distinct fields in order of first appearance:
 *            hash, arena offset, byte length, column, id in the column.
 * arena:     [arena_size] the distinct fields' bytes.
 * counts:    [width] distinct fields per column.
 * ids:       [width * stride] int32, column-major: record r's field j has
 *            id ids[j * stride + r].  Blank records get no row.
 * state:     [7] see TK_*.  The entries from state[TK_INDEXED] on are put
 *            into the slots first, so fresh slots need only INDEXED = 0.
 *
 * A record that a non-final block cuts is never half-committed: its ids,
 * and every entry it added, are undone, and state[TK_POS] stays at its
 * first byte.  Every buffer is the caller's; this function allocates
 * nothing.
 *
 * Returns CSV_OK when every complete record is consumed; CSV_FULL with
 * state[TK_FULL] naming the buffer (the id block, slots, entries or
 * arena) that the next record needs grown or, for the id block, emptied;
 * CSV_BAD_ARGS; CSV_RAGGED for a non-blank record of another width;
 * CSV_FIELD_LIMIT; CSV_NOT_UTF8 with the sequence's offset in
 * state[TK_AT].  State is written back on every status. */
int repro_csv_tokenize(const uint8_t *data, int64_t nbytes, int64_t final,
                       int64_t delimiter, int64_t width, int64_t limit,
                       int64_t *slots, int64_t nslots, int64_t *entries,
                       int64_t capacity, uint8_t *arena, int64_t arena_size,
                       int64_t *counts, int32_t *ids, int64_t stride,
                       int64_t *state)
{
    csv_t t;
    int64_t p, e, used, arena_used;
    int status = CSV_OK, blank, b;

    if (data == NULL || slots == NULL || entries == NULL || arena == NULL ||
        counts == NULL || ids == NULL || state == NULL || nbytes < 0 ||
        width < -1 || width > INT32_MAX || limit < 0 || nslots < 2 ||
        (nslots & (nslots - 1)) != 0 || capacity < 0 ||
        capacity > INT32_MAX || arena_size < 0 || stride < 0 ||
        delimiter < 0 || delimiter > 0x7F || delimiter == '"' ||
        delimiter == '\r' || delimiter == '\n' || state[TK_POS] < 0 ||
        state[TK_POS] > nbytes || state[TK_ROWS] < 0 ||
        state[TK_ROWS] > stride || state[TK_USED] < 0 ||
        state[TK_USED] > capacity || state[TK_INDEXED] < 0 ||
        state[TK_INDEXED] > state[TK_USED] || state[TK_ARENA] < 0 ||
        state[TK_ARENA] > arena_size) {
        return CSV_BAD_ARGS;
    }
    t.data = data;
    t.end = nbytes;
    t.final = final != 0;
    t.delimiter = (uint8_t)delimiter;
    t.width = width;
    t.limit = limit;
    t.slots = slots;
    t.mask = nslots - 1;
    t.entries = entries;
    t.capacity = capacity;
    t.arena = arena;
    t.arena_size = arena_size;
    t.counts = counts;
    t.ids = ids;
    t.stride = stride;
    t.rows = state[TK_ROWS];
    t.used = state[TK_USED];
    t.arena_used = state[TK_ARENA];
    t.full = -1;
    t.at = -1;
    for (b = 0; b < 256; b++) {
        t.kind[b] = b >= 0x80 ? BYTE_HIGH : BYTE_PLAIN;
    }
    t.kind['"'] = BYTE_QUOTE;
    t.kind[delimiter] = BYTE_DELIMITER;
    t.kind['\r'] = BYTE_EOL;
    t.kind['\n'] = BYTE_EOL;
    if (width >= 0) {
        if (2 * t.used > nslots) {
            return CSV_BAD_ARGS;
        }
        for (e = state[TK_INDEXED]; e < t.used; e++) {
            index_entry(&t, e);
        }
    }

    for (p = state[TK_POS]; p < nbytes;) {
        const int64_t start = p;
        used = t.used;
        arena_used = t.arena_used;
        status = parse_record(&t, &p, &blank);
        if (status == CSV_CUT || status == CSV_FULL) {
            rollback(&t, used, arena_used);
            p = start;
            status = status == CSV_CUT ? CSV_OK : CSV_FULL;
            break;
        }
        if (status != CSV_OK) {
            break;
        }
        if (width < 0) {
            t.rows = 1;
            break;
        }
        t.rows += !blank;
    }
    state[TK_POS] = p;
    state[TK_ROWS] = t.rows;
    state[TK_USED] = t.used;
    state[TK_INDEXED] = t.used;
    state[TK_ARENA] = t.arena_used;
    state[TK_FULL] = t.full;
    state[TK_AT] = t.at;
    return status;
}

/* Rows of labels: d x n int64 codes (code codes[j * n + i] of attribute j
 * in row i) become n rows, each field label code of attribute j, joined
 * by the delimiter and ended by the terminator.
 *
 * counts:  [d] labels per attribute.
 * offsets: [sum(counts) + 1] non-decreasing: attribute j's label c is
 *          blob[offsets[k]:offsets[k + 1]], k = counts[0] + ... +
 *          counts[j - 1] + c.  The labels come quoted as csv.writer
 *          writes them, so the rows are its bytes.
 * out:     [nout] exactly the rows' length.
 *
 * Every code is checked against its attribute's label count before a
 * byte is written.  Returns 0 on success, 2 on invalid arguments (an out
 * of the wrong size included), 3 on a code outside its labels. */
int repro_csv_assemble(const int64_t *codes, int64_t d, int64_t n,
                       const int64_t *counts, const int64_t *offsets,
                       const uint8_t *blob, int64_t nblob,
                       const uint8_t *delimiter, int64_t ndelimiter,
                       const uint8_t *terminator, int64_t nterminator,
                       uint8_t *out, int64_t nout)
{
    int64_t i, j, k, labels = 0, o = 0;

    if (codes == NULL || counts == NULL || offsets == NULL || blob == NULL ||
        delimiter == NULL || terminator == NULL || out == NULL || d < 0 ||
        n < 0 || nblob < 0 || ndelimiter < 0 || nterminator < 0 ||
        nout < 0) {
        return 2;
    }
    for (j = 0; j < d; j++) {
        if (counts[j] < 0 || counts[j] > INT64_MAX - labels) {
            return 2;
        }
        labels += counts[j];
    }
    if (offsets[0] < 0 || offsets[labels] > nblob) {
        return 2;
    }
    for (k = 0; k < labels; k++) {
        if (offsets[k + 1] < offsets[k]) {
            return 2;
        }
    }
    for (j = 0; j < d; j++) {
        const int64_t *row = codes + j * n;
        for (i = 0; i < n; i++) {
            if (row[i] < 0 || row[i] >= counts[j]) {
                return 3;
            }
        }
    }
    for (i = 0; i < n; i++) {
        int64_t base = 0;
        for (j = 0; j < d; j++) {
            const int64_t label = base + codes[j * n + i];
            const int64_t length = offsets[label + 1] - offsets[label];
            const uint8_t *after = j + 1 < d ? delimiter : terminator;
            const int64_t nafter = j + 1 < d ? ndelimiter : nterminator;
            if (length > nout - o || nafter > nout - o - length) {
                return 2;
            }
            /* A short label moves as one 16-byte copy when both buffers
             * hold 16 bytes there: the bytes past it are overwritten by
             * the next field or separator, or lie before nout. */
            if (length <= 16 && nout - o >= 16 &&
                nblob - offsets[label] >= 16) {
                memcpy(out + o, blob + offsets[label], 16);
            } else {
                memcpy(out + o, blob + offsets[label], (size_t)length);
            }
            o += length;
            for (k = 0; k < nafter; k++) {
                out[o + k] = after[k];
            }
            o += nafter;
            base += counts[j];
        }
    }
    return o == nout ? 0 : 2;
}
