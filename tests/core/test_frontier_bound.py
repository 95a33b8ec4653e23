"""The native F kernel's bounded frontier merge against the unbounded DP.

The compiled kernel processes each candidate's mixed cells by x/y
descending and drops every frontier state whose fractional relaxation is
strictly above an achievable incumbent; a candidate whose majority
assignment is the unique optimum skips the merge (``core/_native/scoref.c``).
Its scores must stay bit-equal to the reference dynamic program
:func:`score_F_dp` and, where the oracle is feasible (m <= 14), to
:func:`score_F_bruteforce`.

Generated batches aim at the cases a bound gets wrong first: equal-sided
cells and +-1 near-ties (many states share an objective), heavy-tailed
cell sizes, one dominant cell, a child skewed to either side and all-tiny
counts, over 13-40 cells and odd and even n.  Fixed cases sit either side
of the ``BOUND_MAX_N = 2^48`` guard and at n = 2^40, where ratio and bound
comparisons multiply past int64; three small candidates with one
equal-sided cell, each also mirrored, pin the closed form's exclusion
whichever side a faulty one sends the cell to; and a real-scale case
scores k = 5 candidates over the full NLTCS table, where the bound drops
most states.  Every check runs under both backends (the ``backend``
fixture); the native side skips without a C toolchain.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from core_reference import score_F_bruteforce
from repro.bn.quality import ParentIndexCache
from repro.core import kernel_backend, score_kernels
from repro.core.score_kernels import score_F_batch, score_F_dp
from repro.datasets import load_nltcs

#: The largest n at which the native kernel applies the bound.
BOUND_MAX_N = 1 << 48


def _equal_sides(rng, shape, scale):
    side = rng.integers(1, scale + 1, size=shape)
    return side, side.copy()


def _near_ties(rng, shape, scale):
    c0 = rng.integers(1, scale + 1, size=shape)
    return c0, np.maximum(c0 + rng.integers(-1, 2, size=shape), 1)


def _heavy_tailed(rng, shape, scale):
    sizes = np.floor(rng.pareto(1.1, size=shape) * scale).astype(np.int64) + 2
    c0 = np.floor(sizes * rng.random(size=shape)).astype(np.int64)
    return c0, sizes - c0


def _dominant_cell(rng, shape, scale):
    c0 = rng.integers(1, 10, size=shape)
    c1 = rng.integers(1, 10, size=shape)
    big = rng.integers(0, shape[1])
    c0[:, big] *= 20 * scale
    c1[:, big] *= 20 * scale
    return c0, c1


def _skewed_child(rng, shape, scale):
    c0 = rng.integers(0, scale + 1, size=shape)
    return c0, rng.integers(0, max(2, scale // 20) + 1, size=shape)


def _skewed_child_x1(rng, shape, scale):
    c1, c0 = _skewed_child(rng, shape, scale)
    return c0, c1


def _all_tiny(rng, shape, scale):
    return rng.integers(0, 3, size=shape), rng.integers(0, 3, size=shape)


SHAPES = [
    _equal_sides,
    _near_ties,
    _heavy_tailed,
    _dominant_cell,
    _skewed_child,
    _skewed_child_x1,
    _all_tiny,
]


def _same_total(rng, c0, c1, odd):
    """Top candidates up (on a random cell and side) to one shared n of the
    requested parity."""
    totals = c0.sum(axis=1) + c1.sum(axis=1)
    n = int(totals.max())
    if n % 2 != int(odd) or n == 0:
        n += 1
    rows = np.arange(c0.shape[0])
    cells = rng.integers(0, c0.shape[1], size=c0.shape[0])
    to_x0 = rng.random(c0.shape[0]) < 0.5
    np.add.at(c0, (rows[to_x0], cells[to_x0]), (n - totals)[to_x0])
    np.add.at(c1, (rows[~to_x0], cells[~to_x0]), (n - totals)[~to_x0])
    return np.stack([c0, c1], axis=2).astype(np.int64), n


@st.composite
def batches(draw):
    """A small batch of candidates over 13-40 cells sharing one n."""
    shape_of = draw(st.sampled_from(SHAPES))
    cells = draw(st.integers(13, 40))
    count = draw(st.integers(1, 4))
    scale = draw(st.sampled_from([2, 9, 60, 700]))
    odd = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c0, c1 = shape_of(rng, (count, cells), scale)
    return _same_total(rng, c0, c1, odd)


def _reference(matrices, n):
    return np.array([score_F_dp(matrix.reshape(-1), n) for matrix in matrices])


# The backend fixture pins one side for the whole test, the same for every
# generated example.
@pytest.mark.usefixtures("backend")
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(batches())
def test_batch_equals_dp_and_bruteforce(batch):
    matrices, n = batch
    got = score_F_batch(matrices, n)
    assert np.array_equal(got, _reference(matrices, n))
    if matrices.shape[1] <= 14:
        oracle = [score_F_bruteforce(matrix.reshape(-1), n) for matrix in matrices]
        assert np.array_equal(got, np.array(oracle))


def _scaled_to(n, rng, shape_of, cells=15, count=6):
    """Candidates of one shape scaled up so their counts sum to exactly n."""
    c0, c1 = shape_of(rng, (count, cells), 50)
    c0 = c0 + 1  # no one-sided cells: every cell joins the merge
    totals = c0.sum(axis=1) + c1.sum(axis=1)
    factor = n // int(totals.max())
    c0 *= factor
    c1 *= factor
    # +-1 near-ties at full scale (a skewed shape's empty X=1 counts stay
    # 0); the remainder goes to cell 0's X=0 count.
    c1 += rng.integers(-1, 2, size=c1.shape)
    np.maximum(c1, 0, out=c1)
    c0[:, 0] += n - c0.sum(axis=1) - c1.sum(axis=1)
    return np.stack([c0, c1], axis=2).astype(np.int64)


@pytest.mark.usefixtures("backend")
@pytest.mark.parametrize("n", [BOUND_MAX_N, BOUND_MAX_N + 1])
@pytest.mark.parametrize("shape_of", [_equal_sides, _near_ties, _heavy_tailed])
def test_either_side_of_the_bound_guard(n, shape_of):
    """n = 2^48 runs the bounded merge, 2^48 + 1 the unbounded one; at this
    scale a shortfall step of 1/(2n) is a few ulps of the double result."""
    rng = np.random.default_rng([n, SHAPES.index(shape_of)])
    matrices = _scaled_to(n, rng, shape_of)
    assert (matrices.reshape(len(matrices), -1).sum(axis=1) == n).all()
    got = score_F_batch(matrices, n)
    assert np.array_equal(got, _reference(matrices, n))


@pytest.mark.usefixtures("backend")
@pytest.mark.parametrize("shape_of", [_skewed_child, _skewed_child_x1, _near_ties])
def test_ratio_products_past_int64(shape_of):
    """At n = 2^40 a cell holds ~2^35 tuples, so comparing two cells' x/y,
    or a bound with the incumbent, multiplies past 63 bits."""
    n = 1 << 40
    rng = np.random.default_rng([n, SHAPES.index(shape_of)])
    matrices = _scaled_to(n, rng, shape_of)
    assert (matrices.reshape(len(matrices), -1).sum(axis=1) == n).all()
    got = score_F_batch(matrices, n)
    assert np.array_equal(got, _reference(matrices, n))


#: (X=0 counts, X=1 counts, n), each with one equal-sided cell.  Either
#: side of that cell gives the least integer objective, but the two doubles
#: differ by an ulp: as given, the one with the cell on X=0 is the larger.
#: shortfall(a, b) and shortfall(b, a) are the same double, so with the
#: counts mirrored the cell on X=1 is the larger.  A closed form that let
#: the cell through fails one of the two orientations, whichever side it
#: sends the cell to.
EQUAL_SIDED = [
    ([33, 41, 12], [33, 30, 37], 186),
    ([57, 56, 42, 2], [13, 45, 42, 56], 313),
    ([38, 15, 18, 29, 44], [18, 43, 39, 13, 44], 301),
]


def _majority(x, y, n, tie_to_x0):
    """The majority assignment's F score, the equal-sided cell on X=0 or X=1."""
    to_x0 = x >= y if tie_to_x0 else x > y
    a, b = x[to_x0].sum(), y[~to_x0].sum()
    return -(max(0.0, 0.5 - a / n) + max(0.0, 0.5 - b / n))


@pytest.mark.usefixtures("backend")
@pytest.mark.parametrize("mirrored", [False, True], ids=["as_given", "mirrored"])
@pytest.mark.parametrize(
    "c0, c1, n", EQUAL_SIDED, ids=[f"n{n}" for _, _, n in EQUAL_SIDED]
)
def test_equal_sided_cell_is_not_closed_form(c0, c1, n, mirrored):
    x, y = np.array(c0), np.array(c1)
    if mirrored:
        x, y = y, x
    matrices = np.stack([x, y], axis=1)[None]
    # m <= ENUM_MAX_CELLS would enumerate; 0 sends it through the merge.
    with mock.patch.object(score_kernels, "ENUM_MAX_CELLS", 0):
        got = score_F_batch(matrices, n)
    assert np.array_equal(got, _reference(matrices, n))
    # The majority an ulp above the minimum: the cell on X=0 as given, on
    # X=1 mirrored (the side the kernel's majority loop puts it).
    assert got[0] != _majority(x, y, n, tie_to_x0=not mirrored)


@pytest.fixture(scope="module")
def nltcs_k5_batch():
    """k = 5 candidates over the full 21,574-row NLTCS table: every 5-subset
    of 7 attributes as parents of each of the 9 others (189 candidates of
    32 cells), with their NumPy scores."""
    table = load_nltcs(seed=1)
    names = list(table.attribute_names)
    index = ParentIndexCache(table)
    counts = np.stack([
        index.counts(tuple((name, 0) for name in parents), (child,))[0]
        for parents in itertools.combinations(names[:7], 5)
        for child in names[7:]
    ])
    with mock.patch.object(kernel_backend, "NATIVE_KERNEL", None):
        scores = score_F_batch(counts, table.n)
    return counts, table.n, scores


@pytest.mark.usefixtures("backend")
def test_real_scale_backends_agree_bit_for_bit(nltcs_k5_batch):
    counts, n, numpy_scores = nltcs_k5_batch
    assert np.array_equal(score_F_batch(counts, n), numpy_scores)


def test_real_scale_numpy_equals_dp(nltcs_k5_batch):
    counts, n, numpy_scores = nltcs_k5_batch
    subset = slice(None, None, 9)
    assert np.array_equal(numpy_scores[subset], _reference(counts[subset], n))
