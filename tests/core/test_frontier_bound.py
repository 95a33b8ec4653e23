"""The native F kernel's bounded frontier merge against the unbounded DP.

The compiled kernel processes each candidate's mixed cells largest first
and drops every frontier state whose lower bound is strictly above an
achievable incumbent (``core/_native/scoref.c``).  Its scores must stay
bit-equal to the reference dynamic program :func:`score_F_dp` and, where
the oracle is feasible (m <= 14), to :func:`score_F_bruteforce`.

Generated batches aim at the cases a bound gets wrong first: equal-sided
cells and +-1 near-ties (many states share an objective), heavy-tailed
cell sizes, one dominant cell, a skewed child and all-tiny counts, over
13-40 cells and odd and even n.  Fixed cases sit either side of the
``BOUND_MAX_N = 2^48`` guard, and a real-scale case scores k = 5
candidates over the full NLTCS table, where the bound drops most states.
Every check runs under both backends; the native side skips without a C
toolchain.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernel_backend
from repro.core.score_kernels import score_F_batch, score_F_dp
from repro.core.scores import score_F_bruteforce
from repro.core.scoring import CandidateScorer
from repro.datasets import load_nltcs


def _native_available() -> bool:
    try:
        kernel_backend.load_native()
        return True
    except kernel_backend.KernelBackendError:
        return False


BACKENDS = [
    "numpy",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not _native_available(), reason="no C toolchain for native kernel"
        ),
    ),
]

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


def _all_tiny(rng, shape, scale):
    return rng.integers(0, 3, size=shape), rng.integers(0, 3, size=shape)


SHAPES = [
    _equal_sides,
    _near_ties,
    _heavy_tailed,
    _dominant_cell,
    _skewed_child,
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


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(batches())
def test_batch_equals_dp_and_bruteforce(backend, batch):
    matrices, n = batch
    got = score_F_batch(matrices, n, backend=backend)
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
    # +-1 near-ties at full scale; the remainder goes to cell 0's X=0 count.
    c1 += rng.integers(-1, 2, size=c1.shape)
    c0[:, 0] += n - c0.sum(axis=1) - c1.sum(axis=1)
    return np.stack([c0, c1], axis=2).astype(np.int64)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n", [BOUND_MAX_N, BOUND_MAX_N + 1])
@pytest.mark.parametrize("shape_of", [_equal_sides, _near_ties, _heavy_tailed])
def test_either_side_of_the_bound_guard(backend, n, shape_of):
    """n = 2^48 runs the bounded merge, 2^48 + 1 the unbounded one; at this
    scale a shortfall step of 1/(2n) is a few ulps of the double result."""
    rng = np.random.default_rng([n, SHAPES.index(shape_of)])
    matrices = _scaled_to(n, rng, shape_of)
    assert (matrices.reshape(len(matrices), -1).sum(axis=1) == n).all()
    got = score_F_batch(matrices, n, backend=backend)
    assert np.array_equal(got, _reference(matrices, n))


@pytest.fixture(scope="module")
def nltcs_k5_batch():
    """k = 5 candidates over the full 21,574-row NLTCS table: every 5-subset
    of 7 attributes as parents of each of the 9 others (189 candidates of
    32 cells)."""
    table = load_nltcs(seed=1)
    names = list(table.attribute_names)
    scorer = CandidateScorer(table, "F")
    rows = [
        scorer.counts(child, tuple((name, 0) for name in parents))[0]
        for parents in itertools.combinations(names[:7], 5)
        for child in names[7:]
    ]
    return np.stack(rows), table.n


def test_real_scale_backends_agree_bit_for_bit(nltcs_k5_batch):
    counts, n = nltcs_k5_batch
    reference = score_F_batch(counts, n, backend="numpy")
    if _native_available():
        assert np.array_equal(score_F_batch(counts, n, backend="native"), reference)
    subset = slice(None, None, 9)
    assert np.array_equal(reference[subset], _reference(counts[subset], n))
