"""The native Walsh–Hadamard transform and the fused Walsh F scorer.

``repro_walsh_hadamard`` must give the NumPy body of
:func:`repro.data.marginals.walsh_hadamard` bit for bit, and
``repro_score_f_walsh`` (:meth:`NativeKernel.score_f_walsh`) must score
every candidate as ``score_F_batch(cache.walsh_joints(parents,
children), n)`` does, for every width, repeated attributes and ``n = 0``
included, and refuse a coefficient table whose joints are not counts of
``n`` tuples.  Each test runs under both sides of the ``backend`` fixture:
the fused scorer is compared with ``score_F_batch`` on that side (the
NumPy blocked DP and enumeration, or the native merge), so both need the
compiled kernel and skip without a C toolchain.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bn.quality import ParentIndexCache
from repro.core import kernel_backend
from repro.core.kernel_backend import KernelBackendError
from repro.core.score_kernels import score_F_batch
from repro.core.scoring import CandidateScorer
from repro.data.attribute import Attribute
from repro.data.marginals import walsh_hadamard
from repro.data.table import Table


def _native():
    """The compiled kernel, whatever side the fixture pinned."""
    try:
        return kernel_backend.load_native()
    except KernelBackendError:
        pytest.skip("no C toolchain for the native kernels")


def _numpy_transform(block, bits):
    """The NumPy body of ``walsh_hadamard``, on a copy."""
    out = block.copy()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel_backend, "NATIVE_KERNEL", None)
        walsh_hadamard(out, bits)
    return out


def _binary_table(d, n, seed):
    """``d`` binary attributes over ``n`` rows, each column a noisy copy
    of the one before it, so joints are skewed and cells repeat."""
    rng = np.random.default_rng(seed)
    columns = {}
    previous = rng.integers(0, 2, n)
    for i in range(d):
        flip = rng.random(n) < rng.uniform(0.05, 0.5)
        previous = np.where(flip, 1 - previous, previous)
        columns[f"a{i}"] = previous
    return Table([Attribute.binary(name) for name in columns], columns)


def _candidates(rng, d, width, count):
    """``count`` random candidates of ``width`` parents over ``d``
    attributes; any position may repeat, the child's included."""
    return (
        rng.integers(0, d, size=(count, width), dtype=np.int64),
        rng.integers(0, d, size=count, dtype=np.int64),
    )


# The backend fixture pins one side for the whole test, the same for every
# generated example.
@pytest.mark.usefixtures("backend")
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    d=st.integers(1, 16),
    n=st.one_of(st.just(0), st.integers(1, 400)),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_scores_equal_joints_then_F(d, n, seed):
    kernel = _native()
    table = _binary_table(d, n, seed)
    cache = ParentIndexCache(table)
    rng = np.random.default_rng(seed)
    names = table.attribute_names
    for width in range(d):
        parents, children = _candidates(rng, d, width, 5)
        expected = score_F_batch(cache.walsh_joints(parents, children), n)
        got = kernel.score_f_walsh(cache.coefficients, parents, children, n)
        assert np.array_equal(got, expected), width
        # The scorer's route on this side gives the same scores.
        scorer = CandidateScorer(table, "F", parent_index=cache)
        tuples = [
            (names[child], tuple((names[p], 0) for p in row))
            for row, child in zip(parents.tolist(), children.tolist())
        ]
        assert np.array_equal(scorer.score_batch(tuples), expected)


@pytest.mark.usefixtures("backend")
@pytest.mark.parametrize("n", [0, 1, 57])
def test_zero_candidates_score_nothing(n):
    kernel = _native()
    cache = ParentIndexCache(_binary_table(5, n, 3))
    for width in (0, 2):
        parents = np.zeros((0, width), dtype=np.int64)
        children = np.zeros(0, dtype=np.int64)
        got = kernel.score_f_walsh(cache.coefficients, parents, children, n)
        assert got.shape == (0,)
        assert np.array_equal(
            got, score_F_batch(cache.walsh_joints(parents, children), n)
        )


@pytest.mark.usefixtures("backend")
def test_empty_table_scores_minus_one_half():
    kernel = _native()
    cache = ParentIndexCache(_binary_table(4, 0, 1))
    parents, children = _candidates(np.random.default_rng(1), 4, 3, 7)
    got = kernel.score_f_walsh(cache.coefficients, parents, children, 0)
    assert np.array_equal(got, np.full(7, -0.5))


@pytest.mark.usefixtures("backend")
def test_repeated_attributes_cancel_as_in_the_joints():
    """A parent listed twice, and a parent that is the child, cancel in
    the coefficient index exactly as ``walsh_joints`` cancels them."""
    kernel = _native()
    table = _binary_table(6, 300, 11)
    cache = ParentIndexCache(table)
    parents = np.array(
        [[1, 1, 2], [0, 3, 0], [4, 5, 5], [2, 2, 2], [3, 1, 3]], dtype=np.int64
    )
    children = np.array([0, 0, 4, 2, 1], dtype=np.int64)
    expected = score_F_batch(cache.walsh_joints(parents, children), table.n)
    got = kernel.score_f_walsh(cache.coefficients, parents, children, table.n)
    assert np.array_equal(got, expected)


def _transform_blocks():
    """(bits, block) pairs: 2**0 to 2**20 cells without a trailing axis,
    and with trailing axes of 3 and (2, 5), of full-range int64 values
    (the stages wrap) and of counts."""
    flat, trailing = np.random.default_rng(20140622).spawn(2)
    blocks = []
    for bits in range(21):
        blocks.append((bits, flat.integers(-(2**63), 2**63 - 1, size=1 << bits)))
        blocks.append((bits, flat.integers(0, 50, size=1 << bits)))
    for bits in (0, 1, 5, 13, 17):
        blocks.append(
            (bits, trailing.integers(-(2**63), 2**63 - 1, size=(1 << bits, 3)))
        )
        blocks.append(
            (bits, trailing.integers(0, 1000, size=(1 << bits, 2, 5)))
        )
    blocks.append((4, np.zeros((16, 0), dtype=np.int64)))
    return [
        pytest.param(bits, block, id=f"{block.shape}-{block.min(initial=0) < 0}")
        for bits, block in blocks
    ]


@pytest.mark.parametrize("bits, block", _transform_blocks())
def test_transform_equals_the_numpy_body(backend, bits, block):
    expected = _numpy_transform(block, bits)
    got = block.copy()
    assert walsh_hadamard(got, bits) is got
    assert np.array_equal(got, expected)
    # The transform applied twice is 2**bits times the identity (modulo
    # 2**64, as int64 NumPy wraps).
    np.testing.assert_array_equal(
        walsh_hadamard(got, bits), block * np.int64(1 << bits)
    )


def test_transform_refuses_a_read_only_block(backend):
    block = np.zeros(8, dtype=np.int64)
    block.setflags(write=False)
    with pytest.raises(ValueError, match="read-only"):
        walsh_hadamard(block, 3)


def _corrupted(cache, index, delta):
    damaged = cache.coefficients.copy()
    # A one-cell slice adds as an array, wrapping without a warning.
    damaged[index : index + 1] += np.int64(delta)
    return damaged


@pytest.mark.usefixtures("backend")
@pytest.mark.parametrize(
    "index, delta",
    [(0, 1), (0, -1), (0b101, 1), (0b101, -(1 << 40)), (0b100, 1 << 62),
     (0b111, -(1 << 63))],
)
def test_corrupted_coefficient_is_refused(index, delta):
    """One damaged entry among the coefficients the candidates gather
    gives joints that are not counts of n tuples: the fused scorer raises
    instead of returning a score.  At index 0 every joint cell is off by
    one, which the NumPy path's shift would floor away."""
    kernel = _native()
    table = _binary_table(3, 200, 5)
    cache = ParentIndexCache(table)
    parents = np.array([[0, 1], [1, 0], [0, 2]], dtype=np.int64)
    children = np.array([2, 2, 1], dtype=np.int64)
    damaged = _corrupted(cache, index, delta)
    with pytest.raises(KernelBackendError, match="not the counts of n tuples"):
        kernel.score_f_walsh(damaged, parents, children, table.n)


def test_scorer_refuses_a_corrupted_table(backend):
    """Through the scorer, each side refuses the damaged table: the fused
    call with KernelBackendError, ``validate_F_counts`` with ValueError."""
    table = _binary_table(4, 500, 9)
    cache = ParentIndexCache(table)
    cache.coefficients = _corrupted(cache, 0b0011, 1)
    scorer = CandidateScorer(table, "F", parent_index=cache)
    error = KernelBackendError if backend == "native" else ValueError
    with pytest.raises(error):
        scorer.score_batch([("a3", (("a2", 0), ("a1", 0)))])


@pytest.mark.usefixtures("backend")
@pytest.mark.parametrize(
    "parents, children, n",
    [
        ([[0, 4]], [1], 100),  # a parent past d = 4
        ([[0, -1]], [1], 100),  # a negative parent
        ([[0, 1]], [4], 100),  # a child past d
        ([[0, 1]], [1], -1),  # a negative n
    ],
)
def test_bad_arguments_are_refused(parents, children, n):
    kernel = _native()
    cache = ParentIndexCache(_binary_table(4, 100, 2))
    with pytest.raises(KernelBackendError, match="invalid arguments"):
        kernel.score_f_walsh(
            cache.coefficients,
            np.array(parents, dtype=np.int64),
            np.array(children, dtype=np.int64),
            n,
        )


@pytest.mark.usefixtures("backend")
@pytest.mark.parametrize(
    "wrong_n", [lambda n: n + 1, lambda n: 2**63 - 1], ids=["n+1", "int64-max"]
)
def test_wrong_n_is_a_bad_joint(wrong_n):
    """Joints of the table's n tuples, scored as if there were n + 1, or
    the largest int64, at which the merge's set-up, run before any joint
    is checked, must not overflow (a UBSan build stops at one)."""
    kernel = _native()
    table = _binary_table(4, 100, 2)
    cache = ParentIndexCache(table)
    with pytest.raises(KernelBackendError, match="not the counts of n tuples"):
        kernel.score_f_walsh(
            cache.coefficients,
            np.array([[0, 1]], dtype=np.int64),
            np.array([2], dtype=np.int64),
            wrong_n(table.n),
        )
