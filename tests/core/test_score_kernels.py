"""The batched score-kernel layer: bit-identity, validation, parameters.

The kernels promise *bit-identical* floats to the per-candidate reference
implementations on every input (the Section 4.4 dynamic program and the
brute-force enumeration for ``F``, ``mutual_information`` for ``I`` and
Equation 11 written out for ``R``) — these tests enforce that with
``np.array_equal`` (never ``approx``) across randomized grids, the
enumeration/DP crossover, and the degenerate edges (zero-count cells,
``n = 0``, ``n = 1``, empty batches, forced one-sided candidates).

The ``F`` cross-check grids run under **both** kernel backends (the
pure-NumPy blocked DP and the compiled C frontier merge) through the
``backend`` fixture, which pins ``kernel_backend.NATIVE_KERNEL``, so the
native tier is held to the exact same bit-identity contract — not a
looser "close enough" one.  Environments without a compiler skip the
native side cleanly and still enforce the NumPy contract in full.  The
regime constants ``ENUM_MAX_CELLS`` and ``BLOCK_CELLS`` are read at call
time, so tests force a regime by patching them.
"""

import numpy as np
import pytest

from core_reference import (
    ReferenceScorer,
    reference_counts,
    reference_R,
    score_F_bruteforce,
)
from repro.core import kernel_backend, score_kernels
from repro.core.score_kernels import (
    score_F_batch,
    score_F_dp,
    score_I_segments,
    score_R_segments,
    validate_F_counts,
)
from repro.infotheory.measures import mutual_information


def _random_batch(rng, cells, count, zero_heavy=False):
    """Random integer count matrices with a shared total n per candidate."""
    high = 4 if zero_heavy else 9
    matrices = rng.integers(0, high, size=(count, cells, 2)).astype(np.int64)
    if zero_heavy:
        # Knock whole sides out so one-sided folding and empty cells occur.
        kill = rng.random(size=(count, cells, 2)) < 0.5
        matrices[kill] = 0
    totals = matrices.reshape(count, -1).sum(axis=1)
    n = int(totals.max()) + 1
    # Top up the first cell so every candidate sums to the same n.
    matrices[:, 0, 0] += n - totals
    return matrices, n


def _blocked_regime(monkeypatch):
    """Score every domain with the blocked DP (no enumeration)."""
    monkeypatch.setattr(score_kernels, "ENUM_MAX_CELLS", 0)


@pytest.mark.usefixtures("backend")
class TestBlockedKernelCrossCheck:
    @pytest.mark.parametrize("cells", list(range(1, 21)))
    def test_kernel_matches_dp_domains_1_to_20(self, cells, monkeypatch):
        """Blocked kernel == per-candidate DP, bitwise, domains 1..20."""
        rng = np.random.default_rng(1000 + cells)
        matrices, n = _random_batch(rng, cells, count=13)
        got = score_F_batch(matrices, n)
        ref = np.array([score_F_dp(m.reshape(-1), n) for m in matrices])
        assert np.array_equal(got, ref)
        # Forcing the DP regime on small domains changes nothing either
        # (under "native" this is where the C kernel actually runs).
        _blocked_regime(monkeypatch)
        blocked = score_F_batch(matrices, n)
        assert np.array_equal(blocked, ref)

    @pytest.mark.parametrize("cells", [1, 2, 3, 5, 8, 11, 13, 14])
    def test_kernel_matches_bruteforce(self, cells, monkeypatch):
        """Kernel == exponential-time oracle wherever the oracle is feasible."""
        rng = np.random.default_rng(2000 + cells)
        matrices, n = _random_batch(rng, cells, count=5)
        _blocked_regime(monkeypatch)
        got = score_F_batch(matrices, n)
        oracle = np.array(
            [score_F_bruteforce(m.reshape(-1), n) for m in matrices]
        )
        assert np.array_equal(got, oracle)

    @pytest.mark.parametrize("cells", [4, 9, 15, 18])
    def test_zero_heavy_counts(self, cells, monkeypatch):
        """Zero-count cells and fully one-sided candidates stay exact."""
        rng = np.random.default_rng(3000 + cells)
        matrices, n = _random_batch(rng, cells, count=17, zero_heavy=True)
        _blocked_regime(monkeypatch)
        got = score_F_batch(matrices, n)
        ref = np.array([score_F_dp(m.reshape(-1), n) for m in matrices])
        assert np.array_equal(got, ref)

    def test_all_one_sided_candidate(self, monkeypatch):
        """Every cell forced: the DP loop never runs, bases decide alone."""
        matrices = np.array(
            [[[5, 0], [0, 3], [7, 0], [0, 5]]], dtype=np.int64
        )
        n = 20
        _blocked_regime(monkeypatch)
        got = score_F_batch(matrices, n)
        assert np.array_equal(
            got, np.array([score_F_dp(matrices[0].reshape(-1), n)])
        )

    def test_n_zero(self):
        matrices = np.zeros((3, 15, 2), dtype=np.int64)
        assert np.array_equal(score_F_batch(matrices, 0), np.full(3, -0.5))
        assert score_F_dp(matrices[0].reshape(-1), 0) == -0.5

    def test_n_one(self, monkeypatch):
        matrices = np.zeros((2, 14, 2), dtype=np.int64)
        matrices[0, 3, 0] = 1
        matrices[1, 9, 1] = 1
        _blocked_regime(monkeypatch)
        got = score_F_batch(matrices, 1)
        ref = np.array([score_F_dp(m.reshape(-1), 1) for m in matrices])
        assert np.array_equal(got, ref)

    def test_empty_batch(self):
        batch = np.zeros((0, 13, 2), dtype=np.int64)
        assert score_F_batch(batch, 7).size == 0

    def test_single_flat_joint_promoted(self):
        flat = np.array([4, 1, 0, 3, 2, 2], dtype=np.int64)
        assert score_F_batch(flat, 12).shape == (1,)
        assert score_F_batch(flat, 12)[0] == score_F_dp(flat, 12)

    def test_huge_n_wide_domain(self):
        """n too wide for the NumPy path's packed bit fields stays exact.

        The NumPy side falls back to the per-candidate reference DP; the
        native side needs no fallback (its coordinates are never packed).
        Either way the scores match the reference bitwise.
        """
        rng = np.random.default_rng(4000)
        matrices, small_n = _random_batch(rng, 18, count=3)
        n = (1 << 40) + small_n
        matrices[:, 0, 0] += n - small_n
        got = score_F_batch(matrices, n)
        ref = np.array([score_F_dp(m.reshape(-1), n) for m in matrices])
        assert np.array_equal(got, ref)

    def test_scalar_wrapper_delegates(self):
        rng = np.random.default_rng(7)
        matrices, n = _random_batch(rng, 16, count=4)
        for m in matrices:
            assert score_F_batch(m.reshape(-1), n)[0] == score_F_dp(
                m.reshape(-1), n
            )


class TestEnumerationThreshold:
    """The crossover and the block width are speed knobs only — every
    value scores identically."""

    @pytest.mark.parametrize("threshold", [0, 1, 3, 7, 12, 16, 30])
    def test_any_threshold_is_bit_identical(
        self, threshold, backend, monkeypatch
    ):
        rng = np.random.default_rng(42)
        matrices, n = _random_batch(rng, 13, count=9)
        reference = score_F_batch(matrices, n)
        monkeypatch.setattr(score_kernels, "ENUM_MAX_CELLS", threshold)
        got = score_F_batch(matrices, n)
        assert np.array_equal(got, reference)

    @pytest.mark.parametrize("width", [1, 2, 5, 12])
    def test_any_block_width_is_bit_identical(self, width, monkeypatch):
        """The block width shapes the NumPy blocked DP only, so the NumPy
        side is pinned."""
        monkeypatch.setattr(kernel_backend, "NATIVE_KERNEL", None)
        rng = np.random.default_rng(43)
        matrices, n = _random_batch(rng, 17, count=9)
        _blocked_regime(monkeypatch)
        reference = score_F_batch(matrices, n)
        monkeypatch.setattr(score_kernels, "BLOCK_CELLS", width)
        got = score_F_batch(matrices, n)
        assert np.array_equal(got, reference)


class TestValidationUnified:
    """The batched kernel, on a batch or on one flat joint, and the
    reference DP reject malformed counts identically."""

    def test_odd_length_rejected_everywhere(self):
        with pytest.raises(ValueError, match="binary child"):
            score_F_batch(np.ones(3), 3)
        with pytest.raises(ValueError, match="binary child"):
            validate_F_counts(np.ones((2, 3)), 3)

    def test_non_integer_rejected_everywhere(self):
        with pytest.raises(ValueError, match="integer"):
            score_F_batch(np.array([0.5, 0.5]), 1)
        with pytest.raises(ValueError, match="integer"):
            score_F_batch(np.array([[0.5, 0.5], [1.0, 0.0]]), 1)
        # Within a relative tolerance of an integer is still not an
        # integer, and non-finite counts never are.
        cases = [
            (np.array([1000.004, 2.0, 3.0, 4.0]), 1009),
            (np.array([500000.4, 499999.6]), 10**6),
            (np.array([np.nan, 1.0]), 1),
            (np.array([np.inf, 1.0]), 1),
        ]
        for counts, n in cases:
            for score in (score_F_batch, score_F_dp):
                with pytest.raises(ValueError, match="integer"):
                    score(counts, n)

    def test_wrong_total_rejected_everywhere(self):
        with pytest.raises(ValueError, match="sum"):
            score_F_batch(np.array([1.0, 1.0]), 5)
        with pytest.raises(ValueError, match="sum"):
            score_F_dp(np.array([1.0, 1.0]), 5)
        # The batched path names the first offending candidate's total.
        batch = np.array([[2.0, 3.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="counts sum to 2"):
            score_F_batch(batch, 5)

    def test_wrong_total_checked_per_candidate_in_groups(self):
        """The grouped path validates each candidate, not just the first."""
        batch = np.array([[3.0, 2.0], [4.0, 2.0]])
        with pytest.raises(ValueError, match="counts sum to 6"):
            score_F_batch(batch, 5)

    def test_float_integers_accepted(self):
        flat = np.array([4.0, 1.0, 3.0, 2.0])
        assert score_F_batch(flat, 10)[0] == score_F_dp(flat, 10)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="flat joints"):
            validate_F_counts(np.zeros((2, 3, 4)), 0)


def _rectangular(kernel, joints, child_size):
    """``kernel`` on a rectangular batch: an equal-length ragged batch."""
    count, length = joints.shape
    return kernel(
        joints.reshape(-1),
        np.arange(count) * length,
        np.full(count, length),
        np.full(count, child_size),
    )


class TestIRBatchKernels:
    """The ragged I and R kernels; a rectangular batch is an equal-length
    ragged batch (``_rectangular``)."""

    def test_score_I_batch_matches_scalar(self):
        rng = np.random.default_rng(5)
        for child_size in (2, 3, 5):
            joints = rng.dirichlet(
                np.ones(4 * child_size), size=11
            )
            got = _rectangular(score_I_segments, joints, child_size)
            ref = np.array(
                [mutual_information(j, child_size) for j in joints]
            )
            assert np.array_equal(got, ref)

    def test_score_R_batch_matches_scalar(self):
        rng = np.random.default_rng(6)
        for child_size in (2, 4):
            joints = rng.dirichlet(np.ones(6 * child_size), size=9)
            got = _rectangular(score_R_segments, joints, child_size)
            for j, value in zip(joints, got):
                assert reference_R(j, child_size) == value

    def test_sparse_joints_with_zero_cells(self):
        rng = np.random.default_rng(8)
        joints = rng.dirichlet(np.ones(12), size=8)
        joints[joints < 0.08] = 0.0
        got_i = _rectangular(score_I_segments, joints, 3)
        got_r = _rectangular(score_R_segments, joints, 3)
        for j, vi, vr in zip(joints, got_i, got_r):
            assert mutual_information(j, 3) == vi
            assert reference_R(j, 3) == vr

    def test_all_zero_joint(self):
        """n = 0 tables produce all-zero joints; kernels must not blow up."""
        joints = np.zeros((2, 8))
        assert np.array_equal(
            _rectangular(score_I_segments, joints, 2),
            np.array([mutual_information(np.zeros(8), 2)] * 2),
        )
        assert np.array_equal(
            _rectangular(score_R_segments, joints, 2),
            np.array([reference_R(np.zeros(8), 2)] * 2),
        )

    @staticmethod
    def _ragged_batch(rng, count):
        """Concatenated flat joints of mixed child sizes and parent domains."""
        parts, offsets, lengths, sizes = [], [], [], []
        position = 0
        for _ in range(count):
            child_size = int(rng.integers(2, 6))
            parent_dom = int(rng.integers(1, 9))
            joint = rng.dirichlet(np.ones(parent_dom * child_size))
            joint[joint < 0.05] = 0.0
            parts.append(joint)
            offsets.append(position)
            lengths.append(joint.size)
            sizes.append(child_size)
            position += joint.size
        return np.concatenate(parts), offsets, lengths, sizes

    def test_score_I_segments_matches_scalar(self):
        rng = np.random.default_rng(9)
        flat, offsets, lengths, sizes = self._ragged_batch(rng, 60)
        got = score_I_segments(flat, offsets, lengths, sizes)
        ref = np.array(
            [
                mutual_information(flat[o : o + l], cs)
                for o, l, cs in zip(offsets, lengths, sizes)
            ]
        )
        assert np.array_equal(got, ref)

    def test_score_R_segments_matches_scalar(self):
        rng = np.random.default_rng(10)
        flat, offsets, lengths, sizes = self._ragged_batch(rng, 40)
        got = score_R_segments(flat, offsets, lengths, sizes)
        ref = np.array(
            [
                reference_R(flat[o : o + l], cs)
                for o, l, cs in zip(offsets, lengths, sizes)
            ]
        )
        assert np.array_equal(got, ref)

    def test_segments_empty_batch(self):
        assert score_I_segments(np.zeros(0), [], [], []).size == 0
        assert score_R_segments(np.zeros(0), [], [], []).size == 0

    def test_segments_misaligned_args_rejected(self):
        for kernel in (score_I_segments, score_R_segments):
            with pytest.raises(ValueError, match="align"):
                kernel(np.zeros(4), [0], [4, 0], [2])

    def test_segments_out_of_bounds_rejected(self):
        for kernel in (score_I_segments, score_R_segments):
            with pytest.raises(ValueError, match="bounds"):
                kernel(np.zeros(4), [2], [4], [2])

    def test_segments_bad_child_sizes_rejected(self):
        for kernel in (score_I_segments, score_R_segments):
            with pytest.raises(ValueError, match="positive"):
                kernel(np.zeros(4), [0], [4], [0])
            with pytest.raises(ValueError, match="multiple"):
                kernel(np.zeros(6), [0], [6], [4])


class TestEngineIntegration:
    """The scorer routes every domain size through the kernels, bit-exact."""

    @pytest.fixture()
    def wide_binary_table(self):
        from repro.data.attribute import Attribute
        from repro.data.table import Table

        rng = np.random.default_rng(123)
        names = [f"x{i}" for i in range(8)]
        columns = {
            name: (rng.random(400) < rng.uniform(0.15, 0.85)).astype(np.int64)
            for name in names
        }
        return Table([Attribute.binary(name) for name in names], columns)

    def test_large_domain_f_batch_matches_reference(self, wide_binary_table):
        """Parent domains of 32 and 64 cells (> enum threshold) through
        score_batch equal the per-candidate reference scorer."""
        import itertools

        from repro.core.scoring import CandidateScorer

        table = wide_binary_table
        names = list(table.attribute_names)
        batched = CandidateScorer(table, "F")
        reference = ReferenceScorer(table, "F")
        for width in (5, 6):
            candidates = []
            for parents in itertools.combinations(names[:-1], width):
                candidates.append(
                    (names[-1], tuple((p, 0) for p in parents))
                )
            got = batched.score_batch(candidates)
            ref = np.array([reference(c, p) for c, p in candidates])
            assert np.array_equal(got, ref)

    def test_scorer_f_matches_dp_either_side_of_threshold(
        self, wide_binary_table
    ):
        """Parent domains of 2 to 64 cells, enumerated and DP-scored by the
        kernel's default crossover, equal the Section 4.4 DP bit for bit."""
        from repro.core.scoring import CandidateScorer

        table = wide_binary_table
        names = list(table.attribute_names)
        candidates = [
            (names[-1], tuple((p, 0) for p in names[:width]))
            for width in range(1, 7)
        ]
        got = CandidateScorer(table, "F").score_batch(candidates)
        dp = np.array(
            [
                score_F_dp(reference_counts(table, child, parents), table.n)
                for child, parents in candidates
            ]
        )
        assert np.array_equal(got, dp)

    def test_network_mi_group_path_matches_pairwise(self, wide_binary_table):
        from repro.bn.network import APPair, BayesianNetwork
        from repro.bn.quality import network_mutual_information
        from repro.core.scoring import CandidateScorer

        names = list(wide_binary_table.attribute_names)
        # A fan-out network: many children share the same parent set.
        pairs = [APPair.make(names[0], [])]
        pairs += [APPair.make(c, [names[0]]) for c in names[1:5]]
        pairs += [APPair.make(c, [names[0], names[1]]) for c in names[5:]]
        network = BayesianNetwork(pairs)
        expected = 0.0
        for pair in network:
            if pair.parents:
                counts = reference_counts(
                    wide_binary_table, pair.child, pair.parents
                )
                expected += mutual_information(counts / wide_binary_table.n, 2)
        scorer = CandidateScorer(wide_binary_table, "I")
        assert network_mutual_information(network, scorer) == expected
        # Second call: every pair is a memo hit.
        assert network_mutual_information(network, scorer) == expected
