"""The candidate scorer's caching and count layout (greedy inner loop)."""

import numpy as np
import pytest

import repro.bn.quality as quality
from core_reference import held_bytes
from repro.bn.quality import ParentIndexCache
from repro.core.scoring import CandidateScorer
from repro.data.marginals import marginal_counts


def _counts(table, child, parents):
    """``Pr[Π, X]`` (child innermost) and the child's domain size."""
    block, _, _, _, (child_size,) = ParentIndexCache(table).counts(
        parents, (child,)
    )
    return block, child_size


class TestCounts:
    def test_counts_match_marginal_counts(self, binary_table):
        counts, child_size = _counts(binary_table, "b", (("a", 0),))
        reference = marginal_counts(binary_table, ["a", "b"])
        assert child_size == 2
        assert np.array_equal(counts, reference)

    def test_empty_parent_set(self, binary_table):
        counts, _ = _counts(binary_table, "a", ())
        assert np.array_equal(counts, marginal_counts(binary_table, ["a"]))

    def test_generalized_parent_counts(self, mixed_table):
        counts, child_size = _counts(mixed_table, "warm_flag", (("color", 1),))
        assert counts.size == 2 * 2  # generalized color (2) x flag (2)
        assert counts.sum() == mixed_table.n

    def test_repeated_counts_on_one_parent_set_are_equal(
        self, binary_table, monkeypatch
    ):
        # On the raw rows, parent indexes are rebuilt on every call, never
        # retained; every rebuild must give the same integers and so the
        # same scores.
        monkeypatch.setattr(quality, "MAX_WALSH_CELLS", 0)
        parents = (("a", 0), ("b", 0))
        index = ParentIndexCache(binary_table)
        assert index.coefficients is None
        first, second = (
            CandidateScorer(binary_table, "I", parent_index=index)
            for _ in range(2)
        )
        counts = [index.counts(parents, ("c",))[0] for _ in range(3)]
        assert all(np.array_equal(c, counts[0]) for c in counts)
        candidates = [("c", parents), ("d", parents)]
        assert np.array_equal(
            first.score_batch(candidates), second.score_batch(candidates)
        )
        # A little metadata per attribute, and no array per row.
        assert held_bytes(index) <= 64 * binary_table.d

    def test_unknown_score_rejected(self, binary_table):
        with pytest.raises(ValueError, match="unknown score"):
            CandidateScorer(binary_table, "Z")


class TestScoring:
    def test_scores_match_direct_formulas(self, binary_table):
        from core_reference import reference_R
        from repro.infotheory.measures import mutual_information

        scorer_i = CandidateScorer(binary_table, "I")
        scorer_r = CandidateScorer(binary_table, "R")
        counts = marginal_counts(binary_table, ["a", "b"])
        joint = counts / binary_table.n
        candidate = [("b", (("a", 0),))]
        assert scorer_i.score_batch(candidate)[0] == pytest.approx(
            mutual_information(joint, 2)
        )
        assert scorer_r.score_batch(candidate)[0] == pytest.approx(
            reference_R(joint, 2)
        )

    def test_strong_pair_scores_higher(self, binary_table):
        scorer = CandidateScorer(binary_table, "F")
        strong, weak = scorer.score_batch(
            [("b", (("a", 0),)), ("c", (("a", 0),))]  # b follows a; c does not
        )
        assert strong > weak

    def test_F_non_binary_child_rejected(self, mixed_table):
        scorer = CandidateScorer(mixed_table, "F")
        with pytest.raises(ValueError, match="binary child"):
            scorer.score_batch([("color", (("warm_flag", 0),))])
