"""The candidate scorer's caching and count layout (greedy inner loop)."""

import numpy as np
import pytest

from repro.bn.quality import ParentIndexCache
from repro.core.greedy_bayes import _CandidateScorer
from repro.data.marginals import marginal_counts


class TestCounts:
    def test_counts_match_marginal_counts(self, binary_table):
        scorer = _CandidateScorer(binary_table, "I")
        counts, child_size = scorer.counts("b", (("a", 0),))
        reference = marginal_counts(binary_table, ["a", "b"])
        assert child_size == 2
        assert np.allclose(counts, reference)

    def test_empty_parent_set(self, binary_table):
        scorer = _CandidateScorer(binary_table, "I")
        counts, _ = scorer.counts("a", ())
        assert np.allclose(counts, marginal_counts(binary_table, ["a"]))

    def test_generalized_parent_counts(self, mixed_table):
        scorer = _CandidateScorer(mixed_table, "R")
        counts, child_size = scorer.counts("warm_flag", (("color", 1),))
        assert counts.size == 2 * 2  # generalized color (2) x flag (2)
        assert counts.sum() == mixed_table.n

    def test_repeated_counts_on_one_parent_set_are_equal(self, binary_table):
        # Parent indexes are rebuilt on every call, never retained; every
        # rebuild must give the same integers and so the same scores.
        parents = (("a", 0), ("b", 0))
        index = ParentIndexCache(binary_table)
        first, second = (
            _CandidateScorer(binary_table, "I", parent_index=index)
            for _ in range(2)
        )
        counts = [scorer.counts("c", parents)[0] for scorer in (first, first, second)]
        assert all(np.array_equal(c, counts[0]) for c in counts)
        candidates = [("c", parents), ("d", parents)]
        assert np.array_equal(
            first.score_batch(candidates), second.score_batch(candidates)
        )
        assert set(index._codes) == {("a", 0), ("b", 0), ("c", 0), ("d", 0)}

    def test_unknown_score_rejected(self, binary_table):
        with pytest.raises(ValueError, match="unknown score"):
            _CandidateScorer(binary_table, "Z")


class TestScoring:
    def test_scores_match_direct_formulas(self, binary_table):
        from repro.core.scores import score_I, score_R

        scorer_i = _CandidateScorer(binary_table, "I")
        scorer_r = _CandidateScorer(binary_table, "R")
        counts = marginal_counts(binary_table, ["a", "b"])
        joint = counts / binary_table.n
        assert scorer_i("b", (("a", 0),)) == pytest.approx(score_I(joint, 2))
        assert scorer_r("b", (("a", 0),)) == pytest.approx(score_R(joint, 2))

    def test_strong_pair_scores_higher(self, binary_table):
        scorer = _CandidateScorer(binary_table, "F")
        strong = scorer("b", (("a", 0),))  # b follows a
        weak = scorer("c", (("a", 0),))    # c independent of a
        assert strong > weak

    def test_F_non_binary_child_rejected(self, mixed_table):
        scorer = _CandidateScorer(mixed_table, "F")
        with pytest.raises(ValueError, match="binary child"):
            scorer("color", (("warm_flag", 0),))
