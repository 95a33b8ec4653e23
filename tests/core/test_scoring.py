"""The candidate-scoring engine: memoization, batching, shared caches.

Scores are checked against :class:`core_reference.ReferenceScorer`, which
counts and scores every candidate afresh."""

import numpy as np
import pytest

from core_reference import ReferenceScorer, reference_counts
from repro.core.scoring import (
    CandidateScorer,
    Candidates,
    ScoringCache,
)
from repro.infotheory.measures import (
    mutual_information,
    mutual_information_from_table,
)


def _fixed_k_candidates(table, k=2):
    """All (child, parent-set) candidates over a few greedy rounds."""
    import itertools

    names = list(table.attribute_names)
    placed = names[:1]
    remaining = names[1:]
    rounds = []
    for _ in range(len(remaining)):
        width = min(k, len(placed))
        candidates = []
        for child in remaining:
            for parents in itertools.combinations(placed, width):
                candidates.append((child, tuple((p, 0) for p in parents)))
        rounds.append(candidates)
        placed.append(remaining.pop(0))
    return rounds


class TestMemoization:
    def test_batch_matches_single(self, binary_table):
        batched = CandidateScorer(binary_table, "R")
        single = ReferenceScorer(binary_table, "R")
        for candidates in _fixed_k_candidates(binary_table):
            scores = batched.score_batch(candidates)
            reference = np.array(
                [single(child, parents) for child, parents in candidates]
            )
            assert np.array_equal(scores, reference)  # bit-identical

    def test_each_candidate_scored_once(self, binary_table, monkeypatch):
        """The kernel sees each candidate exactly once across all rounds."""
        import repro.core.scoring as scoring_module

        scorer = CandidateScorer(binary_table, "I")
        scored = []
        original = scoring_module.score_I_segments

        def counting(values, offsets, lengths, child_sizes):
            result = original(values, offsets, lengths, child_sizes)
            scored.extend(range(result.size))
            return result

        monkeypatch.setattr(scoring_module, "score_I_segments", counting)
        rounds = _fixed_k_candidates(binary_table)
        for candidates in rounds:
            scorer.score_batch(candidates)
        unique = {cand for candidates in rounds for cand in candidates}
        assert len(scored) == len(unique)
        # Re-scoring every round is free.
        for candidates in rounds:
            scorer.score_batch(candidates)
        assert len(scored) == len(unique)

    def test_single_candidate_calls_share_the_memo(
        self, binary_table, monkeypatch
    ):
        """A candidate scored in a batch of its own is in the memo: it is
        not scored again, alone or in a larger batch."""
        import repro.core.scoring as scoring_module

        scorer = CandidateScorer(binary_table, "R")
        scored = []
        original = scoring_module.score_R_segments

        def counting(values, offsets, lengths, child_sizes):
            result = original(values, offsets, lengths, child_sizes)
            scored.extend(range(result.size))
            return result

        monkeypatch.setattr(scoring_module, "score_R_segments", counting)
        first = ("b", (("a", 0),))
        second = ("c", (("a", 0),))
        alone = scorer.score_batch([first])[0]
        assert scorer.score_batch([first])[0] == alone and len(scored) == 1
        batch = scorer.score_batch([first, second])
        assert len(scored) == 2
        assert batch[0] == alone
        assert batch[1] == ReferenceScorer(binary_table, "R")(*second)

    def test_f_score_batched(self, binary_table):
        batched = CandidateScorer(binary_table, "F")
        fresh = ReferenceScorer(binary_table, "F")
        candidates = [
            ("c", (("a", 0), ("b", 0))),
            ("d", (("a", 0), ("b", 0))),
            ("d", (("a", 0),)),
        ]
        scores = batched.score_batch(candidates)
        reference = np.array([fresh(ch, pa) for ch, pa in candidates])
        assert np.array_equal(scores, reference)

    def test_f_non_binary_child_rejected_in_batch(self, mixed_table):
        scorer = CandidateScorer(mixed_table, "F")
        with pytest.raises(ValueError, match="binary child"):
            scorer.score_batch([("color", (("warm_flag", 0),))])

    def test_generalized_parents_batched(self, mixed_table):
        batched = CandidateScorer(mixed_table, "R")
        fresh = ReferenceScorer(mixed_table, "R")
        candidates = [
            ("warm_flag", (("color", 1),)),
            ("size", (("color", 1),)),
        ]
        scores = batched.score_batch(candidates)
        reference = np.array([fresh(ch, pa) for ch, pa in candidates])
        assert np.array_equal(scores, reference)


def _generalized_candidates(table):
    """Every child with every parent set of up to two other attributes,
    each parent at every taxonomy level it has, in both parent orders."""
    import itertools

    candidates = []
    for child in table.attribute_names:
        others = [a for a in table.attributes if a.name != child]
        for size in range(3):
            for chosen in itertools.permutations(others, size):
                for levels in itertools.product(*(range(a.height) for a in chosen)):
                    candidates.append(
                        (child, tuple((a.name, lv) for a, lv in zip(chosen, levels)))
                    )
    return candidates


class TestCandidateGrid:
    def test_grid_is_the_tuple_sequence(self, mixed_table):
        candidates = _generalized_candidates(mixed_table)
        grid = Candidates.of(candidates, mixed_table.attribute_names)
        assert len(grid) == len(candidates)
        assert list(grid) == candidates
        assert [grid[i] for i in range(len(grid))] == candidates
        assert grid[-1] == candidates[-1]
        with pytest.raises(IndexError):
            grid[len(candidates)]
        # Equal parent tuples share one set, and the key keeps the order.
        assert len(grid.keys()) == len({parents for _, parents in candidates})
        assert grid.keys()[grid.parent_set[1]] == (1, 0)  # (("warm_flag", 0),)
        assert Candidates.of(grid, mixed_table.attribute_names) is grid

    def test_grid_rejects_other_attributes(self, binary_table, mixed_table):
        grid = Candidates.of([("b", (("a", 0),))], binary_table.attribute_names)
        with pytest.raises(ValueError, match="other attributes"):
            CandidateScorer(mixed_table, "R").score_batch(grid)
        with pytest.raises(KeyError, match="no attribute named 'zz'"):
            Candidates.of([("zz", ())], binary_table.attribute_names)

    @pytest.mark.parametrize("score", ["I", "R", "F"])
    @pytest.mark.parametrize("chunked", [False, True])
    def test_list_grid_and_single_scores_are_bit_equal(
        self, mixed_table, score, chunked
    ):
        from repro.data.chunks import TableChunks

        source = TableChunks(mixed_table, 97) if chunked else mixed_table
        candidates = [
            (child, parents)
            for child, parents in _generalized_candidates(mixed_table)
            if score != "F" or mixed_table.attribute(child).size == 2
        ]
        grid = Candidates.of(candidates, mixed_table.attribute_names)
        from_list = CandidateScorer(source, score).score_batch(candidates)
        from_grid = CandidateScorer(source, score).score_batch(grid)
        single = CandidateScorer(source, score)
        one_by_one = np.array([single.score_batch([c])[0] for c in candidates])
        reference = ReferenceScorer(source, score)
        fresh = np.array([reference.score_candidate(*c) for c in candidates])
        assert np.array_equal(from_list, from_grid)
        assert np.array_equal(from_list, one_by_one)
        assert np.array_equal(from_list, fresh)
        # The memo answers a second call with the same floats.
        assert np.array_equal(single.score_batch(grid), from_list)

    def test_fixed_k_fit_scores_each_round_once(self, monkeypatch):
        """One score_batch call per round; the grid sizes sum to
        Σ (d-p)·C(p, min(k, p)) over p = 1 .. d-1 placed attributes."""
        from math import comb

        from repro.core.greedy_bayes import greedy_bayes_fixed_k
        from repro.datasets import load_nltcs

        submitted = []
        original = CandidateScorer.score_batch

        def recording(self, candidates):
            submitted.append(len(candidates))
            return original(self, candidates)

        monkeypatch.setattr(CandidateScorer, "score_batch", recording)
        table = load_nltcs(seed=1)
        d, k = table.d, 5
        greedy_bayes_fixed_k(table, k, 0.4, "F", np.random.default_rng(3))
        expected = [(d - p) * comb(p, min(k, p)) for p in range(1, d)]
        assert submitted == expected
        assert sum(submitted) == 19_502


class TestSensitivity:
    def test_constant_scores_collapse_to_one_value(self, binary_table):
        scorer = CandidateScorer(binary_table, "F")
        candidates = [("b", (("a", 0),)), ("c", (("a", 0),))]
        value = scorer.selection_sensitivity(candidates)
        assert value == pytest.approx(1.0 / binary_table.n)

    def test_i_sensitivity_uses_domain_shape(self, mixed_table):
        scorer = CandidateScorer(mixed_table, "I")
        # color (4 values) with a ternary parent: non-binary branch.
        wide = scorer.selection_sensitivity([("color", (("size", 0),))])
        narrow = scorer.selection_sensitivity([("warm_flag", (("size", 0),))])
        assert narrow != wide  # binary child takes the tighter bound

    def test_matches_non_incremental(self, mixed_table):
        cached = CandidateScorer(mixed_table, "I")
        fresh = ReferenceScorer(mixed_table, "I")
        candidates = [
            ("color", (("size", 0),)),
            ("warm_flag", (("color", 0), ("size", 0))),
        ]
        assert cached.selection_sensitivity(candidates) == fresh.selection_sensitivity(
            candidates
        )

    def test_empty_candidates_rejected(self, binary_table):
        with pytest.raises(ValueError, match="non-empty"):
            CandidateScorer(binary_table, "F").selection_sensitivity([])


class TestMutualInformation:
    """The ``I`` scorer is the library's mutual-information engine."""

    def test_matches_direct_computation(self, binary_table):
        scorer = CandidateScorer(binary_table, "I")
        direct = mutual_information_from_table(binary_table, "b", ["a"])
        candidate = [("b", (("a", 0),))]
        assert scorer.score_batch(candidate)[0] == direct
        assert scorer.score_batch(candidate)[0] == direct  # memo hit

    def test_generalized_parents(self, mixed_table):
        scorer = CandidateScorer(mixed_table, "I")
        counts = reference_counts(mixed_table, "warm_flag", [("color", 1)])
        assert scorer.score_batch([("warm_flag", (("color", 1),))])[
            0
        ] == mutual_information(counts / mixed_table.n, 2)

    def test_network_quality_from_a_warm_scorer(self, binary_table):
        from repro.bn.network import APPair, BayesianNetwork
        from repro.bn.quality import network_mutual_information

        network = BayesianNetwork(
            [APPair.make("a", []), APPair.make("b", ["a"])]
        )
        warm = CandidateScorer(binary_table, "I")
        warm.score_batch([("b", (("a", 0),))])
        assert network_mutual_information(
            network, warm
        ) == network_mutual_information(network, CandidateScorer(binary_table, "I"))


class TestScoringCache:
    def test_scorer_reused_per_table_and_score(self, binary_table, mixed_table):
        registry = ScoringCache()
        first = registry.scorer(binary_table, "F")
        assert registry.scorer(binary_table, "F") is first
        assert registry.scorer(binary_table, "I") is not first
        assert registry.scorer(mixed_table, "F") is not first

    def test_joint_counter_reused_and_shares_parent_index(self, binary_table):
        registry = ScoringCache()
        counter = registry.joint_counter(binary_table)
        assert registry.joint_counter(binary_table) is counter
        # Scorer and counter flatten parent sets through one shared cache.
        scorer = registry.scorer(binary_table, "F")
        assert scorer._parent_index_cache is counter._parent_index
        assert registry.parent_index(binary_table) is counter._parent_index

    def test_full_fit_retains_only_the_coefficients(self):
        # A k=5 NLTCS fit counts ~3,000 parent sets; no per-parent-set or
        # per-row state may stay pinned in the shared cache, which keeps
        # only the full joint's 2**d Walsh-Hadamard coefficients and a
        # little metadata per attribute.
        from core_reference import held_bytes
        from repro.core.greedy_bayes import greedy_bayes_fixed_k
        from repro.core.noisy_conditionals import noisy_conditionals_fixed_k
        from repro.datasets import load_nltcs

        table = load_nltcs(seed=1)
        registry = ScoringCache()
        rng = np.random.default_rng(5)
        network = greedy_bayes_fixed_k(
            table, 5, 0.1, "F", rng, scorer=registry.scorer(table, "F")
        )
        noisy_conditionals_fixed_k(
            table, network, 5, 0.3, rng, counter=registry.joint_counter(table)
        )
        index = registry.parent_index(table)
        assert index.coefficients.shape == (2**table.d,)
        assert held_bytes(index) <= 2**table.d * 8 + 64 * table.d

    def test_registry_bounded_fifo_eviction(self, binary_table, mixed_table):
        from repro.core.scoring import _MAX_CACHED_TABLES
        from repro.data.attribute import Attribute
        from repro.data.table import Table

        registry = ScoringCache()
        registry.scorer(binary_table, "F")
        churn = [
            Table(
                [Attribute.binary("a")],
                {"a": np.zeros(4, dtype=np.int64) + (i % 2)},
            )
            for i in range(_MAX_CACHED_TABLES + 3)
        ]
        for t in churn:
            registry.joint_counter(t)
        assert len(registry._tables) <= _MAX_CACHED_TABLES
        # Oldest (binary_table) evicted; the most recent churn tables live.
        assert id(binary_table) not in registry._tables
        assert id(churn[-1]) in registry._tables
        # A fresh lookup after eviction simply rebuilds.
        assert registry.scorer(binary_table, "F").table is binary_table

    def test_scorer_table_mismatch_rejected(self, binary_table, mixed_table):
        from repro.core.greedy_bayes import greedy_bayes_fixed_k

        scorer = CandidateScorer(mixed_table, "F")
        with pytest.raises(ValueError, match="different table"):
            greedy_bayes_fixed_k(binary_table, 1, None, scorer=scorer)

    def test_scorer_score_mismatch_rejected(self, binary_table):
        from repro.core.greedy_bayes import greedy_bayes_fixed_k

        scorer = CandidateScorer(binary_table, "I")
        with pytest.raises(ValueError, match="score"):
            greedy_bayes_fixed_k(binary_table, 1, None, score="F", scorer=scorer)


class TestRNGPreservation:
    """Sharing a scorer must not perturb the seeded draw sequence."""

    def test_greedy_identical_with_and_without_shared_scorer(self, binary_table):
        from repro.core.greedy_bayes import greedy_bayes_fixed_k

        fresh = greedy_bayes_fixed_k(
            binary_table, 2, 0.5, rng=np.random.default_rng(7),
            first_attribute="a",
        )
        scorer = CandidateScorer(binary_table, "F")
        warm = greedy_bayes_fixed_k(
            binary_table, 2, 0.5, rng=np.random.default_rng(7),
            first_attribute="a", scorer=scorer,
        )
        # Run again with the now fully warmed memo: still identical.
        warmest = greedy_bayes_fixed_k(
            binary_table, 2, 0.5, rng=np.random.default_rng(7),
            first_attribute="a", scorer=scorer,
        )
        assert fresh == warm == warmest

    def test_theta_identical_with_naive_scorer(self, mixed_table):
        from repro.core.greedy_bayes import greedy_bayes_theta

        incremental = greedy_bayes_theta(
            mixed_table, 0.5, 0.5, theta=2.0, rng=np.random.default_rng(11),
            first_attribute="color",
        )
        naive = greedy_bayes_theta(
            mixed_table, 0.5, 0.5, theta=2.0, rng=np.random.default_rng(11),
            first_attribute="color",
            scorer=ReferenceScorer(mixed_table, "R"),
        )
        assert incremental == naive

