"""The incremental scoring engine: memoization, batching, shared caches."""

import numpy as np
import pytest

from repro.core.scoring import (
    CandidateScorer,
    MutualInformationCache,
    ScoringCache,
)
from repro.infotheory.measures import mutual_information_from_table


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
        single = CandidateScorer(binary_table, "R", incremental=False)
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

    def test_non_incremental_mode_recomputes(self, binary_table):
        scorer = CandidateScorer(binary_table, "R", incremental=False)
        scorer.score_batch([("b", (("a", 0),))])
        assert scorer._score_memo == {}

    def test_f_score_batched(self, binary_table):
        batched = CandidateScorer(binary_table, "F")
        fresh = CandidateScorer(binary_table, "F", incremental=False)
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
        fresh = CandidateScorer(mixed_table, "R", incremental=False)
        candidates = [
            ("warm_flag", (("color", 1),)),
            ("size", (("color", 1),)),
        ]
        scores = batched.score_batch(candidates)
        reference = np.array([fresh(ch, pa) for ch, pa in candidates])
        assert np.array_equal(scores, reference)


class TestSensitivity:
    def test_constant_scores_collapse_to_one_value(self, binary_table):
        scorer = CandidateScorer(binary_table, "F")
        candidates = [("b", (("a", 0),)), ("c", (("a", 0),))]
        value = scorer.selection_sensitivity(candidates)
        assert value == pytest.approx(1.0 / binary_table.n)

    def test_i_sensitivity_uses_domain_shape(self, mixed_table):
        scorer = CandidateScorer(mixed_table, "I")
        # color (4 values) with a ternary parent: non-binary branch.
        wide = scorer.sensitivity("color", (("size", 0),))
        narrow = scorer.sensitivity("warm_flag", (("size", 0),))
        assert narrow != wide  # binary child takes the tighter bound

    def test_matches_non_incremental(self, mixed_table):
        cached = CandidateScorer(mixed_table, "I")
        fresh = CandidateScorer(mixed_table, "I", incremental=False)
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


class TestMutualInformationCache:
    def test_matches_direct_computation(self, binary_table):
        cache = MutualInformationCache(binary_table)
        direct = mutual_information_from_table(binary_table, "b", ["a"])
        assert cache.mi("b", ("a",)) == direct
        assert cache.mi("b", ("a",)) == direct  # cached hit

    def test_pair_mi_handles_generalized_parents(self, mixed_table):
        from repro.bn.quality import pair_joint_distribution
        from repro.infotheory.measures import mutual_information

        cache = MutualInformationCache(mixed_table)
        joint, child_size = pair_joint_distribution(
            mixed_table, "warm_flag", [("color", 1)]
        )
        assert cache.pair_mi("warm_flag", (("color", 1),)) == mutual_information(
            joint, child_size
        )

    def test_network_quality_with_cache(self, binary_table):
        from repro.bn.network import APPair, BayesianNetwork
        from repro.bn.quality import network_mutual_information

        network = BayesianNetwork(
            [APPair.make("a", []), APPair.make("b", ["a"])]
        )
        cache = MutualInformationCache(binary_table)
        assert network_mutual_information(
            binary_table, network, mi_cache=cache
        ) == network_mutual_information(binary_table, network)


class TestScoringCache:
    def test_scorer_reused_per_table_and_score(self, binary_table, mixed_table):
        registry = ScoringCache()
        first = registry.scorer(binary_table, "F")
        assert registry.scorer(binary_table, "F") is first
        assert registry.scorer(binary_table, "I") is not first
        assert registry.scorer(mixed_table, "F") is not first

    def test_mi_cache_reused(self, binary_table):
        registry = ScoringCache()
        assert registry.mi_cache(binary_table) is registry.mi_cache(binary_table)

    def test_joint_counter_reused_and_shares_parent_index(self, binary_table):
        registry = ScoringCache()
        counter = registry.joint_counter(binary_table)
        assert registry.joint_counter(binary_table) is counter
        # Scorer and counter flatten parent sets through one shared cache.
        scorer = registry.scorer(binary_table, "F")
        assert scorer._parent_index_cache is counter._parent_index
        assert registry.parent_index(binary_table) is counter._parent_index

    def test_full_fit_retains_only_code_columns(self):
        # A k=5 NLTCS fit counts ~3,000 parent sets; no per-parent-set
        # state may stay pinned in the shared cache, which keeps only the
        # full joint's 2**d Walsh-Hadamard coefficients and at most one
        # code column per attribute.
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
        assert set(index._codes) <= {(name, 0) for name in table.attribute_names}
        assert all(codes.shape == (table.n,) for codes, _ in index._codes.values())

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, dict):
                for item in value.values():
                    yield from arrays(item)
            elif isinstance(value, (tuple, list)):
                for item in value:
                    yield from arrays(item)

        held = [
            a for name, value in vars(index).items() if name != "table"
            for a in arrays(value)
        ]
        # At most d code columns plus the coefficients.
        assert sum(a.nbytes for a in held) <= (table.d * table.n + 2**table.d) * 8

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
            scorer=CandidateScorer(mixed_table, "R", incremental=False),
        )
        assert incremental == naive


def test_network_quality_rejects_foreign_cache(binary_table, mixed_table):
    from repro.bn.network import APPair, BayesianNetwork
    from repro.bn.quality import network_mutual_information

    network = BayesianNetwork([APPair.make("a", []), APPair.make("b", ["a"])])
    cache = MutualInformationCache(mixed_table)
    with pytest.raises(ValueError, match="different table"):
        network_mutual_information(binary_table, network, mi_cache=cache)
