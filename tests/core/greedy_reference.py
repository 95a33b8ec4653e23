"""Reference fixed-k GreedyBayes loop for the ``repro.core.greedy_bayes``
tests.

This is Algorithm 2 as it ran before its rounds became index grids, kept
as a test oracle: attribute names, ``itertools.combinations(placed,
width)`` and one ``(child, ((name, 0), ...))`` tuple per candidate.  The
scores come from a ``CandidateScorer(..., incremental=False)`` that counts
raw rows, so every score is computed afresh, apart from the score memo
and from the Walsh–Hadamard counting path.  Slow and plainly correct;
never used by the library.
"""

from __future__ import annotations

import itertools
from typing import List, Optional
from unittest import mock

import numpy as np

import repro.bn.quality as quality
from repro.bn.network import APPair, BayesianNetwork
from repro.core.rng import fallback_rng
from repro.core.scoring import Candidate, CandidateScorer
from repro.data.table import Table
from repro.dp.accountant import split_epsilon_even
from repro.dp.mechanisms import exponential_mechanism


def reference_scorer(table, score: str) -> CandidateScorer:
    """A non-incremental scorer that counts raw rows, also on a table
    that the library would count through Walsh–Hadamard coefficients."""
    if not isinstance(table, Table):
        return CandidateScorer(table, score, incremental=False)
    with mock.patch.object(quality, "MAX_WALSH_CELLS", 0):
        index = quality.ParentIndexCache(table)
    return CandidateScorer(table, score, incremental=False, parent_index=index)


def reference_fixed_k(
    table,
    k: int,
    epsilon1: Optional[float],
    score: str = "F",
    rng: Optional[np.random.Generator] = None,
    first_attribute: Optional[str] = None,
) -> BayesianNetwork:
    """Algorithm 2 over tuple candidates; same arguments, checks, RNG
    draws and result as :func:`repro.core.greedy_bayes.greedy_bayes_fixed_k`."""
    rng = fallback_rng(rng)
    names = list(table.attribute_names)
    d = len(names)
    if d == 0:
        return BayesianNetwork([])
    if k < 0:
        raise ValueError("k must be non-negative")
    if score == "F":
        for attr in table.attributes:
            if attr.size != 2:
                raise ValueError(
                    "score 'F' requires binary attributes; "
                    f"{attr.name!r} has {attr.size} values"
                )
    first = first_attribute or names[int(rng.integers(len(names)))]
    if first not in names:
        raise ValueError(f"unknown first attribute {first!r}")
    pairs = [APPair.make(first, [])]
    placed = [first]
    remaining = [name for name in names if name != first]
    per_round_epsilon = None
    if epsilon1 is not None:
        if epsilon1 <= 0:
            raise ValueError("epsilon1 must be positive")
        per_round_epsilon = split_epsilon_even(epsilon1, max(1, d - 1))
    scorer = reference_scorer(table, score)
    while remaining:
        width = min(k, len(placed))
        candidates: List[Candidate] = []
        for child in remaining:
            for parents in itertools.combinations(placed, width):
                candidates.append(
                    (child, tuple((name, 0) for name in parents))
                )
        scores = scorer.score_batch(candidates)
        if per_round_epsilon is None:
            index = int(np.argmax(scores))
        else:
            index = exponential_mechanism(
                scores,
                scorer.selection_sensitivity(candidates),
                per_round_epsilon,
                rng,
            )
        child, parents = candidates[index]
        pairs.append(APPair.make(child, parents))
        placed.append(child)
        remaining.remove(child)
    return BayesianNetwork(pairs)
