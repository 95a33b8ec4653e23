"""Private Bayesian-network construction (Algorithms 2 and 4).

Both algorithms place attributes one at a time: the next attribute-parent
pair is drawn from a candidate set via the exponential mechanism (or via
plain argmax in non-private mode, used by the NoPrivacy reference of
Figure 4).  Algorithm 2 handles binary domains with a fixed degree ``k``;
Algorithm 4 handles general domains, constraining candidates through
θ-usefulness and (optionally) taxonomy generalization.

Every round hands its whole candidate set to
:meth:`CandidateScorer.score_batch` in one call — including the
θ-usefulness regimes whose parent domains exceed the enumeration
threshold: since the score-kernel layer (:mod:`repro.core.score_kernels`),
large-domain ``F`` candidates run through the blocked-bitset batched DP
instead of one per-candidate dynamic program each, so no domain size falls
back to scalar scoring.

Algorithm 2 keeps a round in integer arrays from start to end.  The
placed and remaining attributes are table positions; the round's parent
sets are one ``(C, width)`` array taken from a cached table of
lexicographic combinations of positions in ``placed``; and its
:class:`~repro.core.scoring.Candidates` grid pairs every remaining child
with every parent set, child-major, in the order the tuple loop
``for child in remaining: for parents in combinations(placed, width)``
gives.  The score vector goes unchanged to the exponential mechanism (or
to ``argmax``), and only the drawn candidate is turned back into names.
Algorithm 4 builds tuple lists, which the scorer converts at entry.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bn.network import APPair, BayesianNetwork
from repro.core.parent_sets import (
    maximal_parent_sets,
    maximal_parent_sets_generalized,
)
from repro.core.rng import fallback_rng
from repro.core.scoring import Candidate, CandidateScorer, Candidates
from repro.core.theta import usefulness_tau
from repro.data.table import Table
from repro.dp.accountant import check_epsilon, split_epsilon_even
from repro.dp.mechanisms import exponential_mechanism

#: ``combinations(range(p), w)`` as a ``(C(p, w), w)`` position table per
#: ``(p, w)``.  Pure data shared by every fit, like the F kernel's
#: assignment masks (``score_kernels._MASKS``); filled in place.
_POSITIONS: Dict[Tuple[int, int], np.ndarray] = {}


def _positions(p: int, w: int) -> np.ndarray:
    """Every ``w``-subset of ``range(p)`` in lexicographic order, one row
    each (read-only)."""
    table = _POSITIONS.get((p, w))
    if table is None:
        combos = list(itertools.combinations(range(p), w))
        table = np.array(combos, dtype=np.intp).reshape(len(combos), w)
        table.setflags(write=False)
        _POSITIONS[(p, w)] = table
    return table


def _round_candidates(
    names: Sequence[str], placed: List[int], remaining: List[int], width: int
) -> Candidates:
    """One Algorithm 2 round: every remaining child with every
    ``width``-subset of the placed attributes, child-major.

    The subsets are ``itertools.combinations(placed, width)``: the
    lexicographic order of *positions in* ``placed`` (insertion order, not
    attribute order), and each subset keeps its parents in placed order.
    Candidate ``i`` is child ``remaining[i // C]`` with subset ``i % C``.
    """
    sets = np.asarray(placed, dtype=np.int64)[_positions(len(placed), width)]
    count = len(sets)
    flat = np.zeros((count, 2 * width), dtype=np.int64)
    flat[:, 0::2] = sets
    return Candidates(
        names,
        flat,
        np.full(count, width, dtype=np.intp),
        np.tile(np.arange(count, dtype=np.intp), len(remaining)),
        np.repeat(np.asarray(remaining, dtype=np.intp), count),
    )


def _check_scorer(
    scorer: Optional[CandidateScorer], table: Table, score: str
) -> CandidateScorer:
    """Use the caller-provided scorer (a reusable cache) or build a fresh one."""
    if scorer is None:
        return CandidateScorer(table, score)
    if scorer.table is not table:
        raise ValueError("scorer was built for a different table")
    if scorer.score != score:
        raise ValueError(
            f"scorer uses score {scorer.score!r}, expected {score!r}"
        )
    return scorer


def _select(
    scorer: CandidateScorer,
    candidates: Sequence[Candidate],
    epsilon: Optional[float],
    rng: np.random.Generator,
) -> Candidate:
    """Pick one candidate: exponential mechanism when ``epsilon`` is set,
    plain argmax otherwise (non-private reference)."""
    scores = scorer.score_batch(candidates)
    if epsilon is None:
        return candidates[int(np.argmax(scores))]
    # The per-selection sensitivity must hold for every candidate in Ω;
    # use the largest applicable sensitivity (only I varies by domain shape).
    sensitivity = scorer.selection_sensitivity(candidates)
    index = exponential_mechanism(scores, sensitivity, epsilon, rng)
    return candidates[index]


def check_score_domains(attributes, score: str) -> None:
    """Raise :class:`ValueError` unless ``score`` is computable on every
    attribute: ``F`` (Section 4.4) is defined on binary domains only."""
    if score == "F":
        for attr in attributes:
            if attr.size != 2:
                raise ValueError(
                    "score 'F' requires binary attributes; "
                    f"{attr.name!r} has {attr.size} values"
                )


def greedy_bayes_fixed_k(
    table: Table,
    k: int,
    epsilon1: Optional[float],
    score: str = "F",
    rng: Optional[np.random.Generator] = None,
    first_attribute: Optional[str] = None,
    scorer: Optional[CandidateScorer] = None,
) -> BayesianNetwork:
    """Algorithm 2: greedy ``k``-degree network construction.

    Parameters
    ----------
    table:
        The sensitive dataset (binary attributes expected when ``score='F'``).
    k:
        Network degree.  ``k = 0`` yields the independent-attributes network.
    epsilon1:
        Network-learning budget; ``None`` disables privacy (argmax greedy,
        the NoPrivacy reference of Figure 4).
    score:
        One of ``'I' | 'F' | 'R'``.
    first_attribute:
        Override the random choice of the first (parentless) attribute.
    scorer:
        Optional pre-built :class:`~repro.core.scoring.CandidateScorer` for
        this (table, score); pass one to reuse its memo across runs (e.g.
        an ε sweep).  Scoring consumes no randomness, so sharing it leaves
        the RNG draw sequence untouched.
    """
    rng = fallback_rng(rng)
    names = list(table.attribute_names)
    d = len(names)
    if d == 0:
        return BayesianNetwork([])
    if k < 0:
        raise ValueError("k must be non-negative")
    check_score_domains(table.attributes, score)
    first = first_attribute or names[int(rng.integers(len(names)))]
    if first not in names:
        raise ValueError(f"unknown first attribute {first!r}")
    position = {name: i for i, name in enumerate(names)}
    pairs = [APPair.make(first, [])]
    placed = [position[first]]
    remaining = [i for i in range(d) if i != placed[0]]
    per_round_epsilon = None
    if epsilon1 is not None:
        check_epsilon(epsilon1, "epsilon1")
        per_round_epsilon = split_epsilon_even(epsilon1, max(1, d - 1))
    scorer = _check_scorer(scorer, table, score)
    while remaining:
        candidates = _round_candidates(
            names, placed, remaining, min(k, len(placed))
        )
        child, parents = _select(scorer, candidates, per_round_epsilon, rng)
        pairs.append(APPair.make(child, parents))
        placed.append(position[child])
        remaining.remove(position[child])
    return BayesianNetwork(pairs)


def greedy_bayes_theta(
    table: Table,
    epsilon1: Optional[float],
    epsilon2: float,
    theta: float,
    score: str = "R",
    generalize: bool = False,
    rng: Optional[np.random.Generator] = None,
    first_attribute: Optional[str] = None,
    scorer: Optional[CandidateScorer] = None,
) -> BayesianNetwork:
    """Algorithm 4: θ-useful network construction over general domains.

    Candidates for each unplaced attribute ``X`` are its maximal parent
    sets under the domain budget ``τ / |dom(X)|`` with
    ``τ = n·ε₂ / (2dθ)`` (Section 5.2); when no parent set fits, ``(X, ∅)``
    keeps the attribute modeled as independent.

    Parameters
    ----------
    generalize:
        Use Algorithm 6 (taxonomy-aware maximal parent sets) instead of
        Algorithm 5 — the Hierarchical encoding of Section 5.1.
    epsilon1:
        Selection budget; ``None`` for the non-private argmax reference.
    epsilon2:
        Distribution-learning budget; enters only through ``τ`` (a public
        quantity), so it is *not* spent here.
    scorer:
        Optional pre-built :class:`~repro.core.scoring.CandidateScorer`
        for this (table, score), reusable across runs.
    """
    rng = fallback_rng(rng)
    names = list(table.attribute_names)
    d = len(names)
    if d == 0:
        return BayesianNetwork([])
    tau_total = usefulness_tau(table.n, d, epsilon2, theta)
    first = first_attribute or names[int(rng.integers(len(names)))]
    if first not in names:
        raise ValueError(f"unknown first attribute {first!r}")
    pairs = [APPair.make(first, [])]
    placed = [first]
    remaining = [name for name in names if name != first]
    per_round_epsilon = None
    if epsilon1 is not None:
        check_epsilon(epsilon1, "epsilon1")
        per_round_epsilon = split_epsilon_even(epsilon1, max(1, d - 1))
    enumerate_sets = (
        maximal_parent_sets_generalized if generalize else maximal_parent_sets
    )
    scorer = _check_scorer(scorer, table, score)
    # The enumeration memo persists across rounds (and, via a shared scorer,
    # across the runs of a sweep).  Attributes are passed newest-first so
    # each round's tail subproblems are exactly the previous round's full
    # problems; the computed *set* of maximal parent sets is independent of
    # the attribute order (see repro.core.parent_sets), so the candidate
    # list — canonically sorted — is unchanged.
    while remaining:
        placed_attrs = [table.attribute(name) for name in reversed(placed)]
        candidates: List[Candidate] = []
        for child in remaining:
            child_size = table.attribute(child).size
            top = enumerate_sets(
                placed_attrs, tau_total / child_size, cache=scorer.parent_sets
            )
            if not top:
                candidates.append((child, ()))
            else:
                for parent_set in top:
                    candidates.append((child, tuple(sorted(parent_set))))
        child, parents = _select(scorer, candidates, per_round_epsilon, rng)
        pairs.append(APPair.make(child, parents))
        placed.append(child)
        remaining.remove(child)
    return BayesianNetwork(pairs)
