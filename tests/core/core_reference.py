"""Reference implementations for the ``repro.core`` tests.

These are the per-candidate and per-pair paths that the library replaced
with batched ones, kept as test oracles:

* :func:`reference_counts` counts one ``(child, parents)`` joint with a
  per-row mixed-radix index and ``np.bincount``, whatever counting engine
  the library would pick for the table.
* :func:`reference_score` scores those counts one candidate at a time:
  ``F`` through the batched kernel on a batch of one (the kernel has its
  own tests against the Section 4.4 dynamic program and
  :func:`score_F_bruteforce`), ``I`` through
  :func:`~repro.infotheory.measures.mutual_information` and ``R`` as
  Equation 11 written out (:func:`reference_R`).
* :class:`ReferenceScorer` (a ``scorer=`` for the greedy loops) and
  :class:`PerPairCounter` (a ``counter=`` for the distribution learners)
  compute every score and count afresh from those two, with no memo and
  no batching.
* :func:`reference_fixed_k` is Algorithm 2 as it ran before its rounds
  became index grids: attribute names, ``itertools.combinations(placed,
  width)`` and one ``(child, ((name, 0), ...))`` tuple per candidate.
* :func:`score_F_bruteforce` enumerates all ``2^m`` column assignments.
* :func:`broadcast_invert_row_cdfs` inverts row CDFs with the full
  ``(n, C)`` comparison that the sampler's binary search replaced.
* :func:`score_F`, :func:`score_I` and :func:`score_R` score one
  candidate through the production kernels, for the property tests of
  the paper's claims about the scores.
* :func:`held_bytes` sums the arrays a counting engine keeps, for the
  tests that bound what it retains.

Slow and plainly correct; never used by the library.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.bn.network import APPair, BayesianNetwork
from repro.core.parent_sets import parent_set_domain_size
from repro.core.rng import fallback_rng
from repro.core.score_kernels import (
    score_F_batch,
    score_I_segments,
    score_R_segments,
)
from repro.core.scores import sensitivity_F, sensitivity_I, sensitivity_R
from repro.core.scoring import Candidate
from repro.data.table import Table
from repro.dp.accountant import split_epsilon_even
from repro.dp.mechanisms import exponential_mechanism
from repro.infotheory.measures import mutual_information

Parents = Sequence[Tuple[str, int]]


def _resident(table) -> Table:
    """``table`` itself, or a chunked source made resident."""
    if isinstance(table, Table):
        return table
    return Table.from_chunks(table.attributes, table.chunks())


def reference_counts(table, child: str, parents: Parents) -> np.ndarray:
    """Int64 counts of ``Pr[Π, X]`` (child innermost): one per-row
    mixed-radix index over the generalized parent columns (first parent
    most significant), then ``np.bincount``."""
    table = _resident(table)
    flat = np.zeros(table.n, dtype=np.int64)
    parent_dom = 1
    for name, level in parents:
        mapping = table.attribute(name).generalization_map(level)
        size = int(mapping.max()) + 1
        flat = flat * size + mapping[table.column(name)]
        parent_dom *= size
    child_size = table.attribute(child).size
    return np.bincount(
        flat * child_size + table.column(child), minlength=parent_dom * child_size
    )


def reference_R(joint: np.ndarray, child_size: int) -> float:
    """``R`` (Equation 11) written out: half the L1 distance between the
    ``(parent cells, child)`` matrix of ``Pr[Π, X]`` and the outer product
    of its marginals."""
    m = np.asarray(joint, dtype=float).reshape(-1, child_size)
    return float(0.5 * np.abs(m - np.outer(m.sum(1), m.sum(0))).sum())


def reference_score(
    score: str, counts: np.ndarray, n: int, child_size: int
) -> float:
    """Score one candidate from its integer counts over ``n`` rows; I and
    R see ``counts / n``, or the zero counts of an empty table."""
    if score == "F":
        return score_F(counts, n)
    joint = counts / n if n else counts.astype(float)
    if score == "I":
        return mutual_information(joint, child_size)
    return reference_R(joint, child_size)


class ReferenceScorer:
    """What the greedy loops read from a scorer, computed afresh for every
    candidate from :func:`reference_counts` and :func:`reference_score`.

    There is no score memo and no batching, and ``parent_sets`` is
    ``None``, so Algorithm 4 enumerates maximal parent sets without a
    memo.  ``table`` may be a chunked source; it is made resident once.
    """

    parent_sets = None

    def __init__(self, table, score: str) -> None:
        self.table = table
        self.score = score
        self._rows = _resident(table)
        self._attrs = {attr.name: attr for attr in self._rows.attributes}

    def score_candidate(self, child: str, parents: Parents) -> float:
        counts = reference_counts(self._rows, child, parents)
        return reference_score(
            self.score, counts, self._rows.n, self._attrs[child].size
        )

    __call__ = score_candidate

    def score_batch(self, candidates: Sequence[Candidate]) -> np.ndarray:
        return np.array([self.score_candidate(*cand) for cand in candidates])

    def selection_sensitivity(self, candidates: Sequence[Candidate]) -> float:
        """The largest of the candidates' sensitivities: Lemma 4.1 for I,
        with the child's and the joint parent domain's sizes; Theorems 4.5
        and 5.3 for F and R."""
        n = self._rows.n
        values = []
        for child, parents in candidates:
            if self.score == "F":
                values.append(sensitivity_F(n))
            elif self.score == "R":
                values.append(sensitivity_R(n))
            else:
                domain = parent_set_domain_size(frozenset(parents), self._attrs)
                binary = self._attrs[child].size == 2 or domain == 2
                values.append(sensitivity_I(n, binary=binary))
        return max(values)


class PerPairCounter:
    """A ``counter=`` for the distribution learners that counts every AP
    pair on its own with :func:`reference_counts`: the per-pair scan the
    grouped :class:`~repro.core.noisy_conditionals.JointCounter` replaced.
    ``table`` may be a chunked source; it is made resident once."""

    def __init__(self, table) -> None:
        self.table = table
        self._rows = _resident(table)

    def warm(self, pairs: Sequence[APPair]) -> None:
        """Nothing to count ahead: :meth:`counts` scans per pair."""

    def counts(self, pair: APPair) -> Tuple[np.ndarray, Tuple[int, ...]]:
        rows = self._rows
        sizes = tuple(
            int(rows.attribute(name).generalization_map(level).max()) + 1
            for name, level in pair.parents
        )
        counts = reference_counts(rows, pair.child, pair.parents)
        return counts, sizes + (rows.attribute(pair.child).size,)


def reference_fixed_k(
    table,
    k: int,
    epsilon1: Optional[float],
    score: str = "F",
    rng: Optional[np.random.Generator] = None,
    first_attribute: Optional[str] = None,
) -> BayesianNetwork:
    """Algorithm 2 over tuple candidates and a :class:`ReferenceScorer`;
    same arguments, checks, RNG draws and result as
    :func:`repro.core.greedy_bayes.greedy_bayes_fixed_k`."""
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
    scorer = ReferenceScorer(table, score)
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


def score_F_bruteforce(joint_counts: np.ndarray, n: int) -> float:
    """Exponential-time reference implementation of ``F`` (for tests).

    Enumerates all ``2^|dom(Π)|`` assignments of columns to ``Z⁺₀ / Z⁺₁``
    (the equivalence classes of Section 4.4).
    """
    counts = np.asarray(joint_counts)
    matrix = np.rint(counts.reshape(-1, 2)).astype(np.int64)
    m = matrix.shape[0]
    if m > 20:
        raise ValueError("brute force limited to 20 parent cells")
    if n == 0:
        return -0.5
    best = float("inf")
    for mask in range(1 << m):
        k0 = 0
        k1 = 0
        for j in range(m):
            if mask & (1 << j):
                k0 += int(matrix[j, 0])
            else:
                k1 += int(matrix[j, 1])
        value = max(0.0, 0.5 - k0 / n) + max(0.0, 0.5 - k1 / n)
        best = min(best, value)
    return -best


def broadcast_invert_row_cdfs(
    cdf: np.ndarray, rows: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Reference CDF inversion: full ``(n, C)`` comparison, then sum.

    For each tuple ``t``, counts how many entries of ``cdf[rows[t]]`` its
    uniform strictly exceeds; O(n·C) time and memory.
    """
    return (uniforms[:, None] > cdf[rows]).sum(axis=1).astype(np.int64)


def score_F(joint_counts: np.ndarray, n: int) -> float:
    """``F`` (Sections 4.3-4.4) of one candidate's integer counts, laid out
    flat with the binary child innermost, through
    :func:`~repro.core.score_kernels.score_F_batch`."""
    return float(score_F_batch(np.asarray(joint_counts).reshape(-1), n)[0])


def _one_segment(kernel, joint: np.ndarray, child_size: int) -> float:
    flat = np.asarray(joint, dtype=float).reshape(-1)
    return float(kernel(flat, [0], [flat.size], [child_size])[0])


def score_I(joint: np.ndarray, child_size: int) -> float:
    """``I`` (Section 4.2) of one flat ``Pr[Π, X]`` through
    :func:`~repro.core.score_kernels.score_I_segments`."""
    return _one_segment(score_I_segments, joint, child_size)


def score_R(joint: np.ndarray, child_size: int) -> float:
    """``R`` (Equation 11) of one flat ``Pr[Π, X]`` through
    :func:`~repro.core.score_kernels.score_R_segments`."""
    return _one_segment(score_R_segments, joint, child_size)


def held_bytes(index) -> int:
    """Bytes of every array ``index`` keeps in its attributes, through
    nested dicts, tuples and lists; its input (``index.table``) is not
    counted."""

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, dict):
            for item in value.values():
                yield from arrays(item)
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from arrays(item)

    return sum(
        array.nbytes
        for name, value in vars(index).items()
        if name != "table"
        for array in arrays(value)
    )
