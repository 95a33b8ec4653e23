"""Incremental candidate-scoring engine for greedy structure search.

The greedy algorithms (Algorithms 2 and 4) re-enumerate all
``O(d · C(d, k))`` (child, parent-set) candidates every round, but a
candidate's score is a pure function of the data — it never changes between
rounds; only candidates involving the just-placed attribute are new.  This
module materializes each score exactly once per run and reuses it, the same
compute-once / answer-many move that makes repeated queries against a fixed
decomposition cheap.

Caching contract
----------------
All caches are keyed on *values derived deterministically from the table*:

* ``CandidateScorer`` memoizes, per ``(child, parents)`` candidate, the
  score and the selection sensitivity, and per ``parents`` tuple the joint
  parent-domain size.  Scoring consumes **no randomness**, so memoization
  preserves the RNG draw sequence of a greedy run bit-for-bit: a memo hit
  returns the exact float a fresh computation would produce (same code
  path, same operand order).
* Contingency tables for all *unscored* candidates of a round are
  counted in one call.  On a resident table it is
  :meth:`repro.bn.quality.ParentIndexCache.grouped_counts`: on an
  all-binary table whose full joint is small enough, every joint is a
  gather and inverse Walsh–Hadamard transform of the full joint's
  coefficients (one per round and width); otherwise each parent set is
  flattened afresh in place and its children bincounted, without keeping
  an ``n``-row index per parent set.  Counts are integers, so batching
  is exact.
* Scoring itself happens in the batched kernels of
  :mod:`repro.core.score_kernels`: ``I``/``R`` per parent-set group, and
  ``F`` across *all* groups of a round sharing a parent-domain size — the
  blocked-bitset kernel handles every domain size, so no candidate ever
  falls back to a per-candidate dynamic program.  Kernels are bit-equal to
  the scalar score functions on every candidate.
* ``MutualInformationCache`` memoizes empirical mutual information per
  ``(child, parents)`` for the non-private reference searches
  (:mod:`repro.bn.structure_search`) and the Figure 4 quality metric.
* Each ``CandidateScorer`` carries a
  :class:`~repro.core.parent_sets.ParentSetCache` so the θ-mode greedy
  loop's maximal-parent-set enumerations (Algorithms 5/6) are memoized
  across rounds and, through a shared scorer, across the runs of a sweep.
* ``ScoringCache`` keys scorers, MI caches and
  :class:`~repro.core.noisy_conditionals.JointCounter` instances (the
  distribution-learning phase's batched contingency counts) on table
  identity so a sweep (many releases over one table) shares them across
  runs.  Scores and counts are data statistics, not noisy releases —
  reusing them across ε values changes no distribution and spends no
  budget.

Caches hold no RNG state and are safe to share across runs on the same
table object; they must not be reused after the table's columns are
mutated (tables are treated as immutable everywhere in this codebase).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.parent_sets import ParentSetCache, parent_set_domain_size
from repro.core.score_kernels import (
    DEFAULT_ENUM_MAX_CELLS,
    score_F_batch,
    score_I_segments,
    score_R_segments,
)
from repro.core.scores import (
    score_F,
    score_I,
    score_R,
    sensitivity_F,
    sensitivity_I,
    sensitivity_R,
)
from repro.data.marginals import domain_size
from repro.data.table import Table
from repro.infotheory.measures import (
    mutual_information,
    mutual_information_from_table,
)

#: A candidate is a child attribute plus a (possibly generalized) parent set.
Candidate = Tuple[str, Tuple[Tuple[str, int], ...]]


def _score_sensitivity(
    score: str, n: int, child_size: int, parent_domain: int
) -> float:
    """Per-candidate sensitivity of the selected score function."""
    if score == "F":
        return sensitivity_F(n)
    if score == "R":
        return sensitivity_R(n)
    if score == "I":
        return sensitivity_I(n, binary=(child_size == 2 or parent_domain == 2))
    raise ValueError(f"unknown score function {score!r}")


class CandidateScorer:
    """Scores (child, parent-set) candidates with cross-round memoization.

    Parameters
    ----------
    table:
        The sensitive dataset: a resident :class:`~repro.data.Table` or a
        :class:`~repro.data.chunks.ChunkedSource`.  On a chunked source
        every contingency accumulates chunk by chunk (exact int64
        addition), and :meth:`score_batch` counts all of a round's
        unscored parent-set groups in a *single* pass over the rows, so a
        greedy fit costs one data scan per round in memory bounded by the
        chunk size.  Scores are bit-identical either way.
    score:
        One of ``'I' | 'F' | 'R'`` (Table 4 of the paper).
    incremental:
        When ``False``, disable the score/sensitivity memos and the batched
        contingency pass — every call recomputes from scratch (the seed
        behavior).  Kept as the reference for the structure-search
        benchmark; production callers never need it.
    f_enum_max_cells:
        Enumeration/DP crossover forwarded to the ``F`` kernel (see
        :data:`repro.core.score_kernels.DEFAULT_ENUM_MAX_CELLS`).  Any
        value yields bit-identical scores; only speed changes.
    """

    def __init__(
        self,
        table,
        score: str,
        incremental: bool = True,
        parent_index=None,
        f_enum_max_cells: int = DEFAULT_ENUM_MAX_CELLS,
    ) -> None:
        if score not in ("I", "F", "R"):
            raise ValueError(f"unknown score function {score!r}")
        # Imported lazily: bn.quality sits above this module in the
        # package import order (bn.structure_search imports scoring).
        from repro.bn.quality import ParentIndexCache

        self._resident = isinstance(table, Table)
        if parent_index is not None and (
            not self._resident or parent_index.table is not table
        ):
            raise ValueError("parent_index was built for a different table")
        self.table = table
        self.score = score
        self.incremental = incremental
        self.f_enum_max_cells = f_enum_max_cells
        #: Counting over the resident table (its code columns and, on an
        #: all-binary table, the full joint's Walsh–Hadamard
        #: coefficients); shareable with the distribution learner's
        #: JointCounter via ScoringCache.  Only resident tables have one —
        #: a chunked source has no per-row arrays to cache; its flattening
        #: happens inside each pass.
        if self._resident:
            self._parent_index_cache = (
                parent_index
                if parent_index is not None
                else ParentIndexCache(table)
            )
        else:
            self._parent_index_cache = None
        self._score_memo: Dict[Candidate, float] = {}
        self._sensitivity_memo: Dict[Candidate, float] = {}
        self._parent_domain: Dict[Tuple, int] = {}
        self._attrs_by_name = {a.name: a for a in table.attributes}
        #: Memo for maximal-parent-set enumeration (Algorithms 5/6); the
        #: greedy θ-mode loop shares it across rounds, and a scorer reused
        #: via ScoringCache shares it across the runs of a sweep.
        self.parent_sets = ParentSetCache()

    def counts(
        self, child: str, parents: Tuple[Tuple[str, int], ...]
    ) -> Tuple[np.ndarray, int]:
        """Contingency counts ``Pr[Π, X]`` (child innermost)."""
        block, _, _, _, child_sizes = self._group_counts(parents, [child])
        return block.astype(float), child_sizes[0]

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _score_from_counts(
        self, child: str, counts: np.ndarray, child_size: int
    ) -> float:
        n = self.table.n
        if self.score == "F":
            if child_size != 2:
                raise ValueError(
                    f"score 'F' requires a binary child; {child!r} has "
                    f"{child_size} values"
                )
            return score_F(counts, n)
        joint = counts / n if n else counts
        if self.score == "I":
            return score_I(joint, child_size)
        return score_R(joint, child_size)

    def _compute_score(
        self, child: str, parents: Tuple[Tuple[str, int], ...]
    ) -> float:
        counts, child_size = self.counts(child, parents)
        return self._score_from_counts(child, counts, child_size)

    def score_candidate(
        self, child: str, parents: Tuple[Tuple[str, int], ...]
    ) -> float:
        """Score one candidate (memoized when ``incremental``)."""
        if not self.incremental:
            return self._compute_score(child, parents)
        key = (child, parents)
        if key not in self._score_memo:
            self._score_memo[key] = self._compute_score(child, parents)
        return self._score_memo[key]

    __call__ = score_candidate

    def _group_counts(
        self, parents: Tuple[Tuple[str, int], ...], children: Sequence[str]
    ):
        """One batched contingency count for every child of one parent set.

        Returns the ``(block, offsets, lengths, parent_sizes, child_sizes)``
        layout of :meth:`repro.bn.quality.ParentIndexCache.grouped_counts`,
        whose integer count segments are identical to the per-candidate
        ones, so downstream score floats are bit-identical to the
        unbatched path.  On a chunked source the same block accumulates
        over one streaming pass.
        """
        return self._counted_groups({parents: list(children)})[0][2]

    def _counted_groups(self, groups: Dict[Tuple, List[str]]):
        """Count every unscored group of a round in one call.

        Returns ``[(parents, children, group_counts), ...]`` where
        ``group_counts`` is the :meth:`_group_counts` tuple.  Resident
        tables count all groups through the shared
        :meth:`~repro.bn.quality.ParentIndexCache.grouped_counts`; a
        chunked source counts them in a single pass over the rows (see
        :func:`repro.data.chunks.stream_grouped_joint_counts`) — the
        blocks are the same integers either way.
        """
        items = [(parents, list(children)) for parents, children in groups.items()]
        group_list = [(parents, tuple(children)) for parents, children in items]
        if self._resident:
            counted = self._parent_index_cache.grouped_counts(group_list)
        else:
            from repro.data.chunks import stream_grouped_joint_counts

            counted = stream_grouped_joint_counts(self.table, group_list)
        return [
            (parents, children, group)
            for (parents, children), group in zip(items, counted)
        ]

    def _score_group(
        self,
        parents: Tuple[Tuple[str, int], ...],
        children: Sequence[str],
        counted=None,
    ) -> None:
        """Score every listed child against one parent set (``I``/``R``).

        The stacked count block feeds the ragged segmented kernels
        directly — no per-size bucketing or ``np.stack`` materialization;
        the kernels are bit-equal to the scalar score functions on each
        candidate's joint.  ``counted`` optionally supplies the group's
        :meth:`_group_counts` tuple (from a shared streaming pass).
        """
        block, offsets, lengths, _, sizes = (
            counted if counted is not None else self._group_counts(parents, children)
        )
        n = self.table.n
        floats = block.astype(float)
        kernel = score_I_segments if self.score == "I" else score_R_segments
        values = kernel(floats / n if n else floats, offsets, lengths, sizes)
        for position, value in enumerate(values):
            self._score_memo[(children[position], parents)] = float(value)

    def _score_F_groups(self, counted_groups) -> None:
        """Score all unscored ``F`` candidates of a round in batched kernels.

        Scoring batches *across* parent sets: every candidate whose parent
        set has the same domain size joins one
        :func:`repro.core.score_kernels.score_F_batch` call, so a greedy
        round costs a handful of kernel invocations instead of one dynamic
        program per candidate.
        """
        n = self.table.n
        by_dom: Dict[int, Tuple[List[Candidate], List[np.ndarray]]] = {}
        for parents, children, counted in counted_groups:
            for child in children:
                if self.table.attribute(child).size != 2:
                    raise ValueError(
                        f"score 'F' requires a binary child; {child!r} has "
                        f"{self.table.attribute(child).size} values"
                    )
            block, offsets, lengths, parent_sizes, _ = counted
            parent_dom = domain_size(parent_sizes)
            cands, segments = by_dom.setdefault(parent_dom, ([], []))
            for child, offset, length in zip(children, offsets, lengths):
                cands.append((child, parents))
                segments.append(block[offset : offset + length])
        for parent_dom, (cands, segments) in by_dom.items():
            matrices = np.stack(segments).reshape(len(cands), parent_dom, 2)
            values = score_F_batch(
                matrices, n, enum_max_cells=self.f_enum_max_cells
            )
            for cand, value in zip(cands, values):
                self._score_memo[cand] = float(value)

    def score_batch(self, candidates: Sequence[Candidate]) -> np.ndarray:
        """Scores for a candidate list, computing only the unscored ones.

        Unscored candidates are grouped by parent set and counted in one
        vectorized contingency pass per group; ``F`` candidates are then
        scored across groups in one kernel call per parent-domain size —
        every domain size goes through the batched kernel, small and large
        alike.
        """
        if not self.incremental:
            return np.array(
                [self._compute_score(child, parents) for child, parents in candidates]
            )
        groups: Dict[Tuple, Dict[str, None]] = {}
        for child, parents in candidates:
            if (child, parents) not in self._score_memo:
                groups.setdefault(parents, {})[child] = None
        if groups:
            counted_groups = self._counted_groups(
                {parents: list(children) for parents, children in groups.items()}
            )
            if self.score == "F":
                self._score_F_groups(counted_groups)
            else:
                for parents, children, counted in counted_groups:
                    self._score_group(parents, children, counted)
        return np.array([self._score_memo[cand] for cand in candidates])

    # ------------------------------------------------------------------
    # Sensitivity
    # ------------------------------------------------------------------
    def _candidate_parent_domain(
        self, parents: Tuple[Tuple[str, int], ...]
    ) -> int:
        if parents not in self._parent_domain:
            self._parent_domain[parents] = parent_set_domain_size(
                frozenset(parents), self._attrs_by_name
            )
        return self._parent_domain[parents]

    def sensitivity(
        self, child: str, parents: Tuple[Tuple[str, int], ...]
    ) -> float:
        """Selection sensitivity of one candidate (memoized when incremental)."""
        if not self.incremental:
            return _score_sensitivity(
                self.score,
                self.table.n,
                self._attrs_by_name[child].size,
                parent_set_domain_size(frozenset(parents), self._attrs_by_name),
            )
        key = (child, parents)
        if key not in self._sensitivity_memo:
            self._sensitivity_memo[key] = _score_sensitivity(
                self.score,
                self.table.n,
                self._attrs_by_name[child].size,
                self._candidate_parent_domain(parents),
            )
        return self._sensitivity_memo[key]

    def selection_sensitivity(self, candidates: Sequence[Candidate]) -> float:
        """The per-selection sensitivity: the max over the candidate set Ω.

        ``F`` and ``R`` sensitivities are candidate-independent (Theorems
        4.5 and 5.3), so the max collapses to a single evaluation; only
        ``I`` varies with the domain shape (Lemma 4.1).
        """
        if not candidates:
            raise ValueError("need a non-empty candidate set")
        if self.incremental and self.score in ("F", "R"):
            child, parents = candidates[0]
            return self.sensitivity(child, parents)
        return max(
            self.sensitivity(child, parents) for child, parents in candidates
        )


class MutualInformationCache:
    """Memoized empirical mutual information over one table.

    Shared by the non-private reference searches (Chow-Liu, exhaustive DP —
    where the same parent combination is rescored under many subset masks)
    and by the Figure 4 network-quality metric (where repeats rescore the
    same AP pairs).  Values are exactly what the uncached helpers return.
    """

    def __init__(self, table: Table) -> None:
        self.table = table
        self._mi: Dict[Tuple[str, Tuple[str, ...]], float] = {}
        self._pair_mi: Dict[Tuple[str, Tuple[Tuple[str, int], ...]], float] = {}

    def mi(self, child: str, parents: Sequence[str]) -> float:
        """``I(child, parents)`` for raw (non-generalized) attributes."""
        key = (child, tuple(parents))
        if key not in self._mi:
            self._mi[key] = mutual_information_from_table(
                self.table, child, list(parents)
            )
        return self._mi[key]

    def mi_batch(self, parent: str, children: Sequence[str]) -> None:
        """Prime the memo with ``I(child, (parent,))`` for many children.

        One stacked contingency pass over the table plus one batched kernel
        call per child-domain size, instead of one table scan per pair.
        Values are bit-equal to what :meth:`mi` computes pair by pair (a
        raw parent is a level-0 generalized parent with the identical count
        layout and normalization), so priming changes no downstream float.
        """
        # Lazy import: bn.quality is above this module in the import order.
        from repro.bn.quality import pair_group_mutual_information

        missing = [c for c in children if (c, (parent,)) not in self._mi]
        if not missing:
            return
        values = pair_group_mutual_information(
            self.table, ((parent, 0),), missing
        )
        for child, value in zip(missing, values):
            self._mi[(child, (parent,))] = float(value)

    def pair_mi_batch(
        self, parents: Sequence[Tuple[str, int]], children: Sequence[str]
    ) -> None:
        """Prime the generalized-pair memo for many children of one parent
        set, through the same batched counting + ``I`` kernel path as
        :mod:`repro.bn.quality` (bit-equal to :meth:`pair_mi` per pair)."""
        # Lazy import: bn.quality is above this module in the import order.
        from repro.bn.quality import pair_group_mutual_information

        key_parents = tuple(parents)
        missing = [
            c for c in children if (c, key_parents) not in self._pair_mi
        ]
        if not missing:
            return
        values = pair_group_mutual_information(
            self.table, key_parents, missing
        )
        for child, value in zip(missing, values):
            self._pair_mi[(child, key_parents)] = float(value)

    def pair_mi(
        self, child: str, parents: Sequence[Tuple[str, int]]
    ) -> float:
        """``I(child, parents)`` where parents carry generalization levels."""
        # Lazy import: bn.quality is above this module in the import order.
        from repro.bn.quality import pair_joint_distribution

        key = (child, tuple(parents))
        if key not in self._pair_mi:
            joint, child_size = pair_joint_distribution(
                self.table, child, list(parents)
            )
            self._pair_mi[key] = mutual_information(joint, child_size)
        return self._pair_mi[key]


#: Distinct tables a ScoringCache pins before evicting the oldest (FIFO).
#: A sweep touches one or two tables; callers that churn through fresh
#: tables (e.g. repeated multitable releases, each truncating anew) would
#: otherwise grow the registry — and every cached count block it pins —
#: without bound and without any cache hits to show for it.
_MAX_CACHED_TABLES = 8


class ScoringCache:
    """Per-table registry of scorers and derived-statistic caches.

    An ε sweep fits many models over the *same* table; candidate scores,
    mutual information, parent-set enumerations, the counting engine
    and contingency counts are deterministic data statistics, so sharing
    their caches across fits changes no output and spends no privacy
    budget.  Tables are keyed by object identity (and kept alive by the
    registry so an id() can never be recycled onto a different table); the
    registry is bounded to ``_MAX_CACHED_TABLES`` distinct tables, evicting
    whole-table entries oldest-first.  Evicted consumers keep working off
    their own references — only future lookups rebuild.
    """

    def __init__(self) -> None:
        #: Insertion-ordered registry of live tables (id -> table).
        self._tables: Dict[int, Table] = {}
        self._scorers: Dict[Tuple[int, str], CandidateScorer] = {}
        self._mi_caches: Dict[int, MutualInformationCache] = {}
        self._joint_counters: Dict[int, object] = {}
        self._parent_indexes: Dict[int, object] = {}

    def _register(self, table: Table) -> int:
        """Pin ``table``, evicting the oldest table past the bound."""
        key = id(table)
        held = self._tables.get(key)
        if held is not table:
            if held is not None:
                # id() was recycled onto a new table: drop the stale entries.
                self._evict(key)
            self._tables[key] = table
            while len(self._tables) > _MAX_CACHED_TABLES:
                self._evict(next(iter(self._tables)))
        return key

    def _evict(self, key: int) -> None:
        self._tables.pop(key, None)
        self._mi_caches.pop(key, None)
        self._joint_counters.pop(key, None)
        self._parent_indexes.pop(key, None)
        for scorer_key in [k for k in self._scorers if k[0] == key]:
            del self._scorers[scorer_key]

    def parent_index(self, table):
        """Shared :class:`~repro.bn.quality.ParentIndexCache` for ``table``.

        Handed to both the table's scorers and its joint counter, so the
        counting engine (the code columns and, on an all-binary table, the
        full joint's Walsh–Hadamard coefficients) is built once per table;
        per-parent-set indexes are never kept.
        Chunked sources have no per-row arrays to cache, so this returns
        ``None`` for them (scorer and counter then flatten inside each
        streaming pass).
        """
        from repro.bn.quality import ParentIndexCache

        if not isinstance(table, Table):
            return None
        key = self._register(table)
        if key not in self._parent_indexes:
            self._parent_indexes[key] = ParentIndexCache(table)
        return self._parent_indexes[key]

    def scorer(self, table, score: str) -> CandidateScorer:
        key = (self._register(table), score)
        if key not in self._scorers:
            self._scorers[key] = CandidateScorer(
                table, score, parent_index=self.parent_index(table)
            )
        return self._scorers[key]

    def mi_cache(self, table: Table) -> MutualInformationCache:
        key = self._register(table)
        if key not in self._mi_caches:
            self._mi_caches[key] = MutualInformationCache(table)
        return self._mi_caches[key]

    def joint_counter(self, table):
        """Shared :class:`~repro.core.noisy_conditionals.JointCounter`.

        Contingency counts are data statistics like scores and MI, so the
        fits of a sweep share one counter per table: each AP-pair joint is
        scanned from the data at most once across all releases.
        """
        # Imported lazily: noisy_conditionals sits above this module in the
        # package import order (it pulls in bn.quality, which feeds scoring).
        from repro.core.noisy_conditionals import JointCounter

        key = self._register(table)
        if key not in self._joint_counters:
            self._joint_counters[key] = JointCounter(
                table, parent_index=self.parent_index(table)
            )
        return self._joint_counters[key]
