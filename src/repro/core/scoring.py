"""Candidate-scoring engine for greedy structure search.

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

* A round's candidates travel as a :class:`Candidates` index grid: the
  round's distinct parent sets as flat ``(attribute position, level)``
  int arrays, plus a parent-set id and a child position per candidate.
  Algorithm 2 builds its grids from arrays; a ``(child, parents)`` tuple
  list is converted once, at entry, by :meth:`Candidates.of`.
* ``CandidateScorer`` memoizes scores in one float matrix with a row per
  *ordered* parent set and a column per child attribute, beside a
  boolean matrix of the known cells and each row's joint parent-domain
  size (read only by the ``I`` sensitivity).  A dict maps the flat int
  key of each parent set to its row; parent order is part of the key
  because ``I`` and ``R`` sum their joints in cell order, so one set
  seen in two orders keeps two rows.  A round costs one dict lookup per
  distinct parent set and one fancy-index for the known scores.
  Scoring consumes **no randomness**, so memoization preserves the RNG
  draw sequence of a greedy run bit-for-bit: a memo hit returns the
  exact float a fresh computation would produce.
* Contingency tables for all *unscored* candidates of a round are
  counted together, by the one counting engine
  (:class:`repro.bn.quality.ParentIndexCache`) whatever the input, a
  resident table or a chunked source.  On an all-binary input whose
  full joint is small enough, the joints of level-0 parent sets come
  from the full joint's Walsh–Hadamard coefficients (a gather and an
  inverse transform), one call per round and width: for ``F`` with the
  native kernel loaded, one fused ``score_f_walsh`` call that builds and
  scores every joint in C, so no joint array is made; otherwise one
  :meth:`~repro.bn.quality.ParentIndexCache.walsh_joints` call.  Every
  other candidate is grouped by parent set and counted with one
  :meth:`~repro.bn.quality.ParentIndexCache.grouped_counts` call per
  round, which is one pass over the rows; in each chunk every parent set
  is flattened afresh in place and its children bincounted, without
  keeping an ``n``-row index per parent set.  Counts are integers, so
  batching is exact.
* Scoring itself happens in the batched kernels of
  :mod:`repro.core.score_kernels` (and, on the fused path, in the
  native kernel's copy of the same merge): one ``F`` call per round and
  joint length (parent-domain size), fed the counted blocks as they
  are, and one segmented ``I``/``R`` call per round and width on the
  Walsh path, or per counted parent set otherwise.  Large-domain ``F``
  candidates run through the compiled frontier merge
  (``repro_score_f_batch``) when the native kernel is loaded and through
  the NumPy blocked-bitset DP otherwise; only that NumPy path at
  ``n ≥ 2^30``, where its packed states would overflow int64, scores
  them one at a time through ``score_F_dp``.  Each kernel output is
  bit-equal to the score of that candidate computed alone, whatever else
  is in the batch.
* An ``I`` scorer is also the library's one mutual-information engine:
  the Figure 4 network-quality metric
  (:func:`repro.bn.quality.network_mutual_information`) sums its scores,
  so an AP pair the greedy learner already scored costs a memo lookup.
* Each ``CandidateScorer`` carries a
  :class:`~repro.core.parent_sets.ParentSetCache` so the θ-mode greedy
  loop's maximal-parent-set enumerations (Algorithms 5/6) are memoized
  across rounds and, through a shared scorer, across the runs of a sweep.
* ``ScoringCache`` keys scorers, the shared
  :class:`~repro.bn.quality.ParentIndexCache` and
  :class:`~repro.core.noisy_conditionals.JointCounter` instances (the
  distribution-learning phase's batched contingency counts) on the
  identity of the table or source, so a sweep (many releases over one
  table) shares them across runs.  Scores and counts are data
  statistics, not noisy releases — reusing them across ε values changes
  no distribution and spends no budget.

Caches hold no RNG state and are safe to share across runs on the same
table object; they must not be reused after the table's columns are
mutated (tables are treated as immutable everywhere in this codebase).
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Sequence as SequenceABC
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.core import kernel_backend
from repro.core.parent_sets import ParentSetCache, parent_set_domain_size
from repro.core.score_kernels import (
    score_F_batch,
    score_I_segments,
    score_R_segments,
)
from repro.core.scores import sensitivity_F, sensitivity_I, sensitivity_R
from repro.data.chunks import RowSource

#: A candidate is a child attribute plus a (possibly generalized) parent set.
Candidate = Tuple[str, Tuple[Tuple[str, int], ...]]


class Candidates(SequenceABC):
    """A greedy round's candidates as an index grid.

    Candidate ``i`` is child ``names[child[i]]`` with the distinct parent
    set ``parent_set[i]``.  Row ``s`` of the int64 array ``sets`` lists
    parent set ``s`` as flat ``(attribute position, level)`` pairs in the
    candidate's parent order, ``widths[s]`` pairs of them (a shorter set's
    row is zero-padded).  As a ``Sequence[Candidate]`` the grid rebuilds
    the ``(child, ((name, level), ...))`` tuple of a candidate on demand,
    so code that indexes or iterates candidates sees what a tuple list
    gives it; :class:`CandidateScorer` reads the arrays.
    """

    def __init__(
        self,
        names: Sequence[str],
        sets: np.ndarray,
        widths: np.ndarray,
        parent_set: np.ndarray,
        child: np.ndarray,
    ) -> None:
        self.names = tuple(names)
        self.sets = sets
        self.widths = widths
        self.parent_set = parent_set
        self.child = child
        self._keys = None

    @classmethod
    def of(cls, candidates: Sequence[Candidate], names: Sequence[str]) -> "Candidates":
        """The grid of a ``(child, parents)`` tuple sequence over the
        attributes ``names``; a grid over the same attributes is returned
        as it is.  Equal parent tuples share one set, in order of first
        appearance."""
        names = tuple(names)
        if isinstance(candidates, cls):
            if candidates.names != names:
                raise ValueError("candidates were built for other attributes")
            return candidates
        position = {name: i for i, name in enumerate(names)}

        def at(name: str) -> int:
            if name not in position:
                raise KeyError(f"no attribute named {name!r}")
            return position[name]

        set_ids: Dict[Tuple, int] = {}
        parent_set = [
            set_ids.setdefault(parents, len(set_ids)) for _, parents in candidates
        ]
        child = [at(name) for name, _ in candidates]
        widths = [len(parents) for parents in set_ids]
        sets = np.zeros((len(set_ids), 2 * max(widths, default=0)), dtype=np.int64)
        for row, parents in enumerate(set_ids):
            for j, (name, level) in enumerate(parents):
                sets[row, 2 * j : 2 * j + 2] = at(name), level
        return cls(
            names,
            sets,
            np.array(widths, dtype=np.intp),
            np.array(parent_set, dtype=np.intp),
            np.array(child, dtype=np.intp),
        )

    def keys(self) -> List[Tuple[int, ...]]:
        """Each distinct parent set as a flat tuple of ints: attribute
        position and level per parent, in candidate order (the score
        memo's key)."""
        if self._keys is None:
            rows = self.sets.tolist()
            if np.all(self.widths == self.sets.shape[1] // 2):
                self._keys = list(map(tuple, rows))
            else:
                self._keys = [
                    tuple(row[: 2 * width])
                    for row, width in zip(rows, self.widths.tolist())
                ]
        return self._keys

    def parents(self, set_id: int) -> Tuple[Tuple[str, int], ...]:
        """Parent set ``set_id`` as ``((name, level), ...)``."""
        flat = self.sets[set_id, : 2 * int(self.widths[set_id])].tolist()
        return tuple(zip(map(self.names.__getitem__, flat[0::2]), flat[1::2]))

    def __len__(self) -> int:
        return len(self.child)

    def __getitem__(self, index: int) -> Candidate:
        i = range(len(self.child))[operator.index(index)]
        return self.names[self.child[i]], self.parents(self.parent_set[i])

    def __iter__(self) -> Iterator[Candidate]:
        parents = [self.parents(s) for s in range(len(self.widths))]
        for set_id, child in zip(self.parent_set.tolist(), self.child.tolist()):
            yield self.names[child], parents[set_id]


def _grown(array: np.ndarray, rows: int) -> np.ndarray:
    """``array`` with its first axis extended to ``rows``, zero-filled."""
    grown = np.zeros((rows,) + array.shape[1:], dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown


class CandidateScorer:
    """Scores (child, parent-set) candidates with cross-round memoization.

    Parameters
    ----------
    table:
        The sensitive dataset: a resident :class:`~repro.data.Table` or a
        :class:`~repro.data.chunks.ChunkedSource`.  :meth:`score_batch`
        counts all of a round's unscored raw parent-set groups in a
        *single* pass over the rows, chunk by chunk (exact int64
        addition), so a greedy fit on a source costs at most one data
        scan per round in memory bounded by the chunk size; an all-binary
        source is scanned once, for its Walsh–Hadamard coefficients.
        Scores are bit-identical either way.
    score:
        One of ``'I' | 'F' | 'R'`` (Table 4 of the paper).
    parent_index:
        Optional :class:`~repro.bn.quality.ParentIndexCache` built for
        ``table``, shared with other consumers of the same table; without
        one the scorer builds its own.
    """

    def __init__(self, table, score: str, parent_index=None) -> None:
        if score not in ("I", "F", "R"):
            raise ValueError(f"unknown score function {score!r}")
        # Imported lazily: the repro.bn package imports bn.inference,
        # which imports repro.core, whose package import reaches here.
        from repro.bn.quality import ParentIndexCache

        if parent_index is not None and parent_index.table is not table:
            raise ValueError("parent_index was built for a different table")
        self.table = table
        self.score = score
        #: The counting engine over ``table`` (on an all-binary input, the
        #: full joint's Walsh–Hadamard coefficients); shareable with the
        #: distribution learner's JointCounter via ScoringCache.
        self._parent_index_cache = (
            parent_index if parent_index is not None else ParentIndexCache(table)
        )
        self._names = tuple(table.attribute_names)
        self._attrs_by_name = {a.name: a for a in table.attributes}
        self._sizes = np.array([a.size for a in table.attributes], dtype=np.int64)
        #: The score memo: a row per ordered parent set (``_row_ids`` maps
        #: its :meth:`Candidates.keys` tuple to the row) and a column per
        #: child attribute.  ``_known`` marks the computed scores and
        #: ``_domain`` holds each row's joint parent-domain size, NaN until
        #: a sensitivity first reads it.  Capacity doubles as rows come.
        self._row_ids: Dict[Tuple[int, ...], int] = {}
        self._row_count = 0
        self._scores = np.zeros((0, len(self._names)))
        self._known = np.zeros((0, len(self._names)), dtype=bool)
        self._domain = np.zeros(0)
        #: Memo for maximal-parent-set enumeration (Algorithms 5/6); the
        #: greedy θ-mode loop shares it across rounds, and a scorer reused
        #: via ScoringCache shares it across the runs of a sweep.
        self.parent_sets = ParentSetCache()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_batch(self, candidates: Sequence[Candidate]) -> np.ndarray:
        """Scores for a candidate grid or tuple list, computing only the
        unscored ones.

        A tuple list becomes a :class:`Candidates` grid first.  The
        grid's parent sets are looked up in the memo, one dict lookup per
        distinct set, and the known scores are one fancy-index.  The
        fresh candidates are counted and scored in one batch per round
        (see :meth:`_score_fresh`).
        """
        grid = Candidates.of(candidates, self._names)
        rows = self._rows(grid)[grid.parent_set]
        fresh = np.flatnonzero(~self._known[rows, grid.child])
        if fresh.size:
            self._score_fresh(grid, rows, fresh)
        return self._scores[rows, grid.child]

    def _rows(self, grid: Candidates) -> np.ndarray:
        """The memo row of each distinct parent set of ``grid``; sets seen
        for the first time get new rows."""
        keys = grid.keys()
        rows = np.fromiter(
            map(self._row_ids.get, keys, itertools.repeat(-1)),
            dtype=np.intp,
            count=len(keys),
        )
        new = np.flatnonzero(rows < 0)
        if new.size:
            first = self._row_count
            self._row_count += new.size
            if self._row_count > len(self._scores):
                capacity = max(self._row_count, 2 * len(self._scores))
                self._scores = _grown(self._scores, capacity)
                self._known = _grown(self._known, capacity)
                self._domain = _grown(self._domain, capacity)
            ids = np.arange(first, self._row_count)
            self._domain[ids] = np.nan
            self._row_ids.update(zip(map(keys.__getitem__, new.tolist()), ids.tolist()))
            rows[new] = ids
        return rows

    def _score_fresh(
        self, grid: Candidates, rows: np.ndarray, fresh: np.ndarray
    ) -> None:
        """Count and score the unscored candidates ``fresh`` of ``grid``
        (``rows`` holds each candidate's memo row) into the memo.

        Each memo cell is scored once, whatever the duplicates in the
        grid.  On a Walsh–Hadamard input, cells whose parents are all at
        level 0 are scored per parent-set width: for ``F`` with the
        native kernel loaded, by one fused
        :meth:`~repro.core.kernel_backend.NativeKernel.score_f_walsh`
        call, which equals ``score_F_batch`` on the joints bit for bit;
        otherwise their joints come from one
        :meth:`~repro.bn.quality.ParentIndexCache.walsh_joints` call.
        The other cells are grouped by parent set, in order of first
        appearance, and counted with one
        :meth:`~repro.bn.quality.ParentIndexCache.grouped_counts` call.
        ``F`` then scores every joint length (parent-domain size) in one
        :func:`score_F_batch` call, and ``I``/``R`` make one segmented
        kernel call per Walsh width or counted parent set, fed the int64
        blocks as they come; each kernel output is bit-equal to that
        candidate's score computed alone.
        """
        _, first = np.unique(
            rows[fresh] * len(self._names) + grid.child[fresh], return_index=True
        )
        fresh = fresh[np.sort(first)]
        cell_rows = rows[fresh]
        children = grid.child[fresh]
        set_ids = grid.parent_set[fresh]
        index = self._parent_index_cache
        if index.coefficients is not None:
            walsh = ~grid.sets[set_ids, 1::2].any(axis=1)
        else:
            walsh = np.zeros(fresh.size, dtype=bool)
        fused = kernel_backend.NATIVE_KERNEL if self.score == "F" else None
        # (positions among the fresh cells, int64 joints, lengths, child sizes)
        parts = []
        widths = grid.widths[set_ids]
        # Distinct values through a set: np.unique without index outputs
        # imports numpy.ma on first use, ~1.5 MB resident for the process.
        for width in sorted(set(widths[walsh].tolist())):
            at = np.flatnonzero(walsh & (widths == width))
            parents = grid.sets[set_ids[at], 0 : 2 * width : 2]
            if fused is not None:
                self._scores[cell_rows[at], children[at]] = fused.score_f_walsh(
                    index.coefficients, parents, children[at], self.table.n
                )
                continue
            joints = index.walsh_joints(parents, children[at])
            parts.append((
                at,
                joints.reshape(-1),
                np.full(at.size, joints.shape[1]),
                np.full(at.size, 2),
            ))
        rest = np.flatnonzero(~walsh)
        if rest.size:
            parts.extend(self._counted_parts(grid, rest, cell_rows, children, set_ids))
        if self.score == "F":
            if parts:
                at, values, lengths, _ = (
                    parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
                )
                self._scores[cell_rows[at], children[at]] = self._F_scores(
                    values, lengths
                )
        else:
            n = self.table.n
            kernel = score_I_segments if self.score == "I" else score_R_segments
            for at, values, lengths, child_sizes in parts:
                floats = values.astype(float)
                self._scores[cell_rows[at], children[at]] = kernel(
                    floats / n if n else floats,
                    np.cumsum(lengths) - lengths,
                    lengths,
                    child_sizes,
                )
        self._known[cell_rows, children] = True

    def _counted_parts(self, grid, rest, cell_rows, children, set_ids):
        """Count the fresh cells ``rest`` grouped by parent set, in order
        of first appearance, with one
        :meth:`~repro.bn.quality.ParentIndexCache.grouped_counts` call."""
        _, first, inverse = np.unique(
            cell_rows[rest], return_index=True, return_inverse=True
        )
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(first.size)
        rest = rest[np.argsort(rank[inverse], kind="stable")]
        if self.score == "F":
            sizes = self._sizes[children[rest]]
            bad = np.flatnonzero(sizes != 2)
            if bad.size:
                child = self._names[children[rest[bad[0]]]]
                raise ValueError(
                    f"score 'F' requires a binary child; {child!r} has "
                    f"{sizes[bad[0]]} values"
                )
        grouped = cell_rows[rest]
        starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
        bounds = list(zip(starts.tolist(), starts[1:].tolist() + [rest.size]))
        counted = self._parent_index_cache.grouped_counts([
            (
                grid.parents(set_ids[rest[lo]]),
                tuple(self._names[c] for c in children[rest[lo:hi]].tolist()),
            )
            for lo, hi in bounds
        ])
        return [
            (rest[lo:hi], block, np.asarray(lengths), np.asarray(child_sizes))
            for (lo, hi), (block, _, lengths, _, child_sizes) in zip(bounds, counted)
        ]

    def _F_scores(self, values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """``F`` of the joints laid end to end in ``values``: one
        :func:`score_F_batch` call per joint length."""
        offsets = np.cumsum(lengths) - lengths
        scores = np.empty(lengths.size)
        for length in sorted(set(lengths.tolist())):
            at = np.flatnonzero(lengths == length)
            if at.size == lengths.size:
                block = values.reshape(-1, length)
            else:
                block = values[offsets[at, None] + np.arange(length)]
            scores[at] = score_F_batch(block, self.table.n)
        return scores

    # ------------------------------------------------------------------
    # Sensitivity
    # ------------------------------------------------------------------
    def _domains(self, grid: Candidates, rows: np.ndarray) -> np.ndarray:
        """The joint parent-domain size of each distinct parent set of
        ``grid`` (memo rows ``rows``), computed on a row's first use as
        :func:`~repro.core.parent_sets.parent_set_domain_size` over the
        set of its ``(name, level)`` pairs.  Float64, NaN until computed:
        only its equality with 2 is ever read."""
        for i in np.flatnonzero(np.isnan(self._domain[rows])).tolist():
            self._domain[rows[i]] = parent_set_domain_size(
                frozenset(grid.parents(i)), self._attrs_by_name
            )
        return self._domain[rows]

    def selection_sensitivity(self, candidates: Sequence[Candidate]) -> float:
        """The per-selection sensitivity: the max over the candidate set Ω.

        ``F`` and ``R`` sensitivities are candidate-independent (Theorems
        4.5 and 5.3), so the max collapses to a single evaluation; only
        ``I`` varies with the domain shape (Lemma 4.1), and it takes one
        of two values, so its max is over the values the candidates'
        shapes select.
        """
        if not len(candidates):
            raise ValueError("need a non-empty candidate set")
        n = self.table.n
        if self.score == "F":
            return sensitivity_F(n)
        if self.score == "R":
            return sensitivity_R(n)
        grid = Candidates.of(candidates, self._names)
        domains = self._domains(grid, self._rows(grid))
        binary = (self._sizes[grid.child] == 2) | (domains[grid.parent_set] == 2)
        values = []
        if binary.any():
            values.append(sensitivity_I(n, binary=True))
        if not binary.all():
            values.append(sensitivity_I(n, binary=False))
        return max(values)


#: Distinct tables a ScoringCache pins before evicting the oldest (FIFO).
#: A sweep touches one or two tables; callers that churn through fresh
#: tables (e.g. repeated multitable releases, each truncating anew) would
#: otherwise grow the registry — and every cached count block it pins —
#: without bound and without any cache hits to show for it.
_MAX_CACHED_TABLES = 8


class ScoringCache:
    """Per-table registry of scorers and derived-statistic caches.

    An ε sweep fits many models over the *same* table; candidate scores,
    parent-set enumerations, the counting engine and contingency counts
    are deterministic data statistics, so sharing their caches across
    fits changes no output and spends no privacy budget.  Tables and
    chunked sources are keyed by object identity (and kept alive by the
    registry so an id() can never be recycled onto a different table);
    the registry is bounded to ``_MAX_CACHED_TABLES`` distinct tables,
    evicting whole-table entries oldest-first.  Evicted consumers keep
    working off their own references — only future lookups rebuild.
    """

    def __init__(self) -> None:
        #: Insertion-ordered registry of live tables (id -> table).
        self._tables: Dict[int, RowSource] = {}
        self._scorers: Dict[Tuple[int, str], CandidateScorer] = {}
        self._joint_counters: Dict[int, object] = {}
        self._parent_indexes: Dict[int, object] = {}

    def _register(self, table: RowSource) -> int:
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
        self._joint_counters.pop(key, None)
        self._parent_indexes.pop(key, None)
        for scorer_key in [k for k in self._scorers if k[0] == key]:
            del self._scorers[scorer_key]

    def parent_index(self, table):
        """Shared :class:`~repro.bn.quality.ParentIndexCache` for ``table``.

        Handed to both the table's scorers and its joint counter, so the
        counting engine (on an all-binary input, the full joint's
        Walsh–Hadamard coefficients) is built once per table or chunked
        source; per-parent-set indexes are never kept.
        """
        from repro.bn.quality import ParentIndexCache

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

    def joint_counter(self, table):
        """Shared :class:`~repro.core.noisy_conditionals.JointCounter`.

        Contingency counts are data statistics like scores, so the
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
