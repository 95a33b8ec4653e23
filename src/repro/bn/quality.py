"""Quality measures of a Bayesian network against the data it models.

The network-learning experiments (Figure 4) score a network by the sum of
mutual information over its AP pairs, ``sum_i I(X_i, Π_i)`` — the quantity
Algorithm 2 greedily maximizes (Equation 6 shows the KL divergence from the
model to the data decreases as that sum grows).  Each term is the ``I``
score of Section 4.2, so :func:`network_mutual_information` reads it from
an ``I`` :class:`~repro.core.scoring.CandidateScorer`, the same counting,
kernel and memo the greedy learner uses.

The module also holds :class:`ParentIndexCache`, the library's one
contingency-counting engine, which scoring and distribution learning
share over a resident table or a chunked source alike: a Walsh–Hadamard
transform of the full joint on all-binary inputs up to
:data:`MAX_WALSH_CELLS` cells, per-parent-set bincounts over the raw
rows otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.data.chunks import RowSource, as_chunks
from repro.data.marginals import (
    domain_size,
    ensure_int64_domain,
    flatten_index,
    stacked_joint_counts,
    walsh_hadamard,
)

#: Largest full joint, in cells, that an all-binary input's counting
#: keeps as Walsh–Hadamard coefficients: 2**24 int64 cells are 128 MB.
#: NLTCS (2**16 cells, 512 KB) and ACS (2**23, 64 MB) fit; Adult
#: binarized to 52 bits does not, and counts its raw rows.
MAX_WALSH_CELLS = 1 << 24

#: One (possibly generalized) parent set, as used throughout the library.
ParentSet = Tuple[Tuple[str, int], ...]

#: One counting group: a shared parent set and the children joined to it.
CountGroup = Tuple[ParentSet, Tuple[str, ...]]

#: Result per group: (block, offsets, lengths, parent_sizes, child_sizes) —
#: the ``stacked_joint_counts`` layout plus the mixed-radix size metadata.
GroupCounts = Tuple[
    np.ndarray, Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]
]


class ParentIndexCache:
    """Contingency counting over one row source, a resident
    :class:`~repro.data.table.Table` or a
    :class:`~repro.data.chunks.ChunkedSource`: the single counting entry
    point of the candidate-scoring engine (:mod:`repro.core.scoring`) and
    the distribution learner's
    :class:`~repro.core.noisy_conditionals.JointCounter`.

    Two engines, chosen once, at construction, from the input alone:

    * **Walsh–Hadamard** when every attribute is binary, the full joint
      has at most :data:`MAX_WALSH_CELLS` cells and ``n · 2**d`` fits
      int64.  The full joint is counted once, in one pass over the rows
      (through :meth:`counts`, attribute ``i`` at bit ``d-1-i``), and
      transformed in place into its integer Walsh–Hadamard coefficients
      (:func:`~repro.data.marginals.walsh_hadamard`).  A joint over a set
      ``S`` of level-0 attributes is then the inverse transform of the
      coefficients of the subsets of ``S`` (the identity behind the
      Fourier baseline, :mod:`repro.baselines.fourier`): a gather of
      ``2**|S|`` coefficients, ``|S|`` butterfly stages and a right shift
      by ``|S|``, all exact int64 arithmetic.  Every coefficient is at
      most ``n`` in magnitude and every butterfly value at most
      ``2**|S| · n``, hence the int64 condition.
    * **Raw rows** otherwise, and for any group with a generalized parent:
      one :meth:`grouped_counts` call counts all of its raw groups in one
      pass over :func:`~repro.data.chunks.as_chunks` (a table is read as
      column views, one chunk per ``DEFAULT_CHUNK_ROWS`` rows).  In each
      chunk every parent set's flat index is built in place
      (:meth:`flat`), every child is one ``np.bincount`` over it, and the
      chunks' int64 counts add up exactly.  No flat index is retained,
      so memory stays bounded by the chunk however many parent sets a
      search visits.

    Either way :meth:`grouped_counts` returns the exact integers a per-row
    ``np.bincount`` produces.  On the Walsh path, :meth:`walsh_joints` is
    the array entry point under it: ``(m, w)`` parent positions and ``m``
    child positions in, the ``(m, 2**(w+1))`` joints out, with no names
    or per-group tuples; the greedy scorer feeds its fresh candidates to
    it directly.  The cache keeps each generalized attribute's
    leaf-to-level map (domain-sized, never per-row) and, on the Walsh
    path, the ``2**d`` coefficients.  One cache per source serves both
    consumers (shared through :class:`~repro.core.scoring.ScoringCache`).
    Everything here is a deterministic data statistic; cached arrays must
    be treated as read-only.
    """

    def __init__(self, source: RowSource) -> None:
        self.table = source
        #: Per ``(attribute, level)``: its leaf-to-level map (``None`` at
        #: level 0, where the codes stand as they are) and the level's
        #: domain size.
        self._levels: Dict[Tuple[str, int], Tuple[Optional[np.ndarray], int]] = {}
        #: Walsh–Hadamard coefficients of the full joint, or ``None`` when
        #: counting runs over the raw rows.
        self.coefficients: Optional[np.ndarray] = None
        names = source.attribute_names
        d = len(names)
        if (
            d
            and all(attr.size == 2 for attr in source.attributes)
            and 1 << d <= MAX_WALSH_CELLS
            and int(source.n) << d <= np.iinfo(np.int64).max
        ):
            full = self.counts(
                tuple((name, 0) for name in names[:-1]), names[-1:]
            )
            self.coefficients = walsh_hadamard(full[0], d)
            self.coefficients.setflags(write=False)
            #: Position of each attribute; attribute ``i`` is bit
            #: ``d-1-i`` of a coefficient's index.
            self._position = {name: i for i, name in enumerate(names)}

    def _level(self, name: str, level: int) -> Tuple[Optional[np.ndarray], int]:
        """The memoized leaf-to-level map of ``name`` at taxonomy
        ``level`` and that level's domain size."""
        key = (name, level)
        if key not in self._levels:
            attr = self.table.attribute(name)
            if level == 0:
                self._levels[key] = None, attr.size
            else:
                mapping = attr.generalization_map(level)
                size = int(mapping.max()) + 1 if mapping.size else 1
                self._levels[key] = mapping, size
        return self._levels[key]

    def flat(
        self, parents: ParentSet, chunk: Mapping[str, np.ndarray]
    ) -> Tuple[np.ndarray, Tuple[int, ...]]:
        """Flattened parent configuration of every row of ``chunk``, plus
        the parent sizes (built afresh; not retained)."""
        levels = [self._level(name, level) for name, level in parents]
        columns = [
            chunk[name] if mapping is None else mapping[chunk[name]]
            for (name, _), (mapping, _) in zip(parents, levels)
        ]
        sizes = tuple(size for _, size in levels)
        rows = len(next(iter(chunk.values())))
        return flatten_index(columns, sizes, rows), sizes

    def counts(
        self, parents: ParentSet, children: Sequence[str]
    ) -> GroupCounts:
        """Int64 contingency counts of ``Pr[Π, X]`` for every child of one
        parent set: the one-group case of :meth:`grouped_counts`."""
        return self.grouped_counts([(tuple(parents), tuple(children))])[0]

    def grouped_counts(
        self, groups: Sequence[CountGroup]
    ) -> List[GroupCounts]:
        """Int64 contingency counts for many ``(parents, children)``
        groups.

        Each result is ``(block, offsets, lengths, parent_sizes,
        child_sizes)``: the :func:`~repro.data.marginals.stacked_joint_counts`
        layout (parents in the order given, the first most significant,
        the child innermost) plus the size metadata.  On the Walsh path
        all level-0 groups of one width share one gather and one
        butterfly; the other groups are counted together in one pass over
        the raw rows, and a call with none of them reads no rows.
        """
        results: List[Optional[GroupCounts]] = [None] * len(groups)
        by_width: Dict[int, List[int]] = {}
        raw: List[int] = []
        for position, (parents, children) in enumerate(groups):
            if self.coefficients is not None and all(
                level == 0 for _, level in parents
            ):
                by_width.setdefault(len(parents) + 1, []).append(position)
            else:
                raw.append(position)
        if raw:
            counted = self._raw_counts([groups[p] for p in raw])
            for position, group in zip(raw, counted):
                results[position] = group
        for width, positions in by_width.items():
            counted = self._walsh_counts([groups[p] for p in positions], width)
            for position, group in zip(positions, counted):
                results[position] = group
        return results

    def _raw_counts(self, groups: Sequence[CountGroup]) -> List[GroupCounts]:
        """Counts of ``groups`` in one pass over the raw rows: each later
        chunk's blocks add into the first chunk's, which is exact int64
        addition.  A source that yields no chunk counts as one empty
        chunk."""
        for parents, children in groups:
            parent_dom = domain_size(
                self._level(name, level)[1] for name, level in parents
            )
            for child in children:
                ensure_int64_domain(
                    parent_dom * self._level(child, 0)[1],
                    f"joint domain of (Π, {child!r})",
                )
        chunks = as_chunks(self.table)
        first = next(chunks, None)
        if first is None:
            first = {
                name: np.zeros(0, dtype=np.int64)
                for name in self.table.attribute_names
            }
        totals = [self._chunk_counts(first, group) for group in groups]
        del first  # free the first chunk before the source makes the next
        for chunk in chunks:
            for total, group in zip(totals, groups):
                block = total[0]
                block += self._chunk_counts(chunk, group)[0]
        return totals

    def _chunk_counts(
        self, chunk: Mapping[str, np.ndarray], group: CountGroup
    ) -> GroupCounts:
        """One group's counts over the rows of one chunk."""
        parents, children = group
        flat, parent_sizes = self.flat(parents, chunk)
        child_sizes = tuple(self._level(child, 0)[1] for child in children)
        block, offsets, lengths = stacked_joint_counts(
            flat,
            domain_size(parent_sizes),
            [chunk[child] for child in children],
            child_sizes,
        )
        return block, offsets, lengths, parent_sizes, child_sizes

    def _walsh_counts(
        self, groups: Sequence[CountGroup], width: int
    ) -> List[GroupCounts]:
        """Joints of groups of ``width`` level-0 attributes each (parents
        plus child): one :meth:`walsh_joints` call, split per group."""
        position = self._position
        fanout = [len(children) for _, children in groups]
        parents = np.array(
            [[position[name] for name, _ in parents] for parents, _ in groups],
            dtype=np.intp,
        ).reshape(len(groups), width - 1)
        children = np.array(
            [position[child] for _, children in groups for child in children],
            dtype=np.intp,
        )
        joint = self.walsh_joints(np.repeat(parents, fanout, axis=0), children)
        cell_count = 1 << width
        results: List[GroupCounts] = []
        start = 0
        for count in fanout:
            results.append((
                joint[start : start + count].reshape(-1),
                tuple(range(0, count * cell_count, cell_count)),
                (cell_count,) * count,
                (2,) * (width - 1),
                (2,) * count,
            ))
            start += count
        return results

    def walsh_joints(
        self, parents: np.ndarray, children: np.ndarray
    ) -> np.ndarray:
        """Joints of ``m`` (parents, child) candidates from the
        coefficients, on the Walsh path only.

        ``parents`` is an ``(m, w)`` array of attribute positions (source
        order) and ``children`` an ``(m,)`` one.  Returns the ``(m,
        2**(w+1))`` int64 joints.  Local cell ``t`` of a joint puts parent
        ``j`` at bit ``w-j`` and the child at bit 0, which is the
        ``stacked_joint_counts`` layout; its coefficient index is the XOR
        of the bits of the attributes ``t`` selects.  For distinct
        attributes that is their OR, and for an attribute listed twice
        its two characters cancel, as they do in the data.  One gather,
        one butterfly and one shift: the gather is cell-major (one column
        per joint) so the butterfly runs along contiguous rows, and the
        shift writes the joints back row-major.
        """
        count, width = parents.shape
        top = len(self._position) - 1
        cells = np.zeros((1, count), dtype=np.int64)
        for j in range(width):
            bits = np.left_shift(1, top - parents[:, j], dtype=np.int64)
            cells = np.stack([cells, cells ^ bits], axis=1).reshape(2 << j, count)
        bits = np.left_shift(1, top - children, dtype=np.int64)
        cells = np.stack([cells, cells ^ bits], axis=1).reshape(2 << width, count)
        spectra = self.coefficients[cells]
        walsh_hadamard(spectra, width + 1)
        joints = np.empty((count, 2 << width), dtype=np.int64)
        np.right_shift(spectra.T, width + 1, out=joints)
        return joints


def network_mutual_information(network: BayesianNetwork, scorer) -> float:
    """``sum_i I(X_i, Π_i)`` of the network on the empirical distribution
    of the table ``scorer`` was built for.

    Each term is the Section 4.2 ``I`` score of an AP pair, so ``scorer``
    must be an ``I`` :class:`~repro.core.scoring.CandidateScorer` (read by
    duck typing, which keeps this module below :mod:`repro.core.scoring`
    in the import order).  The non-root pairs go to one ``score_batch``
    call in network order, so pairs the greedy learner already scored cost
    a memo lookup, and the values are added left to right from ``0.0``.
    """
    if scorer.score != "I":
        raise ValueError(
            f"network quality needs an 'I' scorer, not {scorer.score!r}"
        )
    pairs = [(pair.child, pair.parents) for pair in network if pair.parents]
    total = 0.0
    for value in scorer.score_batch(pairs):
        total += float(value)
    return total
