"""Quality measures of a Bayesian network against the data it models.

The network-learning experiments (Figure 4) score a network by the sum of
mutual information over its AP pairs, ``sum_i I(X_i, Π_i)`` — the quantity
Algorithm 2 greedily maximizes (Equation 6 shows the KL divergence from the
model to the data decreases as that sum grows).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.core.score_kernels import score_I_segments
from repro.data.attribute import Attribute
from repro.data.chunks import GroupCounts
from repro.data.marginals import (
    domain_size,
    ensure_int64_domain,
    flatten_index,
    joint_distribution,
    stacked_joint_counts,
    unflatten_index,
)
from repro.data.table import Table
from repro.infotheory.measures import kl_divergence, segment_sums

#: Count over a table's distinct rows only when they number at most this
#: share of its rows.  A weighted ``np.bincount`` costs more per row than
#: an unweighted one (float64 accumulation over a second input stream;
#: ~1.1x on Adult's columns), and compressing costs a one-off
#: ``np.unique`` plus a gathered copy of each column; requiring that it at
#: least halve the rows keeps a wide margin over both.  NLTCS (~6k
#: distinct of 21,574 rows) counts a 3-parent, 4-child group ~1.8x
#: faster; Adult (~43k distinct of 45,222) would count it ~13% slower, so
#: it keeps its raw rows.
MAX_DISTINCT_SHARE = 0.5


def _generalize(
    attr: Attribute, codes: np.ndarray, level: int
) -> Tuple[np.ndarray, int]:
    """``codes`` of ``attr`` mapped to taxonomy ``level``, plus the
    generalized domain size."""
    if level == 0:
        return codes, attr.size
    mapping = attr.generalization_map(level)
    return mapping[codes], int(mapping.max()) + 1 if mapping.size else 1


def generalized_codes(table: Table, name: str, level: int) -> Tuple[np.ndarray, int]:
    """Column codes of ``name`` generalized to taxonomy ``level``.

    Returns the codes and the generalized domain size.  Level 0 returns the
    raw column.
    """
    return _generalize(table.attribute(name), table.column(name), level)


def _flatten_columns(
    columns: Sequence[np.ndarray], sizes: Sequence[int], rows: int
) -> np.ndarray:
    """Mixed-radix flattening of parallel code columns (first column most
    significant) into one int64 index per row.

    The index accumulates in place in a single array: the integers of
    :func:`~repro.data.marginals.flatten_index`, under the same int64
    domain check, without first stacking the columns into an ``n × m``
    matrix.  No columns give ``rows`` zeros.
    """
    ensure_int64_domain(domain_size(sizes))
    if not columns:
        return np.zeros(rows, dtype=np.int64)
    flat = np.array(columns[0], dtype=np.int64)
    for codes, size in zip(columns[1:], sizes[1:]):
        flat *= size
        flat += codes
    return flat


def _distinct_rows(table: Table) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """First-occurrence indexes and multiplicities of the table's distinct
    rows, or ``None`` when counting should run over the raw rows.

    Every row packs into one mixed-radix int64; one sort and a count of
    value changes decide (see :data:`MAX_DISTINCT_SHARE`), and only a
    table that compresses pays for the indexes and multiplicities.  A table
    whose full domain does not fit int64 cannot pack and keeps its rows.
    """
    attrs = table.attributes
    sizes = [attr.size for attr in attrs]
    if table.n == 0 or domain_size(sizes) > np.iinfo(np.int64).max:
        return None
    packed = _flatten_columns(
        [table.column(attr.name) for attr in attrs], sizes, table.n
    )
    ordered = np.sort(packed)
    distinct = 1 + int(np.count_nonzero(ordered[1:] != ordered[:-1]))
    if distinct > MAX_DISTINCT_SHARE * table.n:
        return None
    _, first, multiplicity = np.unique(
        packed, return_index=True, return_counts=True
    )
    return first, multiplicity.astype(np.float64)


class ParentIndexCache:
    """Contingency counting over one resident table — the single counting
    entry point of the candidate-scoring engine (:mod:`repro.core.scoring`)
    and the distribution learner's
    :class:`~repro.core.noisy_conditionals.JointCounter`.

    Counting runs over the table's *distinct* rows, each weighted by its
    multiplicity, when they number at most :data:`MAX_DISTINCT_SHARE` of
    the rows (decided once, at construction); otherwise over the raw rows.
    Either way :meth:`counts` returns the exact integers a per-row
    ``np.bincount`` produces.  The cache keeps only the per-(attribute,
    level) code columns over the counted rows; each parent set's flat
    index is rebuilt in place on every :meth:`counts` call and never
    retained, so memory stays ``O(d · rows)`` however many parent sets a
    search visits.  One cache per table serves both consumers (shared
    through :class:`~repro.core.scoring.ScoringCache`).  Everything here is
    a deterministic data statistic; cached arrays must be treated as
    read-only.
    """

    def __init__(self, table: Table) -> None:
        self.table = table
        distinct = _distinct_rows(table)
        #: Rows counted: the distinct rows' first occurrences, or every row.
        self._row_index = None if distinct is None else distinct[0]
        #: Multiplicity (float64) of each counted row; ``None`` counts the
        #: raw rows unweighted.
        self.weights = None if distinct is None else distinct[1]
        self._codes: Dict[Tuple[str, int], Tuple[np.ndarray, int]] = {}

    @property
    def rows(self) -> int:
        """How many rows each count runs over."""
        return self.table.n if self.weights is None else len(self.weights)

    def codes(self, name: str, level: int) -> Tuple[np.ndarray, int]:
        """Memoized :func:`generalized_codes` over the counted rows."""
        key = (name, level)
        if key not in self._codes:
            codes = self.table.column(name)
            if self._row_index is not None:
                codes = codes[self._row_index]
            self._codes[key] = _generalize(
                self.table.attribute(name), codes, level
            )
        return self._codes[key]

    def flat(
        self, parents: Tuple[Tuple[str, int], ...]
    ) -> Tuple[np.ndarray, Tuple[int, ...]]:
        """Flattened parent configuration of every counted row, plus the
        parent sizes (built afresh; not retained)."""
        coded = [self.codes(name, level) for name, level in parents]
        sizes = tuple(size for _, size in coded)
        return _flatten_columns([c for c, _ in coded], sizes, self.rows), sizes

    def counts(
        self, parents: Tuple[Tuple[str, int], ...], children: Sequence[str]
    ) -> GroupCounts:
        """Int64 contingency counts of ``Pr[Π, X]`` for every child of one
        parent set, in one stacked block.

        Returns ``(block, offsets, lengths, parent_sizes, child_sizes)``:
        the :func:`~repro.data.marginals.stacked_joint_counts` layout plus
        the size metadata, exactly as
        :func:`repro.data.chunks.stream_stacked_joint_counts` returns it
        for a chunked source.
        """
        flat, parent_sizes = self.flat(parents)
        parent_dom = domain_size(parent_sizes)
        child_sizes = tuple(self.table.attribute(c).size for c in children)
        for child, child_size in zip(children, child_sizes):
            ensure_int64_domain(
                parent_dom * child_size, f"joint domain of (Π, {child!r})"
            )
        block, offsets, lengths = stacked_joint_counts(
            flat,
            parent_dom,
            [self.codes(child, 0)[0] for child in children],
            child_sizes,
            weights=self.weights,
        )
        return block, offsets, lengths, parent_sizes, child_sizes


def _flatten_generalized_parents(
    table: Table, parents: Sequence[Tuple[str, int]]
) -> Tuple[np.ndarray, List[int]]:
    """Per-row parent configuration codes and sizes for a (possibly
    generalized) parent set — the uncached counterpart of
    :meth:`ParentIndexCache.flat`, shared by every joint builder in this
    module so the flattening semantics cannot drift between them."""
    coded = [generalized_codes(table, name, level) for name, level in parents]
    sizes = [size for _, size in coded]
    return _flatten_columns([c for c, _ in coded], sizes, table.n), sizes


def pair_joint_distribution(
    table: Table,
    child: str,
    parents: Sequence[Tuple[str, int]],
) -> Tuple[np.ndarray, int]:
    """Empirical ``Pr[Π, X]`` (child innermost) for a possibly generalized
    parent set.  Returns the flat joint and the child domain size."""
    parent_flat, sizes = _flatten_generalized_parents(table, parents)
    child_attr = table.attribute(child)
    total = ensure_int64_domain(
        domain_size(sizes + [child_attr.size]), "pair joint domain"
    )
    flat = parent_flat * child_attr.size + table.column(child)
    counts = np.bincount(flat, minlength=total).astype(float)
    joint = counts / counts.sum() if counts.sum() > 0 else counts
    return joint, child_attr.size


def pair_group_mutual_information(
    table: Table,
    parents: Sequence[Tuple[str, int]],
    children: Sequence[str],
) -> List[float]:
    """``I(child, Π)`` for every child sharing one (generalized) parent set.

    The parent configuration is flattened once, all children's joints are
    counted into one stacked block, and the block goes
    *straight* into the ragged segmented kernel
    (:func:`repro.core.score_kernels.score_I_segments`) — no per-candidate
    reshaping or same-size bucketing here.  Normalization divides each
    element by its candidate's exact segment total
    (:func:`repro.infotheory.measures.segment_sums`), so each value is
    bit-equal to ``mutual_information(*pair_joint_distribution(...))`` on
    the same pair.  This is the batched core under both
    :func:`network_mutual_information` and
    :meth:`repro.core.scoring.MutualInformationCache.pair_mi_batch`.
    """
    parent_flat, sizes = _flatten_generalized_parents(table, parents)
    parent_dom = domain_size(sizes)
    child_sizes = [table.attribute(c).size for c in children]
    block, offsets, lengths = stacked_joint_counts(
        parent_flat, parent_dom,
        [table.column(c) for c in children], child_sizes,
    )
    floats = block.astype(float)
    lengths = np.asarray(lengths, dtype=np.int64)
    ids = np.repeat(np.arange(len(children), dtype=np.int64), lengths)
    totals = segment_sums(floats, ids, len(children))
    # Empty table: pair_joint_distribution leaves the all-zero vector
    # unnormalized (divide by 1 here), and the kernel scores it to the
    # same exact 0.0 the normalized path produces.
    divisors = np.where(totals > 0.0, totals, 1.0)
    normalized = floats / np.repeat(divisors, lengths)
    values = score_I_segments(normalized, offsets, lengths, child_sizes)
    return [float(v) for v in values]


def network_mutual_information(
    table: Table, network: BayesianNetwork, mi_cache=None
) -> float:
    """``sum_i I(X_i, Π_i)`` of the network on the empirical distribution.

    AP pairs sharing a parent set are measured together through
    :func:`pair_group_mutual_information` (bit-equal to the pair-by-pair
    path, summed in network order).  ``mi_cache`` is an optional
    :class:`~repro.core.scoring.MutualInformationCache` (duck-typed to keep
    this module import-light); pass one when scoring many networks over the
    same table so repeated AP pairs are measured once.
    """
    if mi_cache is not None and mi_cache.table is not table:
        raise ValueError("mi_cache was built for a different table")
    groups: Dict[Tuple, List[str]] = {}
    for pair in network:
        if pair.parents:
            groups.setdefault(pair.parents, []).append(pair.child)
    pair_values: Dict[Tuple, float] = {}
    for parents, children in groups.items():
        if mi_cache is not None:
            mi_cache.pair_mi_batch(parents, children)
            for child in children:
                pair_values[(child, parents)] = mi_cache.pair_mi(
                    child, parents
                )
        else:
            for child, value in zip(
                children,
                pair_group_mutual_information(table, parents, children),
            ):
                pair_values[(child, parents)] = value
    total = 0.0
    for pair in network:
        if pair.parents:
            total += pair_values[(pair.child, pair.parents)]
    return total


def exact_model_joint(table: Table, network: BayesianNetwork) -> np.ndarray:
    """Materialize ``Pr_N[A]`` over the full domain (small domains only).

    Attributes follow the network's construction order.  Intended for tests
    and tiny illustrative examples — the whole point of PrivBayes is to never
    need this at scale.
    """
    order = list(network.attribute_order)
    sizes = [table.attribute(name).size for name in order]
    total = domain_size(sizes)
    if total > 2_000_000:
        raise ValueError(f"domain size {total} too large to materialize")
    grid = np.ones(total, dtype=float)
    coords = unflatten_index(np.arange(total), sizes)  # (total, d)
    position = {name: i for i, name in enumerate(order)}
    for pair in network:
        child_idx = position[pair.child]
        child_size = sizes[child_idx]
        if pair.parents:
            if any(level != 0 for _, level in pair.parents):
                raise ValueError(
                    "exact_model_joint does not support generalized parents"
                )
            parent_names = list(pair.parent_names)
            joint = joint_distribution(table, parent_names + [pair.child])
            parent_sizes = [table.attribute(p).size for p in parent_names]
            conditional = joint.reshape(-1, child_size)
            row_sums = conditional.sum(axis=1, keepdims=True)
            safe = np.where(row_sums > 0, row_sums, 1.0)
            conditional = np.where(
                row_sums > 0, conditional / safe, 1.0 / child_size
            )
            parent_coords = np.stack(
                [coords[:, position[p]] for p in parent_names], axis=1
            )
            parent_flat = flatten_index(parent_coords, parent_sizes)
            grid *= conditional[parent_flat, coords[:, child_idx]]
        else:
            marginal = joint_distribution(table, [pair.child])
            grid *= marginal[coords[:, child_idx]]
    return grid


def model_kl_to_data(table: Table, network: BayesianNetwork) -> float:
    """``D_KL(Pr[A] || Pr_N[A])`` over the full domain (small domains only)."""
    order = list(network.attribute_order)
    data_joint = joint_distribution(table, order)
    model_joint = exact_model_joint(table, network)
    return kl_divergence(data_joint, model_joint)
